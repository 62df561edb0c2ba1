"""Smoke tests: every shipped example runs to completion.

Examples are documentation that executes; these tests keep them honest
as the library evolves. Each runs in a subprocess with a generous
timeout and must exit 0.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
#: arguments that shrink an example from its demo size to a test size
ARGS = {"concurrent_oltp.py": ["--txns", "2"]}


def test_examples_discovered():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    if script == "sql_shell.py":
        stdin = "SELECT 1 + 1 FROM nothing\n.quit\n"  # error path + exit
        # a statement against a missing table must not crash the shell
    else:
        stdin = ""
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *ARGS.get(script, [])],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert completed.returncode == 0, (
        f"{script} failed\nstdout:\n{completed.stdout[-2000:]}\n"
        f"stderr:\n{completed.stderr[-2000:]}"
    )


def test_shell_handles_sql_and_commands():
    stdin = (
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)\n"
        "INSERT INTO t VALUES (1, 10)\n"
        "SELECT * FROM t\n"
        ".tables\n"
        ".explain SELECT * FROM t WHERE id = 1\n"
        ".verify\n"
        ".stats\n"
        ".audit\n"
        "THIS IS NOT SQL\n"
        ".nonsense\n"
        ".quit\n"
    )
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "sql_shell.py")],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert "1 | 10" in completed.stdout
    assert "IndexSearch" in completed.stdout
    assert "epoch closed" in completed.stdout
    assert "error:" in completed.stdout  # bad SQL reported, not fatal
