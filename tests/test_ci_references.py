"""CI names only what exists.

Every script path and every ``file.py::test_name`` node id written in
``.github/workflows/ci.yml`` must resolve in the tree, and every smoke
check in its matrix must be a ``benchmarks/smoke.py`` subcommand; a
rename that leaves CI pointing at a missing gate fails here, before CI
silently runs nothing.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
CI = ROOT / ".github" / "workflows" / "ci.yml"

PATH = re.compile(r"\b(?:benchmarks|tests)/[\w/.-]*?\.py\b")
NODE = re.compile(r"\b((?:benchmarks|tests)/[\w/.-]*?\.py)::(\w+)")


def defined_names(path: pathlib.Path) -> set[str]:
    """Functions and classes a module defines, and their methods."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                item.name for item in node.body if isinstance(item, ast.FunctionDef)
            )
    return names


def missing_references(text: str, root: pathlib.Path = ROOT) -> list[str]:
    missing = [path for path in PATH.findall(text) if not (root / path).is_file()]
    for path, name in NODE.findall(text):
        if (root / path).is_file() and name not in defined_names(root / path):
            missing.append(f"{path}::{name}")
    return missing


def test_every_path_and_node_id_in_ci_exists():
    text = CI.read_text()
    assert "benchmarks/test_gates.py" in PATH.findall(text)
    assert missing_references(text) == []


def test_every_smoke_check_is_a_subcommand():
    tree = ast.parse((ROOT / "benchmarks" / "smoke.py").read_text())
    (smokes,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "SMOKES" for t in node.targets)
    ]
    subcommands = {key.value for key in smokes.keys}
    checks = re.findall(r"-\s+check:\s+(\w+)", CI.read_text())
    assert checks and set(checks) <= subcommands


def test_a_renamed_gate_is_caught():
    text = (
        "run: python -m pytest benchmarks/test_gates.py::test_cache_zipfian_speedup "
        "benchmarks/test_gates.py::test_no_such_gate benchmarks/no_such_file.py"
    )
    assert missing_references(text) == [
        "benchmarks/no_such_file.py",
        "benchmarks/test_gates.py::test_no_such_gate",
    ]
