"""The metric catalog is the spec: every metric answers a question and is read.

INTERNALS §7 has one row per group of metrics of one layer and kind.
Every name registered under ``src/repro`` — a string literal (or a
module-level string constant) passed to ``.counter``, ``.gauge``,
``.histogram`` or ``.gauge_fn`` — must have a row, and every row must
name something registered. A metric added without its row, or deleted
without it, fails here.

Each row also names the question it answers (one of :data:`QUESTIONS`)
and its reader: a test node id (``benchmarks/test_gates.py`` gates are
node ids too), ``benchmarks/e2e/worker.py``, or ``benchmarks/smoke.py
<check>``. The reader must exist and name every metric of its row, by
string literal or by a module-level string constant of ``src`` (the
way ``CLIENT_LATENCY_METRIC`` is read), labels and ``<site>``/``<Op>``
placeholders allowed for.
"""

import ast
import functools
import pathlib
import re

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
INTERNALS = ROOT / "docs" / "INTERNALS.md"
SRC = pathlib.Path(repro.__file__).parent
KINDS = ("counter", "gauge", "histogram", "gauge_fn")
#: the formatted part of an f-string name -> the catalog's placeholder
PLACEHOLDERS = {"site": "<site>", "type(op).__name__": "<Op>"}
QUESTIONS = (
    "where did this query's time and cycles go",
    "is every enclave verifying on schedule",
    "is the service keeping up or shedding",
    "is durability keeping up",
    "was there an integrity incident",
)


def _string_constants(tree: ast.Module) -> dict[str, str]:
    return {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


def _name_of(arg: ast.expr, constants: dict[str, str]) -> "str | None":
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.Name):
        # a forwarded parameter names a metric registered elsewhere
        return constants.get(arg.id)
    if isinstance(arg, ast.JoinedStr):
        parts = []
        for part in arg.values:
            if isinstance(part, ast.Constant):
                parts.append(part.value)
            else:
                source = ast.unparse(part.value)
                assert source in PLACEHOLDERS, f"no placeholder for {{{source}}}"
                parts.append(PLACEHOLDERS[source])
        return "".join(parts)
    return None


def _src_trees():
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.rglob("*.py")}


def registered_metrics() -> set[str]:
    names = set()
    for tree in _src_trees().values():
        constants = _string_constants(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in KINDS
                and node.args
            ):
                name = _name_of(node.args[0], constants)
                if name is not None:
                    names.add(name)
    return names


def catalog_rows(text: str) -> list[list[str]]:
    """The cells of every §7 catalog row: layer, metrics, kind, meaning,
    question, reader (a row may be short; :func:`row_problems` says so)."""
    section = text.split("### Metric catalog", 1)[1].split("\n### ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) >= 3 and cells[0].startswith("`"):
            rows.append(cells)
    return rows


def row_metrics(cells: list[str]) -> list[str]:
    """``layer.metric`` of each metric in a row (labels dropped)."""
    layer = cells[0].strip("`")
    return [
        f"{layer}.{metric.split('{', 1)[0]}"
        for metric in re.findall(r"`([^`]+)`", cells[1])
    ]


def catalog_metrics(text: str) -> set[str]:
    return {name for cells in catalog_rows(text) for name in row_metrics(cells)}


@functools.lru_cache(maxsize=None)
def _src_constants() -> dict[str, str]:
    constants = {}
    for tree in _src_trees().values():
        constants.update(_string_constants(tree))
    return constants


@functools.lru_cache(maxsize=None)
def _names_in(path: pathlib.Path) -> frozenset:
    """Every metric-like string ``path`` names: its string literals and
    the values of the ``src`` constants it refers to, labels dropped."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    constants = {**_src_constants(), **_string_constants(tree)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, ast.Name) and node.id in constants:
            names.add(constants[node.id])
        elif isinstance(node, ast.alias) and node.name in constants:
            names.add(constants[node.name])
    return frozenset(name.split("{", 1)[0] for name in names)


def _pattern(metric: str) -> re.Pattern:
    escaped = re.escape(metric)
    for placeholder in PLACEHOLDERS.values():
        escaped = escaped.replace(re.escape(placeholder), r"[\w.]+")
    return re.compile(escaped)


def _reader_file(reader: str) -> "tuple[pathlib.Path | None, str | None]":
    """The reader's file, or None and why it is not a reader."""
    if "::" in reader:
        relative, node = reader.split("::", 1)
        path = ROOT / relative
        if not path.is_file():
            return None, f"no file {relative}"
        function = node.split("[", 1)[0].split("::")[-1]
        defined = {
            n.name for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(n, ast.FunctionDef)
        }
        if function not in defined:
            return None, f"no test {function} in {relative}"
        return path, None
    if reader == "benchmarks/e2e/worker.py":
        return ROOT / reader, None
    check = re.fullmatch(r"benchmarks/smoke\.py (\w+)", reader)
    if check:
        path = ROOT / "benchmarks" / "smoke.py"
        if f"def smoke_{check.group(1)}(" not in path.read_text(encoding="utf-8"):
            return None, f"no smoke check {check.group(1)}"
        return path, None
    return None, f"{reader!r} is not a node id, the e2e worker or a smoke check"


def row_problems(cells: list[str]) -> list[str]:
    """What is wrong with one catalog row; [] for a sound one."""
    if len(cells) < 6 or not cells[4] or not cells[5]:
        return ["no question or no reader"]
    question, reader = cells[4], cells[5].strip("`")
    problems = []
    if question not in QUESTIONS:
        problems.append(f"question {question!r} is not one of the five")
    path, why = _reader_file(reader)
    if path is None:
        return problems + [why]
    named = _names_in(path)
    for metric in row_metrics(cells):
        pattern = _pattern(metric)
        if not any(pattern.fullmatch(name) for name in named):
            problems.append(f"{reader} does not name {metric}")
    return problems


def test_catalog_rows_equal_registered_metrics():
    catalog = catalog_metrics(INTERNALS.read_text(encoding="utf-8"))
    registered = registered_metrics()
    assert sorted(registered - catalog) == [], "metrics without a catalog row"
    assert sorted(catalog - registered) == [], "catalog rows without a metric"


def test_every_row_answers_a_question_and_is_read():
    problems = {
        cells[1]: row_problems(cells)
        for cells in catalog_rows(INTERNALS.read_text(encoding="utf-8"))
    }
    assert {row: found for row, found in problems.items() if found} == {}


def test_a_stale_row_is_caught():
    table = (
        "### Metric catalog\n| layer | metric | kind | meaning |\n|---|---|---|---|\n"
        "| `portal` | `queries`, `gone_metric` | counter | x |\n"
        "| `shard` | `request_seconds{shard=}`, `op.<Op>.x` | histogram | x |\n"
        "### Next\n| `sql` | `not_a_row` | counter | x |\n"
    )
    assert catalog_metrics(table) == {
        "portal.queries",
        "portal.gone_metric",
        "shard.request_seconds",
        "shard.op.<Op>.x",
    }


def test_an_unanswered_or_unread_row_is_caught():
    question = QUESTIONS[2]
    reader = "`tests/service/test_service.py::test_latency_histograms_populated`"

    def row(metrics, q=question, r=reader):
        return ["`service`", metrics, "histogram", "x", q, r]

    assert row_problems(row("`queue_seconds`, `in_flight`")) == []
    assert row_problems(["`service`", "`queue_seconds`", "histogram", "x"]) == [
        "no question or no reader"
    ]
    assert row_problems(row("`queue_seconds`", q="")) == ["no question or no reader"]
    assert row_problems(row("`queue_seconds`", q="is it fast")) == [
        "question 'is it fast' is not one of the five"
    ]
    assert row_problems(row("`queue_seconds`, `gone_metric`")) == [
        "tests/service/test_service.py::test_latency_histograms_populated "
        "does not name service.gone_metric"
    ]
    assert row_problems(row("`queue_seconds`", r="`tests/service/test_service.py::test_gone`")) == [
        "no test test_gone in tests/service/test_service.py"
    ]
    assert row_problems(row("`queue_seconds`", r="`benchmarks/smoke.py nothing`")) == [
        "no smoke check nothing"
    ]
    # a constant of src counts as its value; a placeholder as any site
    loadgen = "`tests/service/test_loadgen.py::test_small_run_all_complete`"
    assert row_problems(row("`client_latency_seconds`", r=loadgen)) == []
    faults = "`tests/faults/test_plane_sites.py::test_fault_counters_export_through_obs`"
    assert row_problems(["`faults`", "`<site>`", "counter", "x", QUESTIONS[4], faults]) == []
