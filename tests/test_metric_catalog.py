"""The metric catalog names exactly the metrics that exist.

INTERNALS §7 has one row per group of metrics of one layer and kind.
Every name registered under ``src/repro`` — a string literal (or a
module-level string constant) passed to ``.counter``, ``.gauge``,
``.histogram`` or ``.gauge_fn`` — must have a row, and every row must
name something registered. A metric added without its row, or deleted
without it, fails here.
"""

import ast
import pathlib
import re

import repro

INTERNALS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "INTERNALS.md"
SRC = pathlib.Path(repro.__file__).parent
KINDS = ("counter", "gauge", "histogram", "gauge_fn")
#: the formatted part of an f-string name -> the catalog's placeholder
PLACEHOLDERS = {"site": "<site>", "type(op).__name__": "<Op>"}


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


def registered_metrics() -> set[str]:
    names = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
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


def catalog_metrics(text: str) -> set[str]:
    """``layer.metric`` of every §7 catalog row: a row's first cell is
    the layer, its second the metrics in backticks (labels dropped)."""
    section = text.split("### Metric catalog", 1)[1].split("\n### ", 1)[0]
    names = set()
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 3 or not cells[0].startswith("`"):
            continue
        layer = cells[0].strip("`")
        for metric in re.findall(r"`([^`]+)`", cells[1]):
            names.add(f"{layer}.{metric.split('{', 1)[0]}")
    return names


def test_catalog_rows_equal_registered_metrics():
    catalog = catalog_metrics(INTERNALS.read_text(encoding="utf-8"))
    registered = registered_metrics()
    assert sorted(registered - catalog) == [], "metrics without a catalog row"
    assert sorted(catalog - registered) == [], "catalog rows without a metric"


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

