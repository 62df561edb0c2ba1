"""The knob catalog names exactly the knobs that exist.

INTERNALS §6 has one row per field of the five user-facing config
dataclasses (nested configs excluded). A knob deleted without its row,
or added without one, fails here.
"""

import dataclasses
import pathlib
import re

from repro.core.config import ShardConfig, VeriDBConfig
from repro.service.config import ServiceConfig, TenantQuota
from repro.storage.config import StorageConfig

INTERNALS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "INTERNALS.md"
CONFIGS = (StorageConfig, VeriDBConfig, ShardConfig, ServiceConfig, TenantQuota)


def config_knobs() -> set[tuple[str, str]]:
    knobs = set()
    for cls in CONFIGS:
        defaults = cls()
        for field in dataclasses.fields(cls):
            if not dataclasses.is_dataclass(getattr(defaults, field.name)):
                knobs.add((cls.__name__, field.name))
    return knobs


def catalog_knobs(text: str) -> set[tuple[str, str]]:
    """(config, knob) pairs of the section 6 table: a row's first cell
    names its knobs in backticks, its second cell the config class."""
    section = text.split("## 6. Knobs", 1)[1].split("\n## 7.", 1)[0]
    knobs = set()
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 2 or not cells[1].startswith("`"):
            continue
        (config,) = re.findall(r"`(\w+)`", cells[1])
        knobs.update((config, name) for name in re.findall(r"`(\w+)`", cells[0]))
    return knobs


def test_catalog_rows_equal_config_fields():
    catalog = catalog_knobs(INTERNALS.read_text())
    knobs = config_knobs()
    assert sorted(knobs - catalog) == [], "knobs without a catalog row"
    assert sorted(catalog - knobs) == [], "catalog rows without a knob"


def test_a_stale_row_is_caught():
    table = (
        "## 6. Knobs\n| knob | config | effect | measured in |\n|---|---|---|---|\n"
        "| `cache_bytes` / `gone_knob` | `StorageConfig` | x | — |\n## 7. Next\n"
    )
    assert catalog_knobs(table) == {
        ("StorageConfig", "cache_bytes"),
        ("StorageConfig", "gone_knob"),
    }
