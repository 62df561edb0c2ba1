"""Table schemas.

A :class:`Schema` is an ordered list of typed columns with one primary
key and any number of additional *chain columns* — the columns that get a
``(key, nKey)`` chain in the extended storage model (Definition 5.2) and
therefore support verifiable point and range access. The primary key is
always chain 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.catalog.types import ColumnType, DecimalType, type_from_name
from repro.errors import CatalogError, PlanningError


@dataclass(frozen=True)
class Column:
    """One named, typed column."""

    name: str
    type: ColumnType
    nullable: bool = True

    def validate(self, value: Any) -> Any:
        if value is None:
            if not self.nullable:
                raise CatalogError(f"column {self.name!r} is not nullable")
            return None
        return self.type.validate(value)


@dataclass
class Schema:
    """Ordered columns plus key-chain declarations.

    Args:
        columns: the table's columns in order.
        primary_key: name of the primary-key column (not nullable).
        chain_columns: extra columns that should carry verifiable
            ``(key, nKey)`` chains; order is preserved. The primary key
            is implicitly the first chain and need not be listed.
    """

    columns: Sequence[Column]
    primary_key: str
    chain_columns: Sequence[str] = field(default_factory=tuple)

    def __post_init__(self):
        self.columns = tuple(self.columns)
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError("duplicate column names in schema")
        if self.primary_key not in names:
            raise CatalogError(f"primary key {self.primary_key!r} is not a column")
        chains = [self.primary_key]
        for name in self.chain_columns:
            if name not in names:
                raise CatalogError(f"chain column {name!r} is not a column")
            if name in chains:
                raise CatalogError(f"chain column {name!r} listed twice")
            chains.append(name)
        self.chain_columns = tuple(chains)
        self._index = {c.name: i for i, c in enumerate(self.columns)}
        pk_column = self.columns[self._index[self.primary_key]]
        if pk_column.nullable:
            # primary keys are implicitly NOT NULL
            object.__setattr__(pk_column, "nullable", False)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CatalogError(f"unknown column {name!r}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        return name in self._index

    @property
    def primary_key_index(self) -> int:
        return self.column_index(self.primary_key)

    @property
    def chains(self) -> tuple[str, ...]:
        """All chained columns: primary key first, then declared chains."""
        return tuple(self.chain_columns)

    def chain_id(self, column_name: str) -> int | None:
        """Index of ``column_name`` in the chain list, or None."""
        try:
            return self.chain_columns.index(column_name)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # row handling
    # ------------------------------------------------------------------
    def validate_row(self, row: Iterable[Any]) -> tuple:
        """Validate and normalize a full row (positional)."""
        values = tuple(row)
        if len(values) != len(self.columns):
            raise CatalogError(
                f"row has {len(values)} values, schema has {len(self.columns)}"
            )
        return tuple(
            column.validate(value) for column, value in zip(self.columns, values)
        )

    def row_from_dict(self, mapping: dict) -> tuple:
        """Build a positional row from a name→value mapping."""
        unknown = set(mapping) - set(self.column_names)
        if unknown:
            raise CatalogError(f"unknown columns {sorted(unknown)}")
        return self.validate_row(
            tuple(mapping.get(name) for name in self.column_names)
        )

    def __len__(self) -> int:
        return len(self.columns)


def schema_from_ddl(stmt) -> Schema:
    """The schema a parsed ``CREATE TABLE`` statement declares."""
    if stmt.primary_key is None:
        raise PlanningError(
            f"table {stmt.name!r} needs a PRIMARY KEY (the chain-0 key)"
        )
    return Schema(
        columns=[
            Column(
                definition.name,
                type_from_name(definition.type_name),
                nullable=not definition.not_null,
            )
            for definition in stmt.columns
        ],
        primary_key=stmt.primary_key,
        chain_columns=tuple(stmt.chain_columns),
    )


# ----------------------------------------------------------------------
# serialization (shared by snapshot persistence and the write-ahead log)
# ----------------------------------------------------------------------
def schema_to_dict(schema: Schema) -> dict:
    """JSON-safe encoding of a schema (inverse of :func:`schema_from_dict`)."""
    return {
        "columns": [
            {
                "name": column.name,
                "type": column.type.name,
                "scale": getattr(column.type, "scale", None),
                "nullable": column.nullable,
            }
            for column in schema.columns
        ],
        "primary_key": schema.primary_key,
        # chains[0] is the implicit primary key; persist only the extras
        "chain_columns": list(schema.chains[1:]),
    }


def schema_from_dict(payload: dict) -> Schema:
    """Rebuild a schema encoded by :func:`schema_to_dict`."""
    columns = []
    for entry in payload["columns"]:
        if entry["type"] == "DECIMAL" and entry.get("scale") is not None:
            column_type = DecimalType(scale=entry["scale"])
        else:
            column_type = type_from_name(entry["type"])
        columns.append(Column(entry["name"], column_type, entry["nullable"]))
    return Schema(
        columns=columns,
        primary_key=payload["primary_key"],
        chain_columns=tuple(payload["chain_columns"]),
    )
