"""In-memory instances of tables and schemas.

A :class:`Relation` pairs a :class:`~repro.relational.schema.TableSchema`
with column-oriented data.  The matcher and classifier layers consume bags of
column values (``v(R.a)`` in the paper); the mapping executor consumes rows.
Column orientation makes the former cheap while rows are materialized on
demand for the latter.

Columns are held in typed stores (:mod:`repro.relational.columns`): numpy
arrays plus native presence masks.  Every transformation shares stores
zero-copy where safe; ``column()`` always returns the exact Python value
objects that went in, so tokens, codecs and pickles see plain lists.

A :class:`Database` maps table names to relations and is what experiment
drivers pass around as "schema with associated sample data" (Figure 5).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import InstanceError, UnknownTableError
from .columns import ColumnStore, build_column
from .schema import Attribute, Schema, TableSchema
from .types import infer_column_type, is_missing

__all__ = ["Relation", "Database", "Row"]

#: A row is an immutable mapping from attribute name to value.
Row = Mapping[str, Any]


def _plain_values(values: Any) -> Sequence[Any]:
    """Unwrap stores/arrays into plain Python values for type inference."""
    if isinstance(values, ColumnStore):
        return values.tolist()
    if isinstance(values, np.ndarray):
        return values.tolist()
    return values


class Relation:
    """A table instance: schema + column-oriented data.

    Relations are immutable by convention; every transformation
    (:meth:`select`, :meth:`project`, :meth:`sample`) returns a new relation
    sharing column stores where safe.  The underlying numpy arrays are
    marked read-only, which is what lets a caller-supplied array be
    adopted without the defensive O(n) copy.
    """

    def __init__(self, schema: TableSchema,
                 columns: Mapping[str, Sequence[Any] | ColumnStore]):
        self.schema = schema
        missing = [a for a in schema.attribute_names if a not in columns]
        if missing:
            raise InstanceError(
                f"instance of {schema.name!r} missing columns {missing}"
            )
        lengths = {len(columns[a]) for a in schema.attribute_names}
        if len(lengths) > 1:
            raise InstanceError(
                f"ragged columns for {schema.name!r}: lengths {sorted(lengths)}"
            )
        self._stores: dict[str, ColumnStore] = {
            a: build_column(columns[a]) for a in schema.attribute_names
        }
        self._nrows = lengths.pop() if lengths else 0
        self._presence_masks: dict[str, list[bool]] = {}
        self._column_lists: dict[str, list[Any]] = {}

    def __getstate__(self) -> dict:
        """Pickle columns as plain lists without the presence-mask memo — the
        wire format every stored artifact uses, so existing stores stay
        loadable and equal relations pickle to equal bytes."""
        return {
            "schema": self.schema,
            "_columns": {a: self._stores[a].tolist()
                         for a in self.schema.attribute_names},
            "_nrows": self._nrows,
            "_presence_masks": {},
        }

    def __setstate__(self, state: dict) -> None:
        self.schema = state["schema"]
        self._stores = {a: build_column(values)
                        for a, values in state["_columns"].items()}
        self._nrows = state["_nrows"]
        self._presence_masks = {}
        self._column_lists = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, schema: TableSchema, rows: Iterable[Sequence[Any] | Row]) -> "Relation":
        """Build a relation from row tuples (schema order) or dict rows."""
        names = schema.attribute_names
        columns: dict[str, list[Any]] = {a: [] for a in names}
        for row in rows:
            if isinstance(row, Mapping):
                for a in names:
                    columns[a].append(row.get(a))
            else:
                if len(row) != len(names):
                    raise InstanceError(
                        f"row arity {len(row)} != schema arity {len(names)} "
                        f"for table {schema.name!r}"
                    )
                for a, value in zip(names, row):
                    columns[a].append(value)
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: TableSchema) -> "Relation":
        return cls(schema, {a: [] for a in schema.attribute_names})

    @classmethod
    def infer_schema(cls, name: str, columns: Mapping[str, Sequence[Any]],
                     *, is_view: bool = False) -> "Relation":
        """Build a relation inferring attribute types from the data."""
        attrs = [Attribute(a, infer_column_type(_plain_values(vals)))
                 for a, vals in columns.items()]
        return cls(TableSchema(name, attrs, is_view=is_view), columns)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return self._nrows

    def column_store(self, attribute: str) -> ColumnStore:
        """The typed store behind one column (shared, immutable)."""
        self.schema.attribute(attribute)  # validate reference
        return self._stores[attribute]

    def column(self, attribute: str) -> list[Any]:
        """The bag of values ``v(R.a)`` for an attribute (shared list —
        callers must not mutate)."""
        self.schema.attribute(attribute)  # validate reference
        values = self._column_lists.get(attribute)
        if values is None:
            values = self._column_lists[attribute] = \
                self._stores[attribute].tolist()
        return values

    def non_missing(self, attribute: str) -> list[Any]:
        """Column values with NULLs removed."""
        return self.column_store(attribute).present_values()

    def presence_mask(self, attribute: str) -> list[bool]:
        """Per-row ``not is_missing`` flags for one column, memoized.

        Row data is immutable after construction, so the mask is a pure
        per-column fact; the profiling fast path slices it per view cell
        instead of re-testing every cell value.  ``is_missing`` runs once
        per distinct value where the column is hashable.
        """
        mask = self._presence_masks.get(attribute)
        if mask is None:
            mask = self._presence_masks[attribute] = \
                self.column_store(attribute).presence().tolist()
        return mask

    def presence_array(self, attribute: str) -> np.ndarray:
        """Native bool array of :meth:`presence_mask` (read-only)."""
        return self.column_store(attribute).presence()

    def row(self, index: int) -> dict[str, Any]:
        return {a: self._stores[a].value_at(index)
                for a in self.schema.attribute_names}

    def rows(self) -> Iterator[dict[str, Any]]:
        for i in range(self._nrows):
            yield self.row(i)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return self.rows()

    def distinct(self, attribute: str) -> list[Any]:
        """Distinct non-missing, hashable values in first-seen order."""
        return list(self.value_counts(attribute))

    def partition_indices(self, attribute: str) -> dict[Any, list[int]]:
        """Row indices grouped by the values of one attribute, in row order.

        One pass over the column yields the partition a
        :class:`~repro.relational.views.ViewFamily` on *attribute* induces:
        every non-missing, hashable value maps to the (ascending) indices of
        the rows carrying it.  Missing values fall in no cell — mirroring
        ``Eq``/``In`` conditions, which never select missing rows — and
        unhashable values are skipped, since they cannot appear in a family
        group.
        """
        arrays = self.column_store(attribute).partition_arrays()
        if arrays is not None:
            return {value: rows.tolist() for value, rows in arrays.items()}
        return self._partition_indices_generic(attribute)

    def _partition_indices_generic(self, attribute: str) -> dict[Any, list[int]]:
        self.schema.attribute(attribute)  # validate reference
        cells: dict[Any, list[int]] = {}
        for i, value in enumerate(self.column(attribute)):
            if is_missing(value):
                continue
            try:
                cells.setdefault(value, []).append(i)
            except TypeError:
                continue
        return cells

    def partition_arrays(self, attribute: str) -> dict[Any, np.ndarray]:
        """:meth:`partition_indices` with cells as native index arrays —
        zero-copy from the column store's groupby where it has one."""
        arrays = self.column_store(attribute).partition_arrays()
        if arrays is not None:
            return arrays
        return {
            value: np.array(rows, dtype=np.intp)
            for value, rows in self._partition_indices_generic(attribute).items()
        }

    def value_counts(self, attribute: str) -> dict[Any, int]:
        """Rows per distinct non-missing value, in first-seen order.
        Unhashable values are skipped, as in :meth:`partition_indices`."""
        counts = self.column_store(attribute).counts_in_order()
        if counts is not None:
            return dict(counts)
        out: dict[Any, int] = {}
        for v in self.column(attribute):
            if is_missing(v):
                continue
            try:
                out[v] = out.get(v, 0) + 1
            except TypeError:
                continue
        return out

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def select(self, predicate: Callable[[Row], bool], *,
               name: str | None = None, is_view: bool = False) -> "Relation":
        """Rows satisfying *predicate* (a Python callable over dict rows)."""
        keep = [i for i in range(self._nrows) if predicate(self.row(i))]
        return self.take(keep, name=name, is_view=is_view)

    def take(self, indices: Sequence[int] | np.ndarray, *,
             name: str | None = None, is_view: bool = False) -> "Relation":
        """Rows at *indices*, in the order given (one C-level gather per
        typed column; no value objects are copied)."""
        schema = self.schema
        if name is not None or is_view != schema.is_view:
            schema = TableSchema(name or schema.name, schema.attributes,
                                 is_view=is_view or schema.is_view)
        rows = np.asarray(indices, dtype=np.intp)
        columns = {
            a: self._stores[a].take(rows)
            for a in self.schema.attribute_names
        }
        return Relation(schema, columns)

    def project(self, attributes: Sequence[str], *, name: str | None = None,
                is_view: bool | None = None) -> "Relation":
        schema = self.schema.project(attributes, new_name=name, is_view=is_view)
        return Relation(schema, {a: self._stores[a] for a in attributes})

    def rename(self, new_name: str) -> "Relation":
        return Relation(self.schema.rename(new_name), self._stores)

    def extend(self, attribute: Attribute, values: Sequence[Any]) -> "Relation":
        """A new relation with one extra column appended; existing columns
        are shared, not copied."""
        if len(values) != self._nrows:
            raise InstanceError(
                f"new column {attribute.name!r} has {len(values)} values, "
                f"table has {self._nrows} rows"
            )
        schema = TableSchema(
            self.schema.name,
            list(self.schema.attributes) + [attribute],
            is_view=self.schema.is_view,
        )
        columns: dict[str, Any] = dict(self._stores)
        columns[attribute.name] = values
        return Relation(schema, columns)

    def concat(self, other: "Relation") -> "Relation":
        """Union-all of two instances with identical attribute lists."""
        if other.schema.attribute_names != self.schema.attribute_names:
            raise InstanceError(
                f"cannot concat {self.name!r} and {other.name!r}: "
                "attribute lists differ"
            )
        columns: dict[str, Any] = {}
        for a in self.schema.attribute_names:
            joined = self._stores[a].concat(other._stores[a])
            if joined is None:  # mixed store kinds — rebuild from values
                joined = self._stores[a].tolist() + other._stores[a].tolist()
            columns[a] = joined
        return Relation(self.schema, columns)

    # ------------------------------------------------------------------
    # Sampling (train/test partitioning for ClusteredViewGen)
    # ------------------------------------------------------------------
    def sample(self, n: int, rng: np.random.Generator) -> "Relation":
        """Uniform sample without replacement of min(n, len) rows."""
        n = min(n, self._nrows)
        indices = rng.choice(self._nrows, size=n, replace=False)
        return self.take(indices.astype(np.intp))

    def shuffle(self, rng: np.random.Generator) -> "Relation":
        return self.take(rng.permutation(self._nrows))

    def split(self, fraction: float, rng: np.random.Generator) -> tuple["Relation", "Relation"]:
        """Random split into (first, second) with ``fraction`` of rows in the
        first part — the mutually-exclusive training/testing tuple sets of
        Algorithm ClusteredViewGen (Figure 6)."""
        if not 0.0 < fraction < 1.0:
            raise InstanceError(f"split fraction must be in (0,1), got {fraction}")
        indices = rng.permutation(self._nrows)
        cut = int(round(self._nrows * fraction))
        # Guarantee both sides non-empty whenever there are >= 2 rows.
        cut = max(1, min(self._nrows - 1, cut)) if self._nrows >= 2 else cut
        return self.take(indices[:cut]), self.take(indices[cut:])

    def __repr__(self) -> str:
        return f"<Relation {self.name}: {self._nrows} rows x {len(self.schema)} cols>"


class Database:
    """A schema together with an instance for each table."""

    def __init__(self, schema: Schema, relations: Iterable[Relation] = ()):
        self.schema = schema
        self._relations: dict[str, Relation] = {}
        for relation in relations:
            self.add(relation)

    @classmethod
    def from_relations(cls, name: str, relations: Iterable[Relation]) -> "Database":
        relations = list(relations)
        schema = Schema(name, [r.schema for r in relations])
        return cls(schema, relations)

    def add(self, relation: Relation) -> None:
        if relation.name not in self.schema:
            self.schema.add(relation.schema)
        self._relations[relation.name] = relation

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownTableError(self.schema.name, name) from None

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    @property
    def relations(self) -> tuple[Relation, ...]:
        return tuple(self._relations.values())

    @property
    def name(self) -> str:
        return self.schema.name

    def __repr__(self) -> str:
        parts = ", ".join(f"{r.name}[{len(r)}]" for r in self._relations.values())
        return f"<Database {self.name}: {parts}>"
