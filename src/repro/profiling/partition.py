"""Partition-once view materialization (the ScoreMatch hot path).

Every member view of a :class:`~repro.relational.views.ViewFamily` is a
disjoint partition of one base relation by one categorical attribute, so
evaluating each view's selection predicate over every sample row — a dict
build plus a condition call per (row, view) — repeats work the partition
already contains.  A :class:`PartitionIndex` makes one pass over the base
column and records, per categorical value, the (ascending) row indices of
its cell; any member view's rows are then a cell, or a sorted merge of
cells for merged groups, and its column samples come from plain list
indexing in base-row order — exactly the rows and order
``View.evaluate(base)`` would produce.

Row indices are held as numpy arrays: merged-group row sets come from one
C-level concatenate-and-sort (indices are unique, so the ascending order
is identical to a heap merge), presence filtering is a boolean gather over
the base relation's memoized per-column mask, and
:meth:`PartitionIndex.sampled_present_rows` pushes the deterministic
systematic thinning into *index space* so only the sampled rows are ever
gathered as Python objects — for a whole block of views in one
:meth:`PartitionIndex.gather_many` call.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from ..relational.instance import Relation

__all__ = ["PartitionIndex"]


class PartitionIndex:
    """One base relation partitioned by one categorical attribute.

    The index never copies row data: it stores row-index arrays per cell
    plus a memo of merged-group index arrays, and slices base columns on
    demand.  Row order within a cell (and within any merged group) is base
    order, so restricted columns are bit-identical to the columns of the
    materialized view.
    """

    def __init__(self, relation: Relation, attribute: str):
        self.relation = relation
        self.attribute = attribute
        # The columnar groupby hands back native index arrays zero-copy;
        # the tuple form (`cells`) is materialized lazily for callers and
        # pickling only.
        self._cell_arrays: dict[Any, np.ndarray] = dict(
            relation.partition_arrays(attribute))
        self._cells_memo: dict[Any, tuple[int, ...]] | None = None
        self._group_arrays: dict[frozenset, np.ndarray] = {}
        self._group_tuples: dict[frozenset, tuple[int, ...]] = {}
        self._present: dict[str, np.ndarray] = {}

    @property
    def cells(self) -> dict[Any, tuple[int, ...]]:
        """Row-index tuples per categorical value (base-row order)."""
        if self._cells_memo is None:
            self._cells_memo = {
                value: tuple(rows.tolist())
                for value, rows in self._cell_arrays.items()
            }
        return self._cells_memo

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle the partition itself (relation, attribute, cells); the
        per-cell numpy arrays and the merged-group / presence memos are
        derived lazily and rebuilt on load, so shipped indices stay small
        and behave identically."""
        return {"relation": self.relation, "attribute": self.attribute,
                "cells": self.cells}

    def __setstate__(self, state: dict) -> None:
        self.relation = state["relation"]
        self.attribute = state["attribute"]
        self._cells_memo = state["cells"]
        self._cell_arrays = {
            value: np.array(indices, dtype=np.intp)
            for value, indices in state["cells"].items()
        }
        self._group_arrays = {}
        self._group_tuples = {}
        self._present = {}

    # ------------------------------------------------------------------
    def group_row_array(self, group: Iterable[Any]) -> np.ndarray:
        """Base-order row indices of the view selecting *group*'s values."""
        key = group if isinstance(group, frozenset) else frozenset(group)
        rows = self._group_arrays.get(key)
        if rows is None:
            parts = [self._cell_arrays[v] for v in key
                     if v in self._cell_arrays]
            if not parts:
                rows = np.empty(0, dtype=np.intp)
            elif len(parts) == 1:
                rows = parts[0]
            else:
                # Indices are unique across disjoint cells, so sorting the
                # concatenation reproduces the ascending heap-merge order.
                rows = np.sort(np.concatenate(parts))
            self._group_arrays[key] = rows
        return rows

    def group_rows(self, group: Iterable[Any]) -> tuple[int, ...]:
        """:meth:`group_row_array` as a (memoized) tuple of Python ints."""
        key = group if isinstance(group, frozenset) else frozenset(group)
        rows = self._group_tuples.get(key)
        if rows is None:
            rows = tuple(self.group_row_array(key).tolist())
            self._group_tuples[key] = rows
        return rows

    def group_size(self, group: Iterable[Any]) -> int:
        """Number of sample rows in the group's view (``len(restricted)``)."""
        return len(self.group_row_array(group))

    def _presence(self, attr_name: str) -> np.ndarray:
        mask = self._present.get(attr_name)
        if mask is None:
            mask = self.relation.presence_array(attr_name)
            self._present[attr_name] = mask
        return mask

    def restricted_column(self, attr_name: str, group: Iterable[Any]) -> list[Any]:
        """The group view's column for *attr_name*, in base-row order —
        bit-identical to ``view.evaluate(base).column(attr_name)``."""
        store = self.relation.column_store(attr_name)
        return store.gather(self.group_row_array(group))

    def has_cell(self, value: Any) -> bool:
        """Whether *value* has a cell (it occurs in the column)."""
        return value in self._cell_arrays

    def present_rows(self, attr_name: str,
                     group: Iterable[Any]) -> np.ndarray:
        """Base-order rows of the group's view where *attr_name* is not
        missing."""
        rows = self.group_row_array(group)
        return rows[self._presence(attr_name)[rows]]

    def sampled_present_rows(self, attr_name: str, group: Iterable[Any],
                             limit: int | None) -> tuple[np.ndarray, bool]:
        """``(rows, thinned)``: :meth:`present_rows` systematically thinned
        to *limit* — the ``systematic_thin`` stride formula evaluated over
        the index array, so at most *limit* rows are kept."""
        present = self.present_rows(attr_name, group)
        n_clean = len(present)
        thinned = limit is not None and n_clean > limit
        if thinned:
            # present[int(i * step)] for i in range(limit) — the
            # systematic_thin formula, evaluated in float64 exactly as the
            # scalar helper does.
            step = n_clean / limit
            present = present[(np.arange(limit) * step).astype(np.intp)]
        return present, thinned

    def gather_many(self, attr_name: str,
                    row_arrays: Sequence[np.ndarray]) -> list[list[Any]]:
        """The *attr_name* values at each of *row_arrays*, read from the
        base column in one gather."""
        if not row_arrays:
            return []
        values = self.relation.column_store(attr_name).gather(
            np.concatenate(row_arrays))
        bounds = np.cumsum([0, *map(len, row_arrays)]).tolist()
        return [values[a:b] for a, b in zip(bounds, bounds[1:])]

    def restricted_present_column(self, attr_name: str,
                                  group: Iterable[Any]) -> list[Any]:
        """The group view's column with missing values already removed —
        bit-identical to filtering :meth:`restricted_column` through
        ``is_missing``, but masked in index space."""
        return self.gather_many(attr_name,
                                [self.present_rows(attr_name, group)])[0]

    @property
    def n_cells(self) -> int:
        return len(self._cell_arrays)

    def __repr__(self) -> str:
        return (f"<PartitionIndex {self.relation.name}.{self.attribute}: "
                f"{self.n_cells} cells>")
