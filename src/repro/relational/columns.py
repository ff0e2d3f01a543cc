"""Typed, numpy-native column storage behind :class:`~repro.relational.instance.Relation`.

The matcher and classifier layers consume bags of column values
(``v(R.a)`` in the paper) at scales where a ``list[object]`` per column —
one boxed Python object per cell plus a ``list[bool]`` presence mask — is
the bottleneck, not the matchers.  This module stores each column once,
in a typed numpy representation, and shares it zero-copy through every
``select``/``project``/``sample`` slice, partition cell and profile
build:

* :class:`NumericColumn` — ``int64``/``float64`` values plus a native
  ``bool`` presence mask.  Used when every non-missing value is exactly a
  Python ``int`` (within int64 range) or exactly a ``float`` — the value
  lists the generators, CSV reader and JSON codec produce for numeric
  dtypes.  ``tolist`` round-trips bit-identically (``np.int64 -> int``,
  ``np.float64 -> float`` preserve the exact value).
* :class:`CodedColumn` — interned codes (``int32``) into a first-seen
  tuple of the original Python objects.  Used for categorical / string /
  bool / date columns and any hashable mix; repeated values share one
  object and one 4-byte code.  Interning keys on ``(type, value)`` so
  ``1``, ``1.0`` and ``True`` never collapse (and ``0.0``/``-0.0`` stay
  distinct), which keeps ``tolist`` exactly equal to the input.
* :class:`ObjectColumn` — an object-dtype array, the fallback for
  unhashable values.  Still numpy-indexed, so slices gather at C speed.
* :class:`ListColumn` — the legacy plain-list storage, kept as the
  config-switchable bit-identical equivalence reference (same pattern as
  ``use_profiling`` / ``use_batch_inference``).

Every store is immutable: numpy arrays are marked read-only, and every
transformation returns a new store sharing buffers where possible
(``project``/``rename`` share the store itself; ``take`` gathers with one
C-level fancy-index).  The active backend is process-wide
(:func:`set_default_backend`, env ``REPRO_RELATION_BACKEND``) with a
:func:`use_backend` context manager for equivalence tests.
"""

from __future__ import annotations

import contextlib
import math
import os
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .types import is_missing

__all__ = [
    "ColumnStore", "ListColumn", "NumericColumn", "CodedColumn",
    "ObjectColumn", "build_column", "default_backend",
    "set_default_backend", "use_backend", "BACKENDS",
]

#: Recognized storage backends: ``columnar`` (typed numpy stores) and
#: ``legacy`` (the original list-of-objects reference path).
BACKENDS = ("columnar", "legacy")

_DEFAULT_BACKEND = os.environ.get("REPRO_RELATION_BACKEND", "columnar")
if _DEFAULT_BACKEND not in BACKENDS:  # pragma: no cover - env misuse
    raise ValueError(
        f"REPRO_RELATION_BACKEND must be one of {BACKENDS}, "
        f"got {_DEFAULT_BACKEND!r}")


def default_backend() -> str:
    """The backend new relations are built with when none is passed."""
    return _DEFAULT_BACKEND


def set_default_backend(name: str) -> str:
    """Set the process-wide default backend; returns the previous one."""
    global _DEFAULT_BACKEND
    if name not in BACKENDS:
        raise ValueError(f"unknown relation backend {name!r}; "
                         f"expected one of {BACKENDS}")
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = name
    return previous


@contextlib.contextmanager
def use_backend(name: str):
    """Temporarily switch the default backend (equivalence tests)."""
    previous = set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class ColumnStore:
    """One immutable column: values, presence, and C-level slicing.

    Subclasses store the data differently but share one contract:
    :meth:`tolist` reproduces the constructor's value list exactly
    (same values, same order, equal objects), and every derived fact
    (presence, partitions, counts) matches what the legacy list path
    computes from that list.
    """

    __slots__ = ()

    n = 0

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[Any]:
        return iter(self.tolist())

    # -- required API -------------------------------------------------
    def tolist(self) -> list:
        raise NotImplementedError

    def presence(self) -> np.ndarray:
        """Native bool array of per-row ``not is_missing`` flags."""
        raise NotImplementedError

    def value_at(self, index: int) -> Any:
        raise NotImplementedError

    def gather(self, rows: np.ndarray) -> list:
        """Python values at *rows* (an integer index array), in order."""
        raise NotImplementedError

    def take(self, rows: np.ndarray) -> "ColumnStore":
        """A new store of the rows at *rows*, in the order given."""
        raise NotImplementedError

    def concat(self, other: "ColumnStore") -> "ColumnStore | None":
        """Union-all with *other*, or None when the pair cannot be
        concatenated natively (the caller falls back to lists)."""
        return None

    # -- optional fast paths (None -> generic list fallback) ----------
    def present_values(self) -> list:
        """Non-missing values in row order (the ``non_missing`` bag)."""
        mask = self.presence()
        return self.gather(np.flatnonzero(mask))

    def partition_arrays(self) -> "dict[Any, np.ndarray] | None":
        """Row indices per distinct non-missing value (first-seen order,
        ascending indices) — or None for the generic fallback."""
        return None

    def counts_in_order(self) -> "list[tuple[Any, int]] | None":
        """(value, count) for distinct non-missing values in first-seen
        order, merging equal-but-differently-typed values exactly as a
        dict keyed by value would — or None for the generic fallback."""
        return None

    @property
    def nbytes(self) -> int:
        """Approximate storage footprint of the typed arrays."""
        return 0


class ListColumn(ColumnStore):
    """Legacy storage: the column as a plain ``list[object]``."""

    __slots__ = ("values", "n")

    def __init__(self, values: list):
        self.values = values
        self.n = len(values)

    def tolist(self) -> list:
        return list(self.values)

    def presence_list(self) -> list:
        """The legacy presence computation, kept verbatim: ``is_missing``
        runs once per distinct value where the column is hashable."""
        values = self.values
        try:
            missing = {v for v in set(values) if is_missing(v)}
            return ([True] * len(values) if not missing
                    else [v not in missing for v in values])
        except TypeError:  # unhashable values — per-row fallback
            return [not is_missing(v) for v in values]

    def presence(self) -> np.ndarray:
        return _frozen(np.array(self.presence_list(), dtype=bool))

    def value_at(self, index: int) -> Any:
        return self.values[index]

    def gather(self, rows: np.ndarray) -> list:
        values = self.values
        return [values[i] for i in rows.tolist()]

    def take(self, rows: np.ndarray) -> "ListColumn":
        values = self.values
        return ListColumn([values[i] for i in rows.tolist()])

    def concat(self, other: ColumnStore) -> "ColumnStore | None":
        if isinstance(other, ListColumn):
            return ListColumn(self.values + other.values)
        return None


class NumericColumn(ColumnStore):
    """``int64``/``float64`` values with a native presence mask.

    Missing cells were ``None`` in the source list (the only missing
    representation the numeric builders accept) and hold 0 / NaN in the
    array; :meth:`tolist` restores ``None`` from the mask.
    """

    __slots__ = ("data", "mask", "n", "_all_present")

    def __init__(self, data: np.ndarray, mask: np.ndarray):
        self.data = _frozen(data)
        self.mask = _frozen(mask)
        self.n = len(data)
        self._all_present = bool(mask.all())

    def tolist(self) -> list:
        if self._all_present:
            return self.data.tolist()
        boxed = self.data.astype(object)
        boxed[~self.mask] = None
        return boxed.tolist()

    def presence(self) -> np.ndarray:
        return self.mask

    def value_at(self, index: int) -> Any:
        if not self._all_present and not self.mask[index]:
            return None
        return self.data[index].item()

    def gather(self, rows: np.ndarray) -> list:
        if self._all_present:
            return self.data[rows].tolist()
        boxed = self.data[rows].astype(object)
        boxed[~self.mask[rows]] = None
        return boxed.tolist()

    def present_values(self) -> list:
        if self._all_present:
            return self.data.tolist()
        return self.data[self.mask].tolist()

    def take(self, rows: np.ndarray) -> "NumericColumn":
        return NumericColumn(self.data[rows], self.mask[rows])

    def concat(self, other: ColumnStore) -> "ColumnStore | None":
        if (isinstance(other, NumericColumn)
                and other.data.dtype == self.data.dtype):
            return NumericColumn(
                np.concatenate([self.data, other.data]),
                np.concatenate([self.mask, other.mask]))
        return None

    def partition_arrays(self) -> "dict[Any, np.ndarray] | None":
        # Grouping floats would have to reproduce dict-key subtleties
        # (0.0 vs -0.0 first-seen representatives); integers have exact
        # equality, so only they take the vectorized groupby.
        if self.data.dtype != np.int64:
            return None
        present = np.flatnonzero(self.mask)
        if not len(present):
            return {}
        values = self.data[present]
        uniques, first, inverse = np.unique(
            values, return_index=True, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        bounds = np.flatnonzero(np.diff(inverse[order])) + 1
        chunks = np.split(order, bounds)
        cells: dict[Any, np.ndarray] = {}
        for j in np.argsort(first, kind="stable").tolist():
            cells[uniques[j].item()] = _frozen(present[chunks[j]])
        return cells

    def counts_in_order(self) -> "list[tuple[Any, int]] | None":
        if self.data.dtype != np.int64:
            return None
        values = self.data[self.mask]
        if not len(values):
            return []
        uniques, first, counts = np.unique(
            values, return_index=True, return_counts=True)
        order = np.argsort(first, kind="stable").tolist()
        return [(uniques[j].item(), int(counts[j])) for j in order]

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes + self.mask.nbytes)


class CodedColumn(ColumnStore):
    """Interned-code storage: ``int32`` codes into first-seen uniques.

    ``uniques`` holds the original Python objects; ``codes[i]`` is the
    row's index into it.  The presence mask is derived by running
    ``is_missing`` once per unique.  Slices share ``uniques`` — a taken
    or partitioned column never re-interns.
    """

    __slots__ = ("codes", "uniques", "_uniq_arr", "_uniq_missing", "n",
                 "_mask")

    def __init__(self, codes: np.ndarray, uniques: tuple,
                 uniq_arr: np.ndarray | None = None,
                 uniq_missing: np.ndarray | None = None):
        self.codes = _frozen(codes)
        self.uniques = uniques
        if uniq_arr is None:
            uniq_arr = np.empty(len(uniques), dtype=object)
            for i, value in enumerate(uniques):
                uniq_arr[i] = value
            _frozen(uniq_arr)
        self._uniq_arr = uniq_arr
        if uniq_missing is None:
            uniq_missing = _frozen(np.fromiter(
                (is_missing(u) for u in uniques), dtype=bool,
                count=len(uniques)))
        self._uniq_missing = uniq_missing
        self.n = len(codes)
        self._mask: np.ndarray | None = None

    def tolist(self) -> list:
        return self._uniq_arr[self.codes].tolist()

    def presence(self) -> np.ndarray:
        if self._mask is None:
            if not self._uniq_missing.any():
                mask = np.ones(self.n, dtype=bool)
            else:
                mask = ~self._uniq_missing[self.codes]
            self._mask = _frozen(mask)
        return self._mask

    def value_at(self, index: int) -> Any:
        return self.uniques[self.codes[index]]

    def gather(self, rows: np.ndarray) -> list:
        return self._uniq_arr[self.codes[rows]].tolist()

    def present_values(self) -> list:
        if not self._uniq_missing.any():
            return self.tolist()
        return self._uniq_arr[self.codes[self.presence()]].tolist()

    def take(self, rows: np.ndarray) -> "CodedColumn":
        return CodedColumn(self.codes[rows], self.uniques, self._uniq_arr,
                           self._uniq_missing)

    def concat(self, other: ColumnStore) -> "ColumnStore | None":
        if not isinstance(other, CodedColumn):
            return None
        interned = {_intern_key(u): code
                    for code, u in enumerate(self.uniques)}
        uniques = list(self.uniques)
        remap = np.empty(len(other.uniques), dtype=np.int32)
        for code, value in enumerate(other.uniques):
            key = _intern_key(value)
            mapped = interned.get(key)
            if mapped is None:
                mapped = interned[key] = len(uniques)
                uniques.append(value)
            remap[code] = mapped
        codes = np.concatenate([self.codes, remap[other.codes]])
        return CodedColumn(codes, tuple(uniques))

    def _first_seen_codes(self) -> "tuple[np.ndarray, np.ndarray]":
        """(codes present in this slice, index of each code's first row),
        ordered by first appearance — slices may reorder rows, so code
        order alone is not first-seen order."""
        codes_present = self.codes[self.presence()]
        uniq_codes, first = np.unique(codes_present, return_index=True)
        order = np.argsort(first, kind="stable")
        return uniq_codes[order], first[order]

    def _has_cross_type_equal_uniques(self) -> bool:
        """True when two uniques compare equal across types (``1`` vs
        ``True``) — the generic dict-keyed path must handle those to keep
        first-seen key objects identical to the legacy backend."""
        seen: dict[Any, None] = {}
        for value in self.uniques:
            seen.setdefault(value, None)
        return len(seen) < len(self.uniques)

    def partition_arrays(self) -> "dict[Any, np.ndarray] | None":
        if self._has_cross_type_equal_uniques():
            return None
        mask = self.presence()
        present = np.flatnonzero(mask)
        if not len(present):
            return {}
        codes_present = self.codes[present]
        order = np.argsort(codes_present, kind="stable")
        sorted_codes = codes_present[order]
        bounds = np.flatnonzero(np.diff(sorted_codes)) + 1
        chunks = np.split(order, bounds)
        # Chunks are keyed by ascending code; report them in first-seen
        # row order (each chunk's first element is its first occurrence).
        chunk_codes = sorted_codes[np.concatenate(
            ([0], bounds))] if len(bounds) else sorted_codes[:1]
        firsts = [chunk[0] for chunk in chunks]
        cells: dict[Any, np.ndarray] = {}
        for j in np.argsort(firsts, kind="stable").tolist():
            value = self.uniques[chunk_codes[j]]
            cells[value] = _frozen(present[chunks[j]])
        return cells

    def counts_in_order(self) -> "list[tuple[Any, int]] | None":
        codes_present = self.codes[self.presence()]
        if not len(codes_present):
            return []
        counts = np.bincount(codes_present, minlength=len(self.uniques))
        uniq_codes, _ = self._first_seen_codes()
        # Merge equal-but-differently-typed uniques exactly as a plain
        # dict keyed by value does: first-seen key object wins.
        merged: dict[Any, int] = {}
        for code in uniq_codes.tolist():
            value = self.uniques[code]
            merged[value] = merged.get(value, 0) + int(counts[code])
        return list(merged.items())

    @property
    def nbytes(self) -> int:
        return int(self.codes.nbytes)


class ObjectColumn(ColumnStore):
    """Fallback storage for unhashable values: an object-dtype array."""

    __slots__ = ("data", "n", "_mask")

    def __init__(self, data: np.ndarray):
        self.data = _frozen(data)
        self.n = len(data)
        self._mask: np.ndarray | None = None

    def tolist(self) -> list:
        return self.data.tolist()

    def presence(self) -> np.ndarray:
        if self._mask is None:
            self._mask = _frozen(np.fromiter(
                (not is_missing(v) for v in self.data), dtype=bool,
                count=self.n))
        return self._mask

    def value_at(self, index: int) -> Any:
        return self.data[index]

    def gather(self, rows: np.ndarray) -> list:
        return self.data[rows].tolist()

    def take(self, rows: np.ndarray) -> "ObjectColumn":
        return ObjectColumn(self.data[rows])

    def concat(self, other: ColumnStore) -> "ColumnStore | None":
        if isinstance(other, ObjectColumn):
            return ObjectColumn(np.concatenate([self.data, other.data]))
        return None

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)


def _intern_key(value: Any) -> Any:
    """Interning key keeping ``1``/``1.0``/``True`` (and ``0.0``/``-0.0``)
    distinct, so coded columns round-trip the exact original objects."""
    cls = value.__class__
    if cls is float and value == 0.0:
        return (cls, value, math.copysign(1.0, value))
    return (cls, value)


def _build_object(values: Sequence[Any]) -> ObjectColumn:
    data = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        data[i] = value
    return ObjectColumn(data)


def _build_coded(values: Sequence[Any]) -> ColumnStore:
    interned: dict[Any, int] = {}
    uniques: list = []
    codes = np.empty(len(values), dtype=np.int32)
    try:
        for i, value in enumerate(values):
            key = _intern_key(value)
            code = interned.get(key)
            if code is None:
                code = interned[key] = len(uniques)
                uniques.append(value)
            codes[i] = code
    except TypeError:  # unhashable value — object fallback
        return _build_object(values)
    return CodedColumn(codes, tuple(uniques))


def _build_typed(values: Sequence[Any]) -> ColumnStore:
    """Choose the typed store for *values* (one classification pass)."""
    saw_int = saw_float = saw_other = False
    n_none = 0
    for value in values:
        cls = value.__class__
        if cls is int:
            saw_int = True
        elif cls is float:
            if value != value:  # NaN is missing-but-not-None: keep exact
                saw_other = True
                break
            saw_float = True
        elif value is None:
            n_none += 1
        else:
            saw_other = True
            break
    if not saw_other and saw_int != saw_float:
        n = len(values)
        try:
            if saw_int and not n_none:
                data = np.fromiter(values, dtype=np.int64, count=n)
                return NumericColumn(data, np.ones(n, dtype=bool))
            if saw_int:
                mask = np.fromiter((v is not None for v in values),
                                   dtype=bool, count=n)
                data = np.fromiter(
                    (v if v is not None else 0 for v in values),
                    dtype=np.int64, count=n)
                return NumericColumn(data, mask)
            mask = np.fromiter((v is not None for v in values),
                               dtype=bool, count=n)
            data = np.fromiter(
                (v if v is not None else math.nan for v in values),
                dtype=np.float64, count=n)
            return NumericColumn(data, mask)
        except (OverflowError, ValueError):
            pass  # out-of-range int — coded keeps the exact objects
    return _build_coded(values)


def _wrap_array(array: np.ndarray) -> ColumnStore:
    """Wrap an already-typed numpy array without copying its buffer."""
    if array.dtype == np.int64:
        return NumericColumn(array, np.ones(len(array), dtype=bool))
    if array.dtype == np.float64:
        return NumericColumn(array, ~np.isnan(array))
    if array.dtype == object:
        return _build_typed(array.tolist())
    return _build_typed(array.tolist())


def build_column(values: Any, *, backend: str | None = None,
                 copy: bool = True) -> ColumnStore:
    """Build (or pass through) the column store for *values*.

    An existing :class:`ColumnStore` is shared as-is (zero-copy — this is
    how ``project``/``take``/``concat`` avoid the per-transformation deep
    copy); a numpy ``int64``/``float64`` array is wrapped around its own
    buffer, which is marked read-only to keep the relation's immutability
    convention; any other sequence is scanned once into the best typed
    representation (or copied into a :class:`ListColumn` under the legacy
    backend — pass ``copy=False`` for a list the caller hands over).
    """
    if isinstance(values, ColumnStore):
        return values
    backend = backend or _DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(f"unknown relation backend {backend!r}; "
                         f"expected one of {BACKENDS}")
    if isinstance(values, np.ndarray):
        if backend == "legacy":
            return ListColumn(values.tolist())
        return _wrap_array(values)
    if backend == "legacy":
        if isinstance(values, list) and not copy:
            return ListColumn(values)
        return ListColumn(list(values))
    if not isinstance(values, (list, tuple)):
        values = list(values)
    return _build_typed(values)
