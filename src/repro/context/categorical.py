"""Categorical-attribute detection (paper Section 2.1).

"We consider an attribute a to be categorical if more than 10% of the
values of a are associated with more than 1% of the tuples in our sample.
In the case of small samples, at least two values must be associated with
at least two tuples."

The candidate-condition space of every inference algorithm is built from
the categorical attributes ``Cat(R)``; classifiers are trained to predict
them from the non-categorical attributes ``NonCat(R)``.

Near-key columns (ids, titles, prices) are most of a hub, and the policy's
``max_cardinality`` rejects them: :func:`categorical_attributes` checks it
first, on the column store's distinct count, and builds per-value counts
only for the columns within it.  Distinct values are counted as dict
keys: missing values are left out, ``1``, ``1.0`` and ``True`` are one
key, and unhashable values (which no view group can hold) are skipped.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from typing import Any, Sequence

from ..relational.instance import Relation
from ..relational.types import is_hashable, is_missing

__all__ = ["CategoricalPolicy", "is_categorical", "categorical_attributes",
           "non_categorical_attributes"]


@dataclasses.dataclass(frozen=True)
class CategoricalPolicy:
    """Thresholds of the categorical test.

    Parameters
    ----------
    value_fraction:
        Fraction of distinct values that must be "heavy" (default 10%).
    tuple_fraction:
        A value is heavy when it covers more than this fraction of tuples
        (default 1%).
    min_heavy_values:
        The small-sample floor: at least this many values must each cover
        at least ``min_heavy_tuples`` tuples (default 2 and 2).
    max_cardinality:
        Practical guard against treating near-key attributes with a few
        duplicates as categorical; None disables the guard.
    """

    value_fraction: float = 0.10
    tuple_fraction: float = 0.01
    min_heavy_values: int = 2
    min_heavy_tuples: int = 2
    max_cardinality: int | None = 50


def is_categorical(values: Sequence[Any],
                   policy: CategoricalPolicy | None = None) -> bool:
    """Apply the categorical test to a bag of attribute values.

    Counting runs at C speed over the raw bag; the ``is_missing``
    predicate then visits each *distinct* value once (it is a pure
    function of the value), instead of once per row.  Unhashable values
    are skipped: no view family can hold them.
    """
    try:
        counts = dict(Counter(values))
    except TypeError:
        counts = dict(Counter(filter(is_hashable, values)))
    for value in [v for v in counts if is_missing(v)]:
        del counts[value]
    return _is_categorical_counts(counts, policy or CategoricalPolicy())


def _is_categorical_counts(counts: dict[Any, int],
                           policy: CategoricalPolicy) -> bool:
    """The categorical test over already-clean per-value counts."""
    total = sum(counts.values())
    if total == 0 or len(counts) < 2:
        return False
    if policy.max_cardinality is not None and len(counts) > policy.max_cardinality:
        return False
    heavy_threshold = max(policy.min_heavy_tuples,
                          math.ceil(policy.tuple_fraction * total))
    heavy = sum(1 for n in counts.values() if n >= heavy_threshold)
    if heavy < policy.min_heavy_values:
        return False
    return heavy / len(counts) > policy.value_fraction


def _is_categorical_column(relation: Relation, attribute: str,
                           policy: CategoricalPolicy) -> bool:
    """The categorical test of one column of *relation*.  A column with
    more distinct values than ``max_cardinality`` fails it on the column
    store's distinct count alone, before any per-value counts are
    built."""
    if (policy.max_cardinality is not None
            and relation.column_store(attribute).distinct_count()
            > policy.max_cardinality):
        return False
    return _is_categorical_counts(relation.value_counts(attribute), policy)


def categorical_attributes(relation: Relation,
                           policy: CategoricalPolicy | None = None) -> list[str]:
    """``Cat(R)``: names of the categorical attributes of a sample.

    Counts come from :meth:`Relation.value_counts` — the column store
    answers them from interned codes without materializing the column —
    and only for columns within the policy's ``max_cardinality``.
    """
    policy = policy or CategoricalPolicy()
    return [attribute.name for attribute in relation.schema
            if _is_categorical_column(relation, attribute.name, policy)]


def non_categorical_attributes(relation: Relation,
                               policy: CategoricalPolicy | None = None) -> list[str]:
    """``NonCat(R)``: the complement of :func:`categorical_attributes`."""
    categorical = set(categorical_attributes(relation, policy))
    return [a.name for a in relation.schema if a.name not in categorical]
