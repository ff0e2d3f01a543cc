"""Categorical-attribute detection (paper Section 2.1).

"We consider an attribute a to be categorical if more than 10% of the
values of a are associated with more than 1% of the tuples in our sample.
In the case of small samples, at least two values must be associated with
at least two tuples."

The candidate-condition space of every inference algorithm is built from
the categorical attributes ``Cat(R)``; classifiers are trained to predict
them from the non-categorical attributes ``NonCat(R)``.  The test's
thresholds are the paper's, fixed as the module constants below.

Near-key columns (ids, titles, prices) are most of a hub, and
:data:`MAX_CARDINALITY` rejects them: :func:`categorical_attributes`
checks it first, on the column store's distinct count, and builds
per-value counts only for the columns within it.  Distinct values are
counted as dict keys: missing values are left out, ``1``, ``1.0`` and
``True`` are one key, and unhashable values (which no view group can
hold) are skipped.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Sequence

from ..relational.instance import Relation
from ..relational.types import is_hashable, is_missing

__all__ = ["is_categorical", "categorical_attributes"]

#: More than this fraction of an attribute's distinct values must be
#: "heavy".
VALUE_FRACTION = 0.10
#: A value is heavy when it covers more than this fraction of the tuples.
TUPLE_FRACTION = 0.01
#: The small-sample floor: at least this many values must each cover at
#: least :data:`MIN_HEAVY_TUPLES` tuples.
MIN_HEAVY_VALUES = 2
MIN_HEAVY_TUPLES = 2
#: Practical guard against treating near-key attributes with a few
#: duplicates as categorical.
MAX_CARDINALITY = 50


def is_categorical(values: Sequence[Any]) -> bool:
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
    return _is_categorical_counts(counts)


def _is_categorical_counts(counts: dict[Any, int]) -> bool:
    """The categorical test over already-clean per-value counts."""
    total = sum(counts.values())
    if total == 0 or not 2 <= len(counts) <= MAX_CARDINALITY:
        return False
    heavy_threshold = max(MIN_HEAVY_TUPLES, math.ceil(TUPLE_FRACTION * total))
    heavy = sum(1 for n in counts.values() if n >= heavy_threshold)
    if heavy < MIN_HEAVY_VALUES:
        return False
    return heavy / len(counts) > VALUE_FRACTION


def categorical_attributes(relation: Relation) -> list[str]:
    """``Cat(R)``: names of the categorical attributes of a sample.

    A column with more distinct values than :data:`MAX_CARDINALITY`
    fails the test on the column store's distinct count alone; only the
    columns within it get per-value counts, from
    :meth:`Relation.value_counts` — the column store answers them from
    interned codes without materializing the column.
    """
    return [attribute.name for attribute in relation.schema
            if relation.column_store(attribute.name).distinct_count()
            <= MAX_CARDINALITY
            and _is_categorical_counts(relation.value_counts(attribute.name))]
