"""Unit tests for categorical-attribute detection (Section 2.1's 10%/1%
rule)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import categorical_attributes, is_categorical
from repro.relational import Attribute, DataType, Relation, TableSchema


class TestIsCategorical:
    def test_balanced_two_values(self):
        assert is_categorical(["a"] * 50 + ["b"] * 50)

    def test_all_unique_not_categorical(self):
        assert not is_categorical([f"v{i}" for i in range(100)])

    def test_single_value_not_categorical(self):
        assert not is_categorical(["only"] * 100)

    def test_small_sample_rule(self):
        # Two values, each covering two tuples: categorical even at n=4.
        assert is_categorical(["x", "x", "y", "y"])
        # One heavy value only: not categorical.
        assert not is_categorical(["x", "x", "y", "z"])

    def test_missing_values_ignored(self):
        assert is_categorical(["a", "a", None, "b", "b", ""])

    def test_empty_not_categorical(self):
        assert not is_categorical([])

    def test_max_cardinality_guard(self):
        # Every value covers 10 tuples, so all are heavy; only the number
        # of distinct values decides, against the cap of 50.
        assert is_categorical([f"v{i % 50}" for i in range(500)])
        assert not is_categorical([f"v{i % 51}" for i in range(510)])

    def test_heavy_fraction_threshold(self):
        # 2 heavy values among 30 distinct: below the 10% value fraction.
        values = ["a"] * 40 + ["b"] * 40 + [f"u{i}" for i in range(28)]
        assert not is_categorical(values)
        # 2 heavy among 10 distinct: 20% of values are heavy.
        values = ["a"] * 40 + ["b"] * 40 + [f"u{i}" for i in range(8)]
        assert is_categorical(values)

    def test_policy_tuple_fraction(self):
        # Above 200 tuples the 1% tuple fraction, not the two-tuple
        # floor, makes a value heavy: 10 of 1000 tuples.
        values = ["a"] * 820 + [f"u{i}" for i in range(20) for _ in range(9)]
        assert not is_categorical(values)  # only "a" is heavy
        values = ["a"] * 800 + [f"u{i}" for i in range(20) for _ in range(10)]
        assert is_categorical(values)  # 21 of 21 values are heavy


class TestRelationHelpers:
    def test_inventory_attributes(self, inv_relation):
        # A 5-row sample: type (1/2) and instock (Y/N) qualify; descr has
        # only one repeated value ('paperback' twice).
        cats = categorical_attributes(inv_relation)
        assert "type" in cats
        assert "instock" in cats
        assert "name" not in cats
        assert "code" not in cats

    def test_complement(self, inv_relation):
        """Cat(R) holds exactly the columns that pass the test on their
        bag of values; NonCat(R) is the rest, in schema order."""
        cats = categorical_attributes(inv_relation)
        names = inv_relation.schema.attribute_names
        assert cats == [a for a in names
                        if is_categorical(inv_relation.column(a))]
        assert [a for a in names if a not in cats] \
            == ["id", "name", "code", "descr"]

    def test_grades_exam_num(self, grades_workload):
        narrow = grades_workload.source.relation("grades_narrow")
        cats = categorical_attributes(narrow)
        assert "examNum" in cats
        assert "grade" not in cats
        assert "name" not in cats

    def test_retail_item_type(self, retail_workload):
        items = retail_workload.source.relation("items")
        cats = categorical_attributes(items)
        assert "ItemType" in cats
        assert "StockStatus" in cats
        assert "Name" not in cats


class TestUnhashableValues:
    """Unhashable values (JSON lists) fall in no view, so the categorical
    test and the per-value counts skip them."""

    def test_is_categorical_skips_lists(self):
        assert is_categorical(["a", "a", ["a"], "b", "b", [1]])
        assert not is_categorical([["a"], ["a"], ["b"], ["b"]])

    def test_value_counts_and_distinct_skip_lists(self):
        relation = Relation.infer_schema(
            "t", {"x": ["a", ["a"], "a", None, "b", [2], "b"]})
        assert relation.value_counts("x") == {"a": 2, "b": 2}
        assert relation.distinct("x") == ["a", "b"]
        assert categorical_attributes(relation) == ["x"]


# ---------------------------------------------------------------------------
# categorical_attributes (cardinality first, from the column store) against
# is_categorical over the plain value list
# ---------------------------------------------------------------------------
_PAD = st.sampled_from(["", " ", "\t"])
_MISSING_TEXTS = st.builds(lambda left, token, right: left + token + right,
                           _PAD, st.sampled_from(["", "null", "NA", "n/a",
                                                  "None"]), _PAD)
#: Value pools a column draws from; each gives a different column store:
#: int64 and float64 numeric columns, coded mixes whose uniques compare
#: equal across types, and object columns holding lists.
_POOLS = {
    "int": st.one_of(st.integers(-3, 3), st.none()),
    "float": st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0]),
                       st.none()),
    "mixed": st.one_of(st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False,
                                        "a", float("nan")]),
                       _MISSING_TEXTS, st.none()),
}
_POOLS["object"] = st.one_of(_POOLS["mixed"],
                             st.lists(st.integers(0, 1), max_size=2))


def _column(pool: str, n_rows: int):
    """*n_rows* values from *pool*; a ``"wide"`` column cycles through
    k distinct integers, k on either side of the cardinality cap."""
    if pool == "wide":
        return st.sampled_from([2, 5, 49, 50, 51, 55]).map(
            lambda k: [i % k for i in range(n_rows)])
    return st.lists(_POOLS[pool], min_size=n_rows, max_size=n_rows)


@st.composite
def relations(draw):
    """1-4 columns of 0-20 or 40-90 rows, each from one pool; sometimes
    a row subset, so coded columns hold uniques their rows no longer
    use."""
    n_rows = draw(st.one_of(st.integers(0, 20), st.integers(40, 90)))
    pools = draw(st.lists(st.sampled_from(sorted(_POOLS) + ["wide"]),
                          min_size=1, max_size=4))
    columns = {f"c{i}": draw(_column(pool, n_rows))
               for i, pool in enumerate(pools)}
    schema = TableSchema("t", [Attribute(name, DataType.STRING)
                               for name in columns])
    relation = Relation(schema, columns)
    if n_rows and draw(st.booleans()):
        relation = relation.take(draw(st.lists(
            st.integers(0, n_rows - 1), max_size=n_rows)))
    return relation


class TestCategoricalAttributesProperty:
    @settings(max_examples=400, deadline=None)
    @given(relation=relations())
    def test_equals_is_categorical_over_the_values(self, relation):
        assert categorical_attributes(relation) == [
            a for a in relation.schema.attribute_names
            if is_categorical(relation.column(a))]

    @settings(max_examples=200, deadline=None)
    @given(relation=relations())
    def test_distinct_count_equals_the_value_counts(self, relation):
        for attribute in relation.schema.attribute_names:
            assert (relation.column_store(attribute).distinct_count()
                    == len(relation.value_counts(attribute)))
