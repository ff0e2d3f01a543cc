"""Unit tests for the typed column stores (repro.relational.columns).

The stores' contract is *bit-identity* with the plain value list they
were built from: ``tolist`` must hand back the exact Python objects that
went in (int stays int, None never becomes NaN, a NaN value never
becomes None, -0.0 keeps its sign), and every derived answer (presence,
partitions, counts) must match a plain Python loop over that list
element for element.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context.categorical import categorical_attributes
from repro.datagen import build_scenario, get_scenario, scenario_names
from repro.profiling import PartitionIndex
from repro.relational import (CodedColumn, Database, NumericColumn,
                              ObjectColumn, Relation, build_column,
                              is_missing)
from repro.relational.jsonio import relation_from_dict, relation_to_dict
from repro.store.tokens import database_token

# Value bags exercising every classification edge the builder handles.
EDGE_BAGS = {
    "ints": [3, 1, 2, 1, None, 3],
    "floats": [1.5, -2.25, None, 1.5, 0.0],
    "negative_zero": [0.0, -0.0, 0.0, None],
    "mixed_int_float": [1, 2.5, 3, None],
    "nan": [1.0, float("nan"), 2.0, None],
    "strings": ["b", "a", None, "b", "ünicøde ☃"],
    "bools": [True, False, None, True],
    "cross_type": [1, True, 1.0, 0, False, None],
    "all_none": [None, None, None],
    "empty": [],
    "big_int": [2**80, 1, None],
    "unhashable": [[1, 2], None, [3]],
}


def identical(actual: list, expected: list) -> bool:
    """Element-wise bit-identity: equal type and equal repr."""
    if len(actual) != len(expected):
        return False
    return all(type(a) is type(b) and repr(a) == repr(b)
               for a, b in zip(actual, expected))


def plain_cells(values: list) -> dict:
    """Row indices per non-missing value, keyed as a dict loop keys them
    (first-seen key object, ``1 == 1.0 == True`` merged)."""
    cells: dict = {}
    for i, value in enumerate(values):
        if not is_missing(value):
            cells.setdefault(value, []).append(i)
    return cells


def plain_counts(values: list) -> dict:
    """Occurrences per non-missing value, by the same dict loop."""
    counts: dict = {}
    for value in values:
        if not is_missing(value):
            counts[value] = counts.get(value, 0) + 1
    return counts


def same_dict(actual: dict, expected: dict) -> bool:
    """Equal items in equal order, with bit-identical key objects."""
    return (identical(list(actual), list(expected))
            and list(actual.values()) == list(expected.values()))


class TestBuilderClassification:
    def test_ints_numeric(self):
        store = build_column(EDGE_BAGS["ints"])
        assert isinstance(store, NumericColumn)
        assert store.data.dtype == np.int64

    def test_floats_numeric(self):
        store = build_column(EDGE_BAGS["floats"])
        assert isinstance(store, NumericColumn)
        assert store.data.dtype == np.float64

    def test_mixed_int_float_coded(self):
        # int/float mixing would lose the int-ness of 1 vs 1.0; the
        # builder refuses the numeric path.
        assert isinstance(build_column(EDGE_BAGS["mixed_int_float"]),
                          CodedColumn)

    def test_nan_value_coded(self):
        # A NaN *value* must stay distinct from None *missing*; float64
        # storage cannot represent both, so the bag is interned instead.
        assert isinstance(build_column(EDGE_BAGS["nan"]), CodedColumn)

    def test_strings_coded(self):
        assert isinstance(build_column(EDGE_BAGS["strings"]), CodedColumn)

    def test_bools_coded(self):
        assert isinstance(build_column(EDGE_BAGS["bools"]), CodedColumn)

    def test_big_int_falls_back(self):
        # 2**80 overflows int64; the builder degrades to interning.
        assert isinstance(build_column(EDGE_BAGS["big_int"]), CodedColumn)

    def test_unhashable_object_store(self):
        assert isinstance(build_column(EDGE_BAGS["unhashable"]),
                          ObjectColumn)


class TestRoundTrip:
    @pytest.mark.parametrize("bag", sorted(EDGE_BAGS))
    def test_tolist_bit_identical(self, bag):
        values = EDGE_BAGS[bag]
        store = build_column(values)
        assert identical(store.tolist(), values)

    @pytest.mark.parametrize("bag", sorted(EDGE_BAGS))
    def test_value_at_matches(self, bag):
        values = EDGE_BAGS[bag]
        store = build_column(values)
        got = [store.value_at(i) for i in range(len(values))]
        assert identical(got, values)

    @pytest.mark.parametrize("bag", sorted(EDGE_BAGS))
    def test_presence_matches_legacy(self, bag):
        values = EDGE_BAGS[bag]
        store = build_column(values)
        assert store.presence().tolist() == [not is_missing(v)
                                             for v in values]

    def test_nan_round_trip_is_nan_not_none(self):
        out = build_column(EDGE_BAGS["nan"]).tolist()
        assert math.isnan(out[1]) and out[3] is None

    def test_negative_zero_sign_preserved(self):
        out = build_column(EDGE_BAGS["negative_zero"]).tolist()
        assert math.copysign(1.0, out[0]) == 1.0
        assert math.copysign(1.0, out[1]) == -1.0

    def test_int_stays_int_not_numpy(self):
        out = build_column(EDGE_BAGS["ints"]).tolist()
        assert type(out[0]) is int


class TestSlicesAndOrdering:
    @pytest.mark.parametrize("bag", sorted(EDGE_BAGS))
    def test_take_matches_legacy(self, bag):
        values = EDGE_BAGS[bag]
        if not values:
            return
        rows = np.array([len(values) - 1, 0, 0], dtype=np.intp)
        taken = build_column(values).take(rows).tolist()
        expected = [values[i] for i in rows]
        assert identical(taken, expected)

    def test_partition_first_seen_order_after_shuffle(self):
        values = ["b", "a", "c", "a", "b", None, "c", "b"]
        store = build_column(values)
        rows = np.array([4, 2, 0, 1, 6, 3, 5], dtype=np.intp)
        sliced = store.take(rows)
        parts = sliced.partition_arrays()
        shuffled = [values[i] for i in rows]
        expected_keys = []
        for v in shuffled:
            if v is not None and v not in expected_keys:
                expected_keys.append(v)
        assert list(parts) == expected_keys
        for key, chunk in parts.items():
            assert [shuffled[i] for i in chunk] == [key] * len(chunk)

    def test_counts_in_order_cross_type(self):
        # 1 == True == 1.0 must merge under the first-seen key object,
        # exactly as a dict built by the legacy loop would.
        store = build_column(EDGE_BAGS["cross_type"])
        counts = store.counts_in_order()
        assert counts is not None
        keys = [k for k, _ in counts]
        assert identical(keys, [1, 0])
        assert [n for _, n in counts] == [3, 2]

    def test_int_partition_arrays_python_keys(self):
        store = build_column([5, 7, 5, None, 7, 5])
        parts = store.partition_arrays()
        assert parts is not None
        assert [type(k) for k in parts] == [int, int]
        assert {k: v.tolist() for k, v in parts.items()} == {
            5: [0, 2, 5], 7: [1, 4]}

    def test_float_partition_defers_to_generic(self):
        # 0.0 / -0.0 are one dict key with two reprs; the store refuses
        # the fast path rather than guessing which object wins.
        assert build_column([0.5, 0.5, None]).partition_arrays() is None


class TestConcat:
    def test_numeric_concat(self):
        a = build_column([1, 2, None])
        b = build_column([3, None])
        merged = a.concat(b)
        assert merged is not None
        assert identical(merged.tolist(), [1, 2, None, 3, None])

    def test_coded_concat_reinterns(self):
        a = build_column(["x", "y", None])
        b = build_column(["y", "z"])
        merged = a.concat(b)
        assert merged is not None
        assert identical(merged.tolist(), ["x", "y", None, "y", "z"])

    def test_mismatched_stores_decline(self):
        assert build_column([1, 2]).concat(build_column(["a"])) is None


class TestImmutability:
    def test_numeric_arrays_read_only(self):
        store = build_column([1, 2, 3])
        with pytest.raises(ValueError):
            store.data[0] = 9
        with pytest.raises(ValueError):
            store.mask[0] = False

    def test_coded_codes_read_only(self):
        store = build_column(["a", "b"])
        with pytest.raises(ValueError):
            store.codes[0] = 1

    def test_wrapped_numpy_array_zero_copy_frozen(self):
        for array in (np.arange(4, dtype=np.int64),
                      np.array([1.0, -0.0, math.inf])):
            store = build_column(array)
            assert isinstance(store, NumericColumn)
            assert store.data is array or store.data.base is array
            assert not array.flags.writeable
            assert identical(store.tolist(), array.tolist())

    def test_store_passthrough_shares(self):
        store = build_column([1, 2, 3])
        assert build_column(store) is store


class TestPickle:
    @pytest.mark.parametrize("bag", sorted(set(EDGE_BAGS) - {"unhashable"}))
    def test_relation_pickle_bytes_match_legacy(self, bag):
        # The wire format pickles each column as the plain list it was
        # built from, whatever store holds it in memory.
        values = EDGE_BAGS[bag]
        relation = Relation.infer_schema("t", {"a": values})
        state = relation.__reduce_ex__(pickle.DEFAULT_PROTOCOL)[2]
        column = state["_columns"]["a"]
        assert type(column) is list
        assert identical(column, values)

    def test_round_trip_restores_columns(self):
        relation = Relation.infer_schema("t", {
            "n": [1, None, 3], "s": ["a", "b", None]})
        back = pickle.loads(pickle.dumps(relation))
        assert identical(back.column("n"), [1, None, 3])
        assert identical(back.column("s"), ["a", "b", None])
        assert isinstance(back.column_store("n"), NumericColumn)
        assert isinstance(back.column_store("s"), CodedColumn)

    def test_database_token_stable_across_backends(self):
        columns = {k: v for k, v in EDGE_BAGS.items()
                   if k not in ("empty", "unhashable")}
        n = max(len(v) for v in columns.values())
        columns = {k: list(v) + [None] * (n - len(v))
                   for k, v in columns.items()}
        relation = Relation.infer_schema("t", columns)
        # The token's byte stream, rebuilt here from the input lists.
        attrs = ",".join(f"{a.name}:{a.dtype.value}"
                         for a in relation.schema)
        digest = hashlib.sha256(f"db:db\ntable:t({attrs})x{n}\n"
                                .encode("utf-8"))
        for values in columns.values():
            digest.update(repr(values).encode("utf-8"))
        database = Database.from_relations("db", [relation])
        assert database_token(database) == digest.hexdigest()


class TestNumpyArrays:
    def test_float_array_keeps_nan_values(self):
        # A NaN value is not a missing cell: the array must read back,
        # token and pickle exactly like the same values given as a list.
        values = [1.0, math.nan, 2.5]
        from_array = Relation.infer_schema("t", {"x": np.array(values)})
        from_list = Relation.infer_schema("t", {"x": values})
        assert identical(from_array.column("x"), values)
        assert from_array.presence_mask("x") == [True, False, True]
        assert (database_token(Database.from_relations("db", [from_array]))
                == database_token(Database.from_relations("db", [from_list])))
        assert pickle.dumps(from_array) == pickle.dumps(from_list)


#: Column values: ints beyond int64, floats with -0.0 / nan / inf, bools,
#: strings (missing tokens among them) and None.
SCALARS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(),
    st.sampled_from([2**63, -2**63 - 1, 2**80]),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.sampled_from(["a", "b", "", "NULL", " na "]),
    st.text(max_size=3),
    st.none(),
)
#: Homogeneous bags reach the numeric stores, mixed ones the coded store.
BAGS = st.one_of(
    st.lists(st.one_of(st.integers(min_value=-3, max_value=3),
                       st.integers(min_value=-2**63, max_value=2**63 - 1),
                       st.none()), max_size=24),
    st.lists(st.one_of(st.floats(),
                       st.sampled_from([0.0, -0.0, math.nan, math.inf])),
             max_size=24),
    st.lists(st.one_of(st.floats(), st.none()), max_size=24),
    st.lists(SCALARS, max_size=24),
)


def as_array(values: list) -> np.ndarray:
    """*values* as the narrowest numpy array that holds them exactly."""
    kinds = {type(v) for v in values}
    if kinds == {int} and all(-2**63 <= v < 2**63 for v in values):
        return np.array(values, dtype=np.int64)
    if kinds == {float}:
        return np.array(values, dtype=np.float64)
    if kinds == {bool}:
        return np.array(values, dtype=bool)
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


class TestPlainLoopProperty:
    """Every store, built from a list or from a numpy array, answers
    exactly what a plain loop over the value list answers."""

    @settings(max_examples=200, deadline=None)
    @given(BAGS, st.data())
    def test_stores_match_plain_loops(self, values, data):
        rows = (data.draw(st.lists(st.integers(0, len(values) - 1),
                                   max_size=12)) if values else [])
        cells, counts = plain_cells(values), plain_counts(values)
        present = [v for v in values if not is_missing(v)]
        token = pickled = None
        for source in (values, as_array(values)):
            store = build_column(source)
            assert identical(store.tolist(), values)
            assert store.presence().tolist() == [not is_missing(v)
                                                 for v in values]
            taken = store.take(np.array(rows, dtype=np.intp))
            assert identical(taken.tolist(), [values[i] for i in rows])
            joined = store.concat(build_column(values))
            if joined is not None:
                assert identical(joined.tolist(), values + values)
            in_order = store.counts_in_order()
            if in_order is not None:
                assert same_dict(dict(in_order), counts)
            arrays = store.partition_arrays()
            if arrays is not None:
                assert same_dict({k: v.tolist() for k, v in arrays.items()},
                                 cells)

            relation = Relation.infer_schema("t", {"a": source})
            assert identical(relation.non_missing("a"), present)
            assert identical(relation.distinct("a"), list(counts))
            assert same_dict(relation.value_counts("a"), counts)
            assert same_dict(relation.partition_indices("a"), cells)
            assert identical(relation.concat(relation).column("a"),
                             values + values)
            database = Database.from_relations("db", [relation])
            if token is None:
                token, pickled = database_token(database), pickle.dumps(
                    relation)
            assert database_token(database) == token
            assert pickle.dumps(relation) == pickled

    @settings(max_examples=100, deadline=None)
    @given(BAGS, BAGS)
    def test_json_round_trip_is_exact(self, first, second):
        n = max(len(first), len(second))
        columns = {"a": first + [None] * (n - len(first)),
                   "b": second + [None] * (n - len(second))}
        relation = Relation.infer_schema("t", columns)
        back = relation_from_dict(
            json.loads(json.dumps(relation_to_dict(relation))))
        assert ([(a.name, a.dtype) for a in back.schema]
                == [(a.name, a.dtype) for a in relation.schema])
        for name, values in columns.items():
            assert identical(back.column(name), values)
        assert (database_token(Database.from_relations("db", [back]))
                == database_token(Database.from_relations("db", [relation])))


BASE_SCENARIOS = sorted(
    name for name in scenario_names()
    if not get_scenario(name).perturbations)

#: (source, target) ``database_token`` of each base scenario's workload.
#: A token digests every column value's repr in order, so any change in
#: what the stores hand back — a value, its type, or the row order —
#: shows up here.
WORKLOAD_TOKENS = {
    "clinical": (
        "4e36107e3b9e7e616d7464c497816338cdce52ac684cd7f15ced71505dd53399",
        "0a34ddd1796b6b217e7ddeecd974e6b22dcf12293fb861a08feb1d03fc8bbc6a"),
    "events": (
        "001cd2ed376f3eb46eaab4e548886c4e67268c26bddaae8f7518b40843ee4a6f",
        "a6626fed922e863ba9bd3f9152e99581a27bd59cdce8f3fd2b8a8043fe14dc2d"),
    "grades": (
        "4614a383d7427642ad0881e919d50a1c77cbb148c6a65ead9b9848da5bae1823",
        "c1a5a34d37ab8074a85c4a0fe433dda9d8bca61c9b432e52d05de4212dde01a6"),
    "ingestion": (
        "d7a0eab24130ff7d96a6f101b2e53c8653d4e871ae78f3451a2a385fd4324e08",
        "4b2410c5decbcdf2c9bcb724c0f2e4245082713d9ae30691edb9992811ae37e6"),
    "realestate": (
        "db132744bcc52c9704057c709e28d0090d41c409b0a13b319549ef4f484bc15f",
        "c7ec052056a5b4d4381255d736acc512bb584bc193a2bec122c38b3c04cf4167"),
    "retail": (
        "cb15b14ac95d97a1fc59f17c71015c511d7402df4d307ac8e40422b7d284709e",
        "f16a7f3bc30222d2bbb487e40dc1c51fc53f7725d4afa517ff5c447db9d07b83"),
    "routing": (
        "b9bbf3f17f2cecfe8ae13a9f848e9ff2df71153198773a0b7f08bc0fff4f5c8c",
        "7c59d59de81d75eb224bcacdbc956cce2e3496ed8c7d127f0cb97b1f80fd4e0d"),
}


@pytest.fixture(scope="module", params=BASE_SCENARIOS)
def base_workload(request):
    return request.param, build_scenario(get_scenario(request.param))


class TestBaseScenarios:
    """The registered base scenarios' relations, checked against plain
    loops over each column's value list."""

    def test_workload_tokens_pinned(self, base_workload):
        name, workload = base_workload
        assert (database_token(workload.source),
                database_token(workload.target)) == WORKLOAD_TOKENS[name]

    def test_primitives_match_plain_loops(self, base_workload):
        _, workload = base_workload
        for database in (workload.source, workload.target):
            for relation in database:
                for attr in relation.schema.attribute_names:
                    values = relation.column(attr)
                    assert identical(relation.column_store(attr).tolist(),
                                     values)
                    presence = [not is_missing(v) for v in values]
                    assert relation.presence_array(attr).tolist() == presence
                    assert relation.presence_mask(attr) == presence
                    assert identical(relation.non_missing(attr),
                                     [v for v in values if not is_missing(v)])
                    cells, counts = plain_cells(values), plain_counts(values)
                    assert same_dict(relation.partition_indices(attr), cells)
                    assert same_dict(relation.value_counts(attr), counts)
                    assert identical(relation.distinct(attr), list(counts))
                for attr in categorical_attributes(relation):
                    cells = plain_cells(relation.column(attr))
                    assert same_dict(PartitionIndex(relation, attr).cells,
                                     {k: tuple(v) for k, v in cells.items()})

    def test_transformations_match_plain_loops(self, base_workload):
        _, workload = base_workload
        relation = next(iter(workload.source))
        n = len(relation)
        attrs = relation.schema.attribute_names
        sampled = np.random.default_rng(7).choice(
            n, size=max(n // 3, 1), replace=False).tolist()
        shuffled = np.random.default_rng(11).permutation(n).tolist()
        cases = [
            (relation.sample(max(n // 3, 1), np.random.default_rng(7)),
             attrs, lambda col: [col[i] for i in sampled]),
            (relation.shuffle(np.random.default_rng(11)),
             attrs, lambda col: [col[i] for i in shuffled]),
            (relation.project(attrs[:2]), attrs[:2], lambda col: col),
            (relation.take([0, 0, n - 1]), attrs,
             lambda col: [col[0], col[0], col[n - 1]]),
            (relation.concat(relation), attrs, lambda col: col + col),
        ]
        for got, names, expected in cases:
            assert got.schema.attribute_names == names
            for attr in names:
                assert identical(got.column(attr),
                                 expected(relation.column(attr)))
