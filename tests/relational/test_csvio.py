"""Unit tests for CSV round-tripping.

The reader interns each column while reading and types every distinct
field text once; :func:`per_field_parse` below is the reader it replaced
(every field tested, inferred and coerced on its own) and stays here as
the reference the interning reader must equal, column for column.
"""

import csv
import io
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datagen import build_scenario, get_scenario, scenario_names
from repro.errors import InstanceError
from repro.relational import (CodedColumn, Database, DataType, NumericColumn,
                              Relation, build_column, dump_database,
                              load_database, read_csv, relation_from_csv_text,
                              relation_to_csv_text, write_csv)
from repro.relational import csvio
from repro.relational.schema import Attribute, TableSchema
from repro.relational.types import coerce_value, infer_column_type, is_missing
from repro.store.tokens import database_token


class TestRoundTrip:
    def test_file_round_trip(self, inv_relation, tmp_path):
        path = tmp_path / "inv.csv"
        write_csv(inv_relation, path)
        loaded = read_csv(path)
        assert loaded.name == "inv"
        assert len(loaded) == len(inv_relation)
        assert loaded.column("name") == inv_relation.column("name")

    def test_types_survive(self, inv_relation, tmp_path):
        path = tmp_path / "inv.csv"
        write_csv(inv_relation, path)
        loaded = read_csv(path)
        assert loaded.schema.dtype("id") is DataType.INTEGER
        # leading-zero ISBN mixed with ASINs stays textual
        assert loaded.schema.dtype("code").is_textual

    def test_text_round_trip(self, book_relation):
        text = relation_to_csv_text(book_relation)
        loaded = relation_from_csv_text(text, "book")
        assert loaded.column("price") == book_relation.column("price")

    def test_missing_values_round_trip(self):
        relation = Relation.infer_schema("t", {"a": [1, None, 3]})
        loaded = relation_from_csv_text(relation_to_csv_text(relation), "t")
        assert loaded.column("a") == [1, None, 3]

    def test_booleans_round_trip(self):
        relation = Relation.infer_schema("t", {"flag": [True, False]})
        loaded = relation_from_csv_text(relation_to_csv_text(relation), "t")
        assert loaded.column("flag") == [True, False]

    def test_name_override(self, inv_relation, tmp_path):
        path = tmp_path / "whatever.csv"
        write_csv(inv_relation, path)
        assert read_csv(path, name="items").name == "items"


class TestErrors:
    def test_empty_text_rejected(self):
        with pytest.raises(InstanceError):
            relation_from_csv_text("", "t")

    def test_ragged_line_rejected(self):
        with pytest.raises(InstanceError):
            relation_from_csv_text("a,b\n1\n", "t")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InstanceError):
            read_csv(path)


class TestDatabaseIO:
    def test_dump_and_load(self, figure1_target, tmp_path):
        dump_database(figure1_target, tmp_path / "db")
        loaded = load_database(tmp_path / "db", name="RT")
        assert set(loaded.schema.table_names) == {"book", "music"}
        assert len(loaded.relation("book")) == 2

    def test_load_subset(self, figure1_target, tmp_path):
        dump_database(figure1_target, tmp_path / "db")
        loaded = load_database(tmp_path / "db", tables=["music"])
        assert set(loaded.schema.table_names) == {"music"}


class TestNonFiniteAndBooleanFloats:
    """Regressions: FLOAT columns holding the non-finite spellings
    ``write_csv`` emits, and numbers mixed with boolean tokens."""

    def test_nan_reads_back_as_float(self):
        relation = Relation.infer_schema("t", {"a": [1.0, float("nan"),
                                                     None]})
        loaded = relation_from_csv_text(relation_to_csv_text(relation), "t")
        assert loaded.schema.dtype("a") is DataType.FLOAT
        first, nan, missing = loaded.column("a")
        assert first == 1.0 and nan != nan and missing is None

    def test_infinities_read_back_as_float(self):
        values = [1.0, float("inf"), float("-inf"), 2.5]
        relation = Relation.infer_schema("t", {"a": values})
        loaded = relation_from_csv_text(relation_to_csv_text(relation), "t")
        assert loaded.schema.dtype("a") is DataType.FLOAT
        assert loaded.column("a") == values

    @pytest.mark.parametrize("labels", [["NaN", "x1"], ["INF", "NAN"],
                                        ["Infinity", "b"], ["+inf", "a"]])
    def test_other_spellings_stay_labels(self, labels):
        text = "code\n" + "\n".join(labels) + "\n"
        loaded = relation_from_csv_text(text, "t")
        assert loaded.schema.dtype("code") is DataType.STRING
        assert loaded.column("code") == labels

    @pytest.mark.parametrize("text,expected", [
        ("x\n1\n2\nyes\n", [1.0, 2.0, 1.0]),
        ("x\n1.5\nn\n", [1.5, 0.0]),
        ("x\n0\n1\nt\nF\n", [0.0, 1.0, 1.0, 0.0]),
    ])
    def test_numbers_with_boolean_tokens_read_as_float(self, text,
                                                       expected):
        loaded = relation_from_csv_text(text, "t")
        assert loaded.schema.dtype("x") is DataType.FLOAT
        assert loaded.column("x") == expected


class TestExactIntegers:
    """Regressions: an INTEGER field reads as the integer it spells, not
    through a float."""

    def test_integers_above_two_to_the_53_read_exactly(self):
        loaded = relation_from_csv_text("x\n9007199254740993\n1\n", "t")
        assert loaded.schema.dtype("x") is DataType.INTEGER
        assert loaded.column("x") == [9007199254740993, 1]

    def test_a_400_digit_integer_reads_exactly(self):
        big = int("9" * 400)
        loaded = relation_from_csv_text(f"x\n{big}\n-3\n", "t")
        assert loaded.schema.dtype("x") is DataType.INTEGER
        assert loaded.column("x") == [big, -3]

    def test_big_integers_round_trip(self, tmp_path):
        values = [2 ** 63, -2 ** 63 - 1, 2 ** 53 + 1, int("7" * 400), None]
        relation = Relation.infer_schema("t", {"x": values})
        loaded = relation_from_csv_text(relation_to_csv_text(relation), "t")
        assert loaded.schema.dtype("x") is DataType.INTEGER
        assert loaded.column("x") == values
        write_csv(relation, tmp_path / "t.csv")
        assert read_csv(tmp_path / "t.csv").column("x") == values

    def test_an_uncoercible_integer_names_table_and_column(self):
        text = "id,x\n1,2\n2," + "9" * 5000 + "\n"
        with pytest.raises(InstanceError, match="'items'.*'x'"):
            relation_from_csv_text(text, "items")


# ---------------------------------------------------------------------------
# The interning reader against the per-field reference
# ---------------------------------------------------------------------------
def per_field_parse(text: str, name: str = "t") -> Relation:
    """The per-field reader: each column's fields listed in full, then
    inferred and coerced field by field into ``build_column``."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise InstanceError(f"CSV text for {name!r} is empty")
    if not header:
        raise InstanceError(f"CSV for {name!r} has no header row")
    raw: list[list[str]] = [[] for _ in header]
    for lineno, record in enumerate(reader, start=2):
        if len(record) != len(header):
            raise InstanceError(
                f"CSV for {name!r}: line {lineno} has {len(record)} fields, "
                f"expected {len(header)}")
        for column, field in zip(raw, record):
            column.append(field)
    attrs, columns = [], {}
    for attr, fields in zip(header, raw):
        dtype = infer_column_type(fields)
        attrs.append(Attribute(attr, dtype))
        columns[attr] = build_column(
            [None if is_missing(v) else coerce_value(v, dtype)
             for v in fields])
    return Relation(TableSchema(name, attrs), columns)


def _cell(value):
    """A value in comparable form: floats by their bits."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def layout(store):
    """How *store* holds its column, which ``tolist()``, presence and the
    token cannot see (two ``None`` uniques, a reordered unique tuple):
    a coded column's uniques in order and its codes, a numeric column's
    data bits and mask.

    NaN uniques with equal bits count as one: the per-field reader
    coerces every ``nan`` field to a new NaN object, and a NaN is its
    only equal, so that reader keeps one unique per NaN row where the
    interning reader keeps one per distinct text."""
    if isinstance(store, NumericColumn):
        return (store.data.dtype.str, store.data.tobytes(),
                store.mask.tolist())
    assert isinstance(store, CodedColumn)
    uniques, remap, nans = [], [], {}
    for value in store.uniques:
        cell = _cell(value)
        is_nan = isinstance(value, float) and value != value
        if is_nan and cell in nans:
            remap.append(nans[cell])
            continue
        if is_nan:
            nans[cell] = len(uniques)
        remap.append(len(uniques))
        uniques.append(cell)
    return uniques, [remap[code] for code in store.codes.tolist()]


def fingerprint(relation: Relation):
    """What the two readers must agree on: per column the dtype, the
    store class, the values (floats by bits), the presence mask and the
    store's :func:`layout`, plus the relation's ``database_token``."""
    columns = []
    for attribute in relation.schema:
        store = relation.column_store(attribute.name)
        columns.append((attribute.name, attribute.dtype,
                        type(store).__name__,
                        [_cell(v) for v in store.tolist()],
                        store.presence().tolist(), layout(store)))
    return columns, database_token(Database.from_relations("db",
                                                           [relation]))


def render(header: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _cased(tokens):
    return st.sampled_from(tokens).flatmap(
        lambda t: st.sampled_from([t, t.upper(), t.title()]))


_PAD = st.sampled_from(["", " ", "  ", "\t"])

#: Field-text pools; a column draws its vocabulary from one to three.
FIELD_POOLS = [
    # signed integers, leading zeros, big integers
    st.integers(-10**25, 10**25).map(str),
    st.builds(lambda sign, n: f"{sign}{n}", st.sampled_from(["+", "-", ""]),
              st.integers(0, 99)),
    st.integers(0, 9999).map(lambda n: f"0{n}"),
    # floats with exponents, and the non-finite spellings
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.builds(lambda m, e, x: f"{m}{x}{e}", st.integers(-99, 99),
              st.integers(-400, 400), st.sampled_from(["e", "E", "e+"])),
    st.sampled_from([".5", "5.", "-0.0", "+1.5", "nan", "inf", "-inf",
                     "NaN", "INF", "+inf", "-nan", "Infinity"]),
    # boolean tokens in any case
    _cased(["true", "false", "y", "n", "yes", "no", "t", "f"]),
    # dates
    st.dates().map(str),
    # missing tokens, whitespace-padded
    st.builds(lambda left, token, right: left + token + right, _PAD,
              _cased(["", "null", "none", "na", "n/a"]), _PAD),
    # whitespace-padded numbers
    st.builds(lambda left, n, right: f"{left}{n}{right}", _PAD,
              st.integers(-50, 50), _PAD),
    # Unicode digits (Arabic-Indic, Devanagari), alone and mixed
    st.text(alphabet="٠١٢٣٤٥٦٧٨٩०१२३.-", min_size=1, max_size=5),
    # quoted fields: commas, quotes, newlines
    st.text(alphabet="ab ,\n\r\"'", min_size=1, max_size=8),
    # strings over 32 characters
    st.text(alphabet="xyz ", min_size=33, max_size=40),
    # anything
    st.text(max_size=6),
]

#: Chunk sizes the reader is run at: tiny ones put chunk boundaries
#: inside small tables.
CHUNK_SIZES = st.sampled_from([1, 2, 3, 5, csvio.CHUNK_RECORDS])


@st.composite
def csv_tables(draw):
    """(header, rows): 1-4 columns, each drawing its fields from a small
    vocabulary (so texts repeat) built from one to three pools; 0-12
    rows, or a size next to a multiple of the chunk size."""
    n_columns = draw(st.integers(1, 4))
    vocabularies = []
    for _ in range(n_columns):
        pools = draw(st.lists(st.sampled_from(FIELD_POOLS), min_size=1,
                              max_size=3))
        vocabularies.append(draw(st.lists(st.one_of(*pools), min_size=1,
                                          max_size=8)))
    n_rows = draw(st.one_of(st.integers(0, 12),
                            st.sampled_from([5, 6, 7, 9, 10, 11, 16])))
    rows = [[draw(st.sampled_from(vocabulary)) for vocabulary in vocabularies]
            for _ in range(n_rows)]
    return [f"c{i}" for i in range(n_columns)], rows


def parse_chunked(text: str, chunk: int, name: str = "t") -> Relation:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csvio, "CHUNK_RECORDS", chunk)
        return relation_from_csv_text(text, name)


def outcome(parse):
    """The fingerprint of a parse, or the message of its InstanceError."""
    try:
        return fingerprint(parse())
    except InstanceError as exc:
        return ("InstanceError", str(exc))


class TestReaderMatchesPerFieldReference:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table=csv_tables(), chunk=CHUNK_SIZES)
    def test_columns_equal_per_field_reader(self, table, chunk):
        text = render(*table)
        expected = fingerprint(per_field_parse(text))
        assert fingerprint(parse_chunked(text, chunk)) == expected

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table=csv_tables(), chunk=CHUNK_SIZES, data=st.data())
    def test_ragged_line_message_equals_per_field_reader(self, table, chunk,
                                                         data):
        header, rows = table
        width = data.draw(st.integers(0, len(header) + 2).filter(
            lambda n: n != len(header)))
        at = data.draw(st.integers(0, len(rows)))
        ragged = [f"r{i}" for i in range(width)]  # no fields: a blank line
        text = render(header, rows[:at] + [ragged] + rows[at:])
        expected = outcome(lambda: per_field_parse(text))
        assert expected[0] == "InstanceError"
        assert outcome(lambda: parse_chunked(text, chunk)) == expected

    @pytest.mark.parametrize("text", ["", "\n", "\na,b\n1,2\n",
                                      "a\n\n", "a,b\n1,2\n3\n"])
    def test_error_messages_equal_per_field_reader(self, text):
        expected = outcome(lambda: per_field_parse(text))
        assert expected[0] == "InstanceError"
        assert outcome(lambda: relation_from_csv_text(text, "t")) == expected

    @pytest.mark.parametrize("extra", [-1, 0, 1, csvio.CHUNK_RECORDS + 1])
    def test_file_reader_across_the_real_chunk_boundary(self, tmp_path,
                                                        extra):
        n_rows = csvio.CHUNK_RECORDS + extra
        rows = [[str(i), ["red", "", "blue", "NA"][i % 4],
                 f"{i % 97 / 8}", ["yes", "no"][i % 2]]
                for i in range(n_rows)]
        text = render(["id", "colour", "price", "flag"], rows)
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert fingerprint(read_csv(path)) == fingerprint(
            per_field_parse(text))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table=csv_tables())
    def test_csv_relation_round_trip(self, table):
        """CSV -> Relation -> CSV -> Relation gives the same relation."""
        first = relation_from_csv_text(render(*table), "t")
        second = relation_from_csv_text(relation_to_csv_text(first), "t")
        assert fingerprint(second) == fingerprint(first)


#: ``database_token`` of every registered scenario's (source, target)
#: after ``dump_database`` -> ``load_database``, as the per-field reader
#: produced them: the interning reader must load every scenario to the
#: same bytes.
DUMP_LOAD_TOKENS = {
    "clinical": ("4e36107e3b9e7e616d7464c497816338cdce52ac684cd7f15ced71505dd53399",
                 "0a34ddd1796b6b217e7ddeecd974e6b22dcf12293fb861a08feb1d03fc8bbc6a"),
    "clinical-drift": ("4e36107e3b9e7e616d7464c497816338cdce52ac684cd7f15ced71505dd53399",
                       "0317fc4f6021b2b2a967088ad043de6190c13b7fd9f01ec47eb85841b6cee87e"),
    "clinical-nulls": ("9d2043145b7fc5d760cdd76f753041330a62d343ab006f6af54e383e7a193dfa",
                       "cd57b7b2c22d17f2ac2ab2972661c7e6dc6d3f8535de3f476fc7079697732e19"),
    "clinical-scrambled": ("2126bd6a12e4e76879b289fa83347705a688954c6fe0dc4b80612b01e4682b4a",
                           "541445bc6edb7c8504d022cfe4396021abc347642ecc0b95dbe6c26850871726"),
    "events": ("001cd2ed376f3eb46eaab4e548886c4e67268c26bddaae8f7518b40843ee4a6f",
               "a6626fed922e863ba9bd3f9152e99581a27bd59cdce8f3fd2b8a8043fe14dc2d"),
    "events-drift": ("001cd2ed376f3eb46eaab4e548886c4e67268c26bddaae8f7518b40843ee4a6f",
                     "ccf6a8d4af2aa201733cfe3c0827b99aaad66e9e7be2f2f6831c9adbbfdfbf0c"),
    "events-nulls": ("8b4d4e402078101321dfb1bb550e1cb1910be17e3d490cb7ec068376f296db5d",
                     "58fa609b5ee556fbc4be9fb3f6e1a646db4028e660f43c34f0b8790cc779943b"),
    "events-scrambled": ("75ba9286a42de39cf0e057881ceb67c1e622a185774b8dce4160cfd5d747759a",
                         "d1091a229ea51e5d91f7aeb0e57ae0848a7645419ca2c4564f609dbd639127af"),
    "grades": ("4614a383d7427642ad0881e919d50a1c77cbb148c6a65ead9b9848da5bae1823",
               "c1a5a34d37ab8074a85c4a0fe433dda9d8bca61c9b432e52d05de4212dde01a6"),
    "grades-drift": ("4614a383d7427642ad0881e919d50a1c77cbb148c6a65ead9b9848da5bae1823",
                     "d5e9feab827f5737c851bba7dde1699ed1b12763af42df9759b5c0546b8a1cd2"),
    "grades-nulls": ("692c08a18d03b02ba792043ef1afc92cc2e26821d15f5040c7273a546aed0e10",
                     "e5592b1e6ca4b5f4d0d1d85990fec41ca23b6934c7535cdc8df6d7c1358e5f6b"),
    "grades-scrambled": ("981e44da717f2e623bc3f4ffb3678f4f3045f54be1c86bccfafd6533bf0c95f5",
                         "2eec298da9709095e922842636a97377510f2f7a2400e568e3abd0e1500109e8"),
    "ingestion": ("d7a0eab24130ff7d96a6f101b2e53c8653d4e871ae78f3451a2a385fd4324e08",
                  "4b2410c5decbcdf2c9bcb724c0f2e4245082713d9ae30691edb9992811ae37e6"),
    "ingestion-drift": ("d7a0eab24130ff7d96a6f101b2e53c8653d4e871ae78f3451a2a385fd4324e08",
                        "4176814213136234a931e44ec77abac9e1cd69528bf56d88ab05a4c6ae6864ac"),
    "ingestion-nulls": ("21afa234ab167bd634ddb1603bf4c7ef63e73ff435b16de3876b3f3bcc5b0317",
                        "f2e8edb6542ea2f12f207a3f1207dcf92a321cb729674c5118ea3e07f26d2740"),
    "ingestion-scrambled": ("5680affc732f4d3bf8019f43ff88128ce9de57444c2ba4b05b71aa1d853ee79d",
                            "dae33fb49ba02d07c69f5dce1e6241398abbf8829a2642c755678fba2c70ee78"),
    "realestate": ("db132744bcc52c9704057c709e28d0090d41c409b0a13b319549ef4f484bc15f",
                   "4b3ad5738ef47a8310e8fb073b5f76292f00aef6961f6657db5c80a9a5850821"),
    "realestate-drift": ("db132744bcc52c9704057c709e28d0090d41c409b0a13b319549ef4f484bc15f",
                         "251c89a4e4cf0ce97279ff4f04aa0023bb2f9bea245b294919c38eda796bb0a7"),
    "realestate-nulls": ("a2f2881eb71dcf10bc63b83d87f9a90708001a4288d8b26489247b0ae1f85670",
                         "4f8628abbff865c3a30d5e2a01ce05172f6aa9bf66e99b168c315940a9fbf034"),
    "realestate-scrambled": ("9fb9f07a23eba7c561261831d867182bd8e2e9f0203debf17c26df7a3139f503",
                             "00bde52af2e409688013716c9b9110966f732cff9eaa34796e3f12fbaa0ec15c"),
    "retail": ("cb15b14ac95d97a1fc59f17c71015c511d7402df4d307ac8e40422b7d284709e",
               "f16a7f3bc30222d2bbb487e40dc1c51fc53f7725d4afa517ff5c447db9d07b83"),
    "retail-drift": ("cb15b14ac95d97a1fc59f17c71015c511d7402df4d307ac8e40422b7d284709e",
                     "50001058b1d72160b59e9ec51768fe493dd7810a3a9042c5ac7a1e6e6a9e1119"),
    "retail-nulls": ("f7d31ca2b771617f423de936e8548efd51429c3e3cab9e6eb2e9e45e84f31ef2",
                     "c6513ee52d6ec922c0a768200d2cfe69705f069728a71f7e57fa8a39387ef78b"),
    "retail-scrambled": ("c37a4c39b3ff0ce515ff6d7712d5f5a3d21d54d751e0f7a963af3384111e5b18",
                         "560f0e5ebd3b96fea55b15acbc5df19e80c6b377a10ebdc43de0356bc7466646"),
    "routing": ("b9bbf3f17f2cecfe8ae13a9f848e9ff2df71153198773a0b7f08bc0fff4f5c8c",
                "7c59d59de81d75eb224bcacdbc956cce2e3496ed8c7d127f0cb97b1f80fd4e0d"),
    "routing-drift": ("0eb97eed276261c7f7b0b642670b1199071a7a2a545e83ebf9c30b235d1028cd",
                      "28a67616c6f66e2dbfaa6c88769c27c585240e30b799cab2787511e8ab25df35"),
    "routing-nulls": ("2dce447d394ff0319aa66d66e25b7e7ef213e4721755a32a01f8f3c89eac1c92",
                      "e26b1847329c94946238d1cc805470874c712402bd44d26f222c786766f4a5b3"),
    "routing-scrambled": ("de8544c7ae344a39c1f49ae169fff726ace1dbb416bb2f49dd9ee120a401ecf1",
                          "fc395ca9a9239c7c66b8c79accb9e78b9004c47bbec3721a17d540983d7032dc"),
}

BASE_SCENARIOS = sorted(name for name in scenario_names()
                        if not get_scenario(name).perturbations)


def dump_load_tokens(name, tmp_path):
    workload = build_scenario(name)
    tokens = []
    for side, database in (("src", workload.source),
                           ("tgt", workload.target)):
        dump_database(database, tmp_path / side)
        tokens.append(database_token(
            load_database(tmp_path / side, name=database.name)))
    return tuple(tokens)


class TestScenarioDumpLoadTokens:
    def test_every_scenario_is_pinned(self):
        assert sorted(DUMP_LOAD_TOKENS) == scenario_names()

    @pytest.mark.parametrize("name", BASE_SCENARIOS)
    def test_base_scenario_tokens(self, name, tmp_path):
        assert dump_load_tokens(name, tmp_path) == DUMP_LOAD_TOKENS[name]

    @pytest.mark.golden
    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_tokens(self, name, tmp_path):
        assert dump_load_tokens(name, tmp_path) == DUMP_LOAD_TOKENS[name]
