"""Unit tests for data types and type inference."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.types import (DataType, coerce_value, infer_column_type,
                                    infer_text_column_type, infer_type,
                                    is_missing, missing_texts)


class TestIsMissing:
    def test_none_is_missing(self):
        assert is_missing(None)

    def test_nan_is_missing(self):
        assert is_missing(float("nan"))

    @pytest.mark.parametrize("token", ["", "  ", "null", "NULL", "None",
                                       "na", "N/A"])
    def test_missing_tokens(self, token):
        assert is_missing(token)

    @pytest.mark.parametrize("value", [0, 0.0, False, "0", "x", "nil"])
    def test_non_missing_values(self, value):
        assert not is_missing(value)


class TestInferType:
    @pytest.mark.parametrize("value,expected", [
        (True, DataType.BOOLEAN),
        (7, DataType.INTEGER),
        (7.5, DataType.FLOAT),
        ("42", DataType.INTEGER),
        ("-13", DataType.INTEGER),
        ("3.14", DataType.FLOAT),
        ("1e-3", DataType.FLOAT),
        ("true", DataType.BOOLEAN),
        ("N", DataType.BOOLEAN),
        ("2006-09-12", DataType.DATE),
        ("hardcover", DataType.STRING),
        ("the white album", DataType.TEXT),
    ])
    def test_inference(self, value, expected):
        assert infer_type(value) is expected

    def test_leading_zero_digits_are_codes_not_integers(self):
        # ISBNs and zip codes keep leading zeros: identifiers, not numbers.
        assert infer_type("0195128") is DataType.STRING
        assert infer_type("0") is DataType.INTEGER  # a lone zero is numeric

    def test_long_string_is_text(self):
        assert infer_type("x" * 40) is DataType.TEXT

    def test_whitespace_makes_text(self):
        assert infer_type("two words") is DataType.TEXT


class TestInferColumnType:
    def test_homogeneous_int(self):
        assert infer_column_type([1, 2, 3]) is DataType.INTEGER

    def test_int_widens_to_float(self):
        assert infer_column_type([1, 2.5]) is DataType.FLOAT

    def test_string_and_text_widen_to_text(self):
        assert infer_column_type(["abc", "two words"]) is DataType.TEXT

    def test_mixed_code_column_is_text(self):
        # An ISBN/ASIN column mixes leading-zero codes and plain digits.
        assert infer_column_type(
            ["0195128", "B002UAX", "1316011770"]) is DataType.TEXT

    def test_missing_values_are_skipped(self):
        assert infer_column_type([None, "", 3]) is DataType.INTEGER

    def test_all_missing_defaults_to_string(self):
        assert infer_column_type([None, ""]) is DataType.STRING


class TestCoerce:
    def test_coerce_int(self):
        assert coerce_value("42", DataType.INTEGER) == 42

    def test_coerce_float(self):
        assert coerce_value("1.5", DataType.FLOAT) == 1.5

    def test_coerce_bool_tokens(self):
        assert coerce_value("Y", DataType.BOOLEAN) is True
        assert coerce_value("no", DataType.BOOLEAN) is False

    def test_coerce_bool_numeric(self):
        assert coerce_value(1, DataType.BOOLEAN) is True

    def test_coerce_missing_is_none(self):
        assert coerce_value("", DataType.INTEGER) is None

    def test_coerce_bad_bool_raises(self):
        with pytest.raises(ValueError):
            coerce_value("maybe", DataType.BOOLEAN)

    def test_coerce_string(self):
        assert coerce_value(12, DataType.STRING) == "12"

    @pytest.mark.parametrize("token,expected", [
        ("yes", 1.0), ("n", 0.0), (" T ", 1.0), ("FALSE", 0.0)])
    def test_boolean_tokens_coerce_to_float(self, token, expected):
        value = coerce_value(token, DataType.FLOAT)
        assert type(value) is float and value == expected

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", " inf "])
    def test_non_finite_spellings_coerce_to_float(self, text):
        value = coerce_value(text, DataType.FLOAT)
        assert type(value) is float and repr(value) == repr(float(text))


class TestNonFiniteSpellings:
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", " nan "])
    def test_str_float_spellings_infer_float(self, text):
        assert infer_type(text) is DataType.FLOAT

    @pytest.mark.parametrize("text", ["NaN", "INF", "+inf", "-nan",
                                      "Infinity", "infinity"])
    def test_other_spellings_are_labels(self, text):
        assert infer_type(text) is DataType.STRING

    def test_float_column_with_non_finite_values(self):
        assert infer_column_type(
            ["1.0", "nan", "", "inf", "-inf"]) is DataType.FLOAT


class TestCompatibility:
    def test_numeric_family(self):
        assert DataType.INTEGER.compatible_with(DataType.FLOAT)
        assert DataType.FLOAT.compatible_with(DataType.INTEGER)

    def test_textual_family(self):
        assert DataType.STRING.compatible_with(DataType.TEXT)

    def test_cross_family_incompatible(self):
        assert not DataType.INTEGER.compatible_with(DataType.TEXT)
        assert not DataType.BOOLEAN.compatible_with(DataType.FLOAT)

    def test_identity(self):
        for dtype in DataType:
            assert dtype.compatible_with(dtype)

    def test_family_names(self):
        assert DataType.INTEGER.family == "numeric"
        assert DataType.TEXT.family == "textual"
        assert DataType.BOOLEAN.family == "bool"


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_integers_always_infer_integer(value):
    assert infer_type(value) is DataType.INTEGER


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_floats_always_infer_float(value):
    assert infer_type(value) is DataType.FLOAT


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1))
def test_column_of_ints_is_numeric(values):
    assert infer_column_type(values) is DataType.INTEGER


# The scalar rules spelled out one pattern per type, as the reference for
# infer_type's single combined pattern.
_INT = re.compile(r"^[+-]?\d+$")
_FLOAT = re.compile(r"^([+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?|nan|inf|-inf)$")
_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_BOOL = {"true", "false", "y", "n", "yes", "no", "t", "f"}


def reference_infer_type(text: str) -> DataType:
    text = text.strip()
    if text.lower() in _BOOL:
        return DataType.BOOLEAN
    if _INT.match(text):
        digits = text.lstrip("+-")
        if len(digits) > 1 and digits.startswith("0"):
            return DataType.STRING
        return DataType.INTEGER
    if _FLOAT.match(text):
        return DataType.FLOAT
    if _DATE.match(text):
        return DataType.DATE
    if " " in text or len(text) > 32:
        return DataType.TEXT
    return DataType.STRING


def reference_column_type(values) -> DataType:
    """The widening rule applied to every value's type, no early exit."""
    seen = {infer_type(v) for v in values if not is_missing(v)}
    if not seen:
        return DataType.STRING
    if len(seen) == 1:
        return seen.pop()
    if seen <= {DataType.INTEGER, DataType.FLOAT, DataType.BOOLEAN}:
        return DataType.FLOAT
    return DataType.TEXT


_PAD = st.sampled_from(["", " ", "\t", "\n", "\u2003"])
SCALAR_TEXTS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.integers(0, 999).map(lambda n: f"0{n}"),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "NaN", "+inf", ".5", "5.",
                     "1e5", "1E+5", "+-1", "2006-09-12", "true", "No",
                     "y", "", "NA", "two words", "x" * 40, "٣٤", "٠١",
                     "²", "1²", "+", "-", "+-1", "-0", "+00", "٠", "१२.५",
                     "2006-09-1²"]),
    st.text(alphabet="0123456789+-.eE :ny", max_size=8),
    st.text(max_size=5),
)
PADDED = st.builds(lambda left, text, right: left + text + right, _PAD,
                   SCALAR_TEXTS, _PAD)


@settings(max_examples=500)
@given(PADDED)
def test_infer_type_matches_per_type_patterns(text):
    if not is_missing(text):
        assert infer_type(text) is reference_infer_type(text)


@settings(max_examples=300)
@given(st.lists(st.one_of(PADDED, st.integers(-5, 5), st.floats(),
                          st.booleans(), st.none()), max_size=12))
def test_column_type_equals_the_rule_over_every_value(values):
    assert infer_column_type(values) is reference_column_type(values)


#: Bare decimal digit strings, with and without leading zeros, in ASCII
#: and other scripts: the texts the C-level typing pass handles.
DECIMALS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(0, 999).map(lambda n: f"0{n}"),
    st.sampled_from(["0", "00", "٠", "٠١", "١٢", "०७", "０", "０1"]),
)


@settings(max_examples=300)
@given(st.one_of(st.lists(DECIMALS, max_size=12),
                 st.lists(st.one_of(DECIMALS, PADDED), max_size=12)))
def test_text_column_type_equals_the_rule_over_every_text(texts):
    present = [text for text in texts if not is_missing(text)]
    assert infer_text_column_type(present) is reference_column_type(texts)


@settings(max_examples=300)
@given(st.lists(PADDED, max_size=12))
def test_missing_texts_equals_is_missing(texts):
    assert list(missing_texts(texts)) == [is_missing(t) for t in texts]
