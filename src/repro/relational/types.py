"""Attribute data types and type inference.

The paper's data model (Section 2.1) gives every attribute a type drawn from
``string``, ``int``, ``real`` etc.; the :class:`~repro.context` package and
the per-type target classifiers of ``TgtClassInfer`` (Figure 7) both branch
on these types.  We implement a small closed enumeration plus inference from
sample values, mirroring what a constraint-mining tool would do on CSV data.

A column's type is the widening of its present values' types
(:func:`infer_column_type`).  The CSV reader types a column from its
distinct present texts (:func:`infer_text_column_type`): a column of bare
decimal digit strings in C-level passes, any other through the same
widening loop, so the rule lives in one place.
"""

from __future__ import annotations

import enum
import itertools
import math
import re
from typing import Any, Iterable, Iterator, Sequence

__all__ = [
    "DataType",
    "infer_type",
    "infer_column_type",
    "infer_text_column_type",
    "coerce_value",
    "is_missing",
    "is_hashable",
    "missing_texts",
]

#: The FLOAT (group 1) and DATE (group 2) spellings of a stripped text.
#: FLOAT takes decimal spellings plus exactly the non-finite ones
#: ``str(float)`` writes, so a FLOAT column holding them round-trips
#: through CSV; ``NaN`` or ``INF`` stay labels.
_FLOAT_OR_DATE_RE = re.compile(
    r"([+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|nan|inf|-inf)"
    r"|(\d{4}-\d{2}-\d{2})")
_SIGNS = ("+", "-")
_BOOL_TOKENS = {"true": True, "false": False, "y": True, "n": False,
                "yes": True, "no": False, "t": True, "f": False}

#: Values treated as SQL NULL when reading data or evaluating conditions.
MISSING_TOKENS = frozenset({"", "null", "none", "na", "n/a"})


class DataType(enum.Enum):
    """Closed set of attribute types used throughout the library.

    ``STRING`` covers short, code-like values (ISBNs, format labels) while
    ``TEXT`` covers free text (titles, descriptions).  The distinction only
    matters to matchers and classifiers that tokenize; both belong to the
    *textual* compatibility family.
    """

    STRING = "string"
    TEXT = "text"
    INTEGER = "int"
    FLOAT = "real"
    BOOLEAN = "bool"
    DATE = "date"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INTEGER, DataType.FLOAT)

    @property
    def is_textual(self) -> bool:
        return self in (DataType.STRING, DataType.TEXT)

    def compatible_with(self, other: "DataType") -> bool:
        """Whether values of this type can be meaningfully compared with
        values of ``other`` — the test used by ``createTargetClassifier``
        (paper Figure 7, line 3) when grouping attributes by domain."""
        if self is other:
            return True
        if self.is_numeric and other.is_numeric:
            return True
        if self.is_textual and other.is_textual:
            return True
        return False

    @property
    def family(self) -> str:
        """Domain family name: one classifier per family in TgtClassInfer."""
        if self.is_numeric:
            return "numeric"
        if self.is_textual:
            return "textual"
        return self.value


#: The members as module constants: the per-value paths below run once
#: per field or distinct text, and a module global is read several times
#: faster than an enum class attribute.
_STRING, _TEXT, _INTEGER, _FLOAT, _BOOLEAN, _DATE = (
    DataType.STRING, DataType.TEXT, DataType.INTEGER, DataType.FLOAT,
    DataType.BOOLEAN, DataType.DATE)

#: The types a column may mix and still infer as FLOAT.
_NUMERIC_MIX = frozenset({_INTEGER, _FLOAT, _BOOLEAN})

#: Longest missing-marker token ("null" / "none") — the string fast path
#: below can reject longer unpadded strings without allocating.
_MAX_MISSING_TOKEN_LEN = max(len(token) for token in MISSING_TOKENS)


def is_missing(value: Any) -> bool:
    """Return True if *value* represents SQL NULL / absent data.

    This predicate runs once per value in every profiling, sampling and
    classifier-training loop, so the common case — a plain string that is
    clearly data — must not allocate: a string longer than the longest
    missing token with no surrounding whitespace cannot strip down to one,
    and is rejected before ``strip().lower()``.
    """
    if value is None:
        return True
    if isinstance(value, str):
        if (len(value) > _MAX_MISSING_TOKEN_LEN
                and not value[0].isspace() and not value[-1].isspace()):
            return False
        return value.strip().lower() in MISSING_TOKENS
    if isinstance(value, float) and math.isnan(value):
        return True
    return False


def is_hashable(value: Any) -> bool:
    """Whether *value* can key a dict: a partition cell, a view group or
    a class label.  Columns may hold unhashable values (JSON lists), which
    no such key can stand for."""
    try:
        hash(value)
    except TypeError:
        return False
    return True


def missing_texts(texts: Iterable[str]) -> Iterator[bool]:
    """:func:`is_missing` of each string of *texts*, in C-level passes."""
    return map(MISSING_TOKENS.__contains__,
               map(str.lower, map(str.strip, texts)))


def infer_type(value: Any) -> DataType:
    """Infer the :class:`DataType` of a single non-missing value."""
    if isinstance(value, str):  # the common case: a CSV field
        text = value.strip()
    elif isinstance(value, bool):
        return _BOOLEAN
    elif isinstance(value, int):
        return _INTEGER
    elif isinstance(value, float):
        return _FLOAT
    else:
        text = str(value).strip()
    if text.lower() in _BOOL_TOKENS:
        return _BOOLEAN
    digits = text[1:] if text[:1] in _SIGNS else text
    if digits.isdecimal():  # [+-]?\d+: \d is a Unicode decimal digit
        # A digit string with a leading zero ("0195128") is an identifier
        # (ISBN, zip code), not a number — treat it as a code-like string.
        if len(digits) > 1 and digits.startswith("0"):
            return _STRING
        return _INTEGER
    match = _FLOAT_OR_DATE_RE.fullmatch(text)
    if match is not None:
        return _FLOAT if match.lastindex == 1 else _DATE
    # Free text vs code-like string: free text has internal whitespace.
    if " " in text or len(text) > 32:
        return _TEXT
    return _STRING


def infer_column_type(values: Iterable[Any]) -> DataType:
    """Infer the type of a column from a sample of its values.

    Missing values are skipped.  The result is the most general type that
    covers every observed value (INTEGER and BOOLEAN widen to FLOAT,
    STRING widens to TEXT, any textual/other mix collapses to TEXT).  An
    all-missing column defaults to STRING.
    """
    return _widened_type(itertools.filterfalse(is_missing, values))


def infer_text_column_type(texts: Sequence[str]) -> DataType:
    """:func:`infer_column_type` of a CSV column whose present (non-missing)
    field texts are *texts*.

    A column of bare decimal digit strings is typed in C-level passes: it
    is INTEGER when no text has a leading zero (``"0"`` alone has none),
    STRING when every text has one and TEXT when the two mix, which is
    what :func:`infer_type` makes of each text.  Any other column goes
    through the widening rule text by text.
    """
    if texts and all(map(str.isdecimal, texts)):
        # Decimal texts hold no newline: each "\n0" starts a text at "0".
        leading_zeros = (("\n" + "\n".join(texts)).count("\n0")
                         - texts.count("0"))
        if not leading_zeros:
            return _INTEGER
        return _STRING if leading_zeros == len(texts) else _TEXT
    return _widened_type(texts)


def _widened_type(present: Iterable[Any]) -> DataType:
    """The widening rule over the non-missing values *present*.  The scan
    stops at the first value that leaves TEXT the only possible result."""
    seen: list[DataType] = []  # compared by identity: no enum hashing
    for value in present:
        dtype = infer_type(value)
        if dtype not in seen:
            seen.append(dtype)
            if dtype is _TEXT or (len(seen) > 1
                                  and not _NUMERIC_MIX.issuperset(seen)):
                return _TEXT  # no further value can change the result
    if not seen:
        return _STRING
    if len(seen) == 1:
        return seen[0]
    return _FLOAT  # a mix of INTEGER, FLOAT and BOOLEAN


def coerce_value(value: Any, dtype: DataType) -> Any:
    """Coerce *value* to the Python representation of *dtype*.

    Missing values coerce to ``None``; boolean tokens coerce to ``1.0`` /
    ``0.0`` as FLOAT.  A decimal integer text reads exactly, at any size
    ``int()`` parses.  Raises :class:`ValueError` when the value cannot
    represent the target type (e.g. ``"abc"`` as INTEGER, or a text past
    ``int()``'s digit limit).
    """
    if is_missing(value):
        return None
    if dtype is _INTEGER:
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError as exc:
                try:
                    return int(float(value))  # "1e3", "2.0"
                except (ValueError, OverflowError):
                    raise exc from None
        return int(value)
    if dtype is _FLOAT:
        if isinstance(value, str):
            # Boolean tokens widen to FLOAT with numbers (see
            # infer_column_type), as ``float(True)`` does for bools.
            token = _BOOL_TOKENS.get(value.strip().lower())
            if token is not None:
                return float(token)
        return float(value)
    if dtype is _BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return bool(value)
        token = str(value).strip().lower()
        if token in _BOOL_TOKENS:
            return _BOOL_TOKENS[token]
        raise ValueError(f"cannot coerce {value!r} to BOOLEAN")
    return str(value)
