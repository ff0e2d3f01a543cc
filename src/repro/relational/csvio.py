"""CSV round-trip for relations and databases.

Experiment drivers persist generated workloads so runs are inspectable and
re-playable; this module provides the plain-text format.  Types are inferred
on read by the rule of :func:`~repro.relational.types.infer_column_type`
and values are coerced as :func:`~repro.relational.types.coerce_value`
coerces them.

Reading interns each column as it goes.  Records come off the ``csv``
reader in chunks of :data:`CHUNK_RECORDS`, are transposed in C
(``zip(*chunk)``), and every field is looked up in its column's dict of
distinct texts, which numbers a new text with the next ``int32`` code on
sight.  So the reader holds one chunk of field strings at a time, plus
each column's distinct texts and four bytes per cell: memory grows with
the distinct texts, not with the rows.  Once the file is read, each
distinct text goes through one missing test, one typing pass
(:func:`~repro.relational.types.infer_text_column_type`) and one bulk
coercion, which falls back to ``coerce_value`` text by text only where
it raises.  A TEXT, STRING or DATE column's coded store is built straight
from the code table: its present texts are the uniques, and its missing
texts collapse into one ``None``.  Any other column's store is built from
its coerced distinct values and gathered by the codes (one numpy gather
for a numeric column).  The result equals typing and coercing every
field one by one.
"""

from __future__ import annotations

import csv
import io
import itertools
import pathlib
from typing import Iterable, Iterator

import numpy as np

from ..errors import InstanceError
from .columns import CodedColumn, ColumnStore, build_column, code_table
from .instance import Database, Relation
from .schema import Attribute, TableSchema
from .types import (DataType, coerce_value, infer_text_column_type,
                    missing_texts)

__all__ = ["write_csv", "read_csv", "dump_database", "load_database",
           "relation_to_csv_text", "relation_from_csv_text"]

#: Records read and transposed at a time; the reader holds at most one
#: chunk of field strings beside the columns' distinct texts and codes.
CHUNK_RECORDS = 4096


def _render(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(relation: Relation, path: str | pathlib.Path) -> None:
    """Write a relation to *path* with a header row."""
    path = pathlib.Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        names = relation.schema.attribute_names
        writer.writerow(names)
        for row in relation.rows():
            writer.writerow([_render(row[a]) for a in names])


def relation_to_csv_text(relation: Relation) -> str:
    """Render a relation as CSV text (header + rows)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    names = relation.schema.attribute_names
    writer.writerow(names)
    for row in relation.rows():
        writer.writerow([_render(row[a]) for a in names])
    return buffer.getvalue()


def _typed_column(name: str, attr: str, texts: list[str],
                  codes: np.ndarray) -> tuple[DataType, ColumnStore]:
    """The dtype and store of column *attr* of table *name*, from its
    distinct *texts* (in first-seen order) and each row's index into them.

    Each distinct text is tested for missing once, typed once and coerced
    once; the store equals the one the per-row value list would build
    (missing texts all coerce to ``None``, equal values of different
    texts share one unique, in first-seen order).
    """
    missing = np.fromiter(missing_texts(texts), dtype=bool,
                          count=len(texts))
    present = (list(itertools.compress(texts, (~missing).tolist()))
               if missing.any() else texts)
    dtype = infer_text_column_type(present)
    if dtype in _TEXT_TYPES:
        return dtype, _text_column(texts, missing, codes)
    try:
        values = _coerced(present, dtype)
    except ValueError as exc:
        raise InstanceError(
            f"CSV for {name!r}: column {attr!r} does not read as "
            f"{dtype.value}: {exc}") from exc
    if missing.any():  # back to one value per distinct text
        coerced = iter(values)
        values = [None if gap else next(coerced) for gap in missing.tolist()]
    return dtype, build_column(values).take(codes)


#: The types whose values are their field texts.
_TEXT_TYPES = (DataType.STRING, DataType.TEXT, DataType.DATE)

#: The C-level conversion of each numeric type; it raises on the texts
#: :func:`coerce_value` reads otherwise (boolean tokens as FLOAT) and on
#: the ones it rejects.
_BULK = {DataType.INTEGER: int, DataType.FLOAT: float}


def _coerced(present: list[str], dtype: DataType) -> list:
    """The values of the non-missing texts *present* as *dtype*: one bulk
    conversion, text by text through :func:`coerce_value` only where the
    bulk conversion raises."""
    bulk = _BULK.get(dtype)
    if bulk is not None:
        try:
            return list(map(bulk, present))
        except ValueError:
            pass
    return [coerce_value(text, dtype) for text in present]


def _text_column(texts: list[str], missing: np.ndarray,
                 codes: np.ndarray) -> CodedColumn:
    """The coded store of a text-valued column straight from the reader's
    code table: the present texts are the uniques, and every missing text
    becomes the one ``None`` unique, at the first missing text's place."""
    if not missing.any():
        return CodedColumn(codes, tuple(texts),
                           uniq_missing=np.zeros(len(texts), dtype=bool))
    first = int(missing.argmax())  # no text before it is dropped
    kept = ~missing
    kept[first] = True
    remap = np.cumsum(kept, dtype=np.int32) - 1  # text -> unique
    remap[missing] = first
    uniques = list(itertools.compress(texts, kept.tolist()))
    uniques[first] = None
    uniq_missing = np.zeros(len(uniques), dtype=bool)
    uniq_missing[first] = True
    return CodedColumn(remap[codes], tuple(uniques),
                       uniq_missing=uniq_missing)


def _parse_stream(name: str, reader: Iterator[list[str]],
                  empty_message: str) -> Relation:
    header = next(reader, None)
    if header is None:
        raise InstanceError(empty_message)
    if not header:
        raise InstanceError(f"CSV for {name!r} has no header row")
    n_fields = len(header)
    tables = [code_table() for _ in header]  # per column: text -> code
    codes: list[list[np.ndarray]] = [[] for _ in header]
    lineno = 2
    while chunk := list(itertools.islice(reader, CHUNK_RECORDS)):
        if set(map(len, chunk)) != {n_fields}:
            offset, record = next((i, r) for i, r in enumerate(chunk)
                                  if len(r) != n_fields)
            raise InstanceError(
                f"CSV for {name!r}: line {lineno + offset} has "
                f"{len(record)} fields, expected {n_fields}"
            )
        for table, parts, fields in zip(tables, codes, zip(*chunk)):
            parts.append(np.fromiter(map(table.__getitem__, fields),
                                     dtype=np.int32, count=len(fields)))
        lineno += len(chunk)
    attrs = []
    columns: dict[str, ColumnStore] = {}
    for attr, table, parts in zip(header, tables, codes):
        dtype, columns[attr] = _typed_column(
            name, attr, list(table),
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int32))
        attrs.append(Attribute(attr, dtype))
    return Relation(TableSchema(name, attrs), columns)


def read_csv(path: str | pathlib.Path, *, name: str | None = None) -> Relation:
    """Read a relation from CSV, inferring the schema from the data."""
    path = pathlib.Path(path)
    with path.open("r", newline="", encoding="utf-8") as handle:
        return _parse_stream(name or path.stem, csv.reader(handle),
                             f"CSV file {path} is empty")


def relation_from_csv_text(text: str, name: str) -> Relation:
    """Parse CSV text into a relation, inferring the schema."""
    return _parse_stream(name, csv.reader(io.StringIO(text)),
                         f"CSV text for {name!r} is empty")


def dump_database(database: Database, directory: str | pathlib.Path) -> None:
    """Write every relation of *database* to ``<directory>/<table>.csv``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for relation in database:
        write_csv(relation, directory / f"{relation.name}.csv")


def load_database(directory: str | pathlib.Path, *, name: str | None = None,
                  tables: Iterable[str] | None = None) -> Database:
    """Load ``*.csv`` files from a directory into a database."""
    directory = pathlib.Path(directory)
    paths = sorted(directory.glob("*.csv"))
    if tables is not None:
        wanted = set(tables)
        paths = [p for p in paths if p.stem in wanted]
    relations = [read_csv(p) for p in paths]
    return Database.from_relations(name or directory.name, relations)
