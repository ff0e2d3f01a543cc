"""CSV round-trip for relations and databases.

Experiment drivers persist generated workloads so runs are inspectable and
re-playable; this module provides the plain-text format.  Types are inferred
on read via :func:`~repro.relational.types.infer_column_type` and values are
coerced into their Python representations.

Reading is streamed: records go straight from the ``csv`` reader into
per-column field lists (no materialized row list, no second raw copy), and
each column is inferred, coerced and handed to its typed store one at a
time — the transient per-column buffers are released as soon as the store
owns the data, so a 10⁶-row file loads in one pass at bounded overhead.
"""

from __future__ import annotations

import csv
import io
import pathlib
from typing import Iterable, Iterator

from ..errors import InstanceError
from .columns import build_column
from .instance import Database, Relation
from .schema import Attribute, TableSchema
from .types import coerce_value, infer_column_type, is_missing

__all__ = ["write_csv", "read_csv", "dump_database", "load_database",
           "relation_to_csv_text", "relation_from_csv_text"]


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


def _parse_stream(name: str, reader: Iterator[list[str]],
                  empty_message: str) -> Relation:
    header = next(reader, None)
    if header is None:
        raise InstanceError(empty_message)
    if not header:
        raise InstanceError(f"CSV for {name!r} has no header row")
    n_fields = len(header)
    raw: list[list[str] | None] = [[] for _ in header]
    for lineno, record in enumerate(reader, start=2):
        if len(record) != n_fields:
            raise InstanceError(
                f"CSV for {name!r}: line {lineno} has {len(record)} fields, "
                f"expected {n_fields}"
            )
        for column, field in zip(raw, record):
            column.append(field)
    attrs = []
    columns: dict[str, object] = {}
    for position, attr in enumerate(header):
        fields = raw[position]
        raw[position] = None  # release the raw strings column by column
        dtype = infer_column_type(fields)
        attrs.append(Attribute(attr, dtype))
        values = [
            None if is_missing(v) else coerce_value(v, dtype) for v in fields
        ]
        del fields
        columns[attr] = build_column(values)
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
