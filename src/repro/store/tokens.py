"""Stable content tokens for databases, blobs and engine fingerprints.

Everything the artifact store and the serving layer key on is a sha256
hex digest of *content*, never an ``id()`` or a filename chosen by a
caller:

* :func:`blob_token` — the digest of a pickled artifact payload.  This is
  the store's primary key: two saves of bit-identical payloads land on
  one entry, and a loaded blob re-hashing to its token proves integrity.
* :func:`database_token` — the digest of a database instance (schema,
  dtypes, every column value, in order).  Two databases with equal
  content hash identically regardless of object identity, which is what
  lets prepared-artifact caches survive garbage collection, process
  restarts and store round-trips without false hits.
* :func:`fingerprint_token` — a stable digest of
  :meth:`~repro.engine.engine.MatchEngine.prepared_fingerprint`, the
  configuration (``config.standard``, categorical policy) prepared
  artifacts derive from; equal configurations digest equally in any
  process, so persisted artifacts can be looked up by it.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.engine import MatchEngine
    from ..relational.instance import Database

__all__ = ["blob_token", "database_token", "fingerprint_token",
           "update_digest_with_database"]


def blob_token(blob: bytes) -> str:
    """sha256 hex digest of a serialized artifact payload."""
    return hashlib.sha256(blob).hexdigest()


def update_digest_with_database(digest, database: "Database") -> None:
    """Feed *database* (schema, dtypes, all column values) into *digest*.

    The byte stream covers the database name, every table's name /
    attribute names / dtypes / row count, and the repr of every column in
    schema order — any change to a value, type or name changes the
    digest.  Shared by :func:`database_token` and
    :func:`repro.datagen.registry.workload_fingerprint` so the two can
    never drift apart.
    """
    digest.update(f"db:{database.name}\n".encode("utf-8"))
    for relation in database:
        attrs = ",".join(f"{a.name}:{a.dtype.value}"
                         for a in relation.schema)
        digest.update(
            f"table:{relation.name}({attrs})x{len(relation)}\n"
            .encode("utf-8"))
        for attr in relation.schema.attribute_names:
            digest.update(repr(relation.column(attr)).encode("utf-8"))


def database_token(database: "Database") -> str:
    """Stable sha256 content token of a database instance."""
    digest = hashlib.sha256()
    update_digest_with_database(digest, database)
    return digest.hexdigest()


def fingerprint_token(engine: "MatchEngine") -> str:
    """Stable digest of the engine's prepared fingerprint.

    The fingerprint is configuration — frozen dataclasses whose reprs are
    deterministic — so its digest is stable across processes and can key
    persisted artifacts.
    """
    payload = repr(engine.prepared_fingerprint()).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
