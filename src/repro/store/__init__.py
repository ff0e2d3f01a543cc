"""Persistent artifact store — prepared match artifacts that outlive the
process.

The enterprise workload this library targets is hub-and-spoke: a small
set of stable hub schemas is prepared once and matched against many
incoming sources.  :class:`ArtifactStore` makes the expensive half of
that durable: :class:`~repro.engine.prepared.PreparedTarget` blobs saved
to disk keyed by their sha256 content token, each with a versioned JSON
manifest naming the engine configuration that prepared it, with digest +
version verification on every load (typed errors, never a corrupt
artifact silently served) and ``list``/``gc`` maintenance.

Layers above build on it: store-aware
:meth:`MatchEngine.prepare(..., store=...)
<repro.engine.engine.MatchEngine.prepare>`, the
:class:`~repro.evaluation.runner.EngineRunner` prepared-LRU (content-token
keyed, optionally store-backed), the ``repro store`` CLI, and the
``repro serve`` loop (:mod:`repro.service`), which loads hub targets from
a store once and answers match requests from a warm LRU.
"""

from .artifacts import STORE_FORMAT, ArtifactStore, StoreEntry
from .tokens import (blob_token, database_token, fingerprint_token,
                     update_digest_with_database)

__all__ = [
    "ArtifactStore",
    "StoreEntry",
    "STORE_FORMAT",
    "blob_token",
    "database_token",
    "fingerprint_token",
    "update_digest_with_database",
]
