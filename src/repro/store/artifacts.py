"""Disk-backed store of prepared match artifacts, keyed by content token.

Every :class:`~repro.engine.prepared.PreparedTarget` is picklable with a
sha256 content token; :class:`ArtifactStore` persists them, each saved
with the engine that prepared it.  A prepared target is frozen and no
run writes to it, so its blob — and so its token — depends only on what
``prepare()`` built, however many runs it served before it was saved.

* **Layout.**  One directory; each entry is a pair of files named by the
  blob's sha256 content token — ``<token>.blob`` (the pickled artifact)
  and ``<token>.json`` (a versioned manifest: library version, store
  format, engine fingerprint digest, byte size, blob digest,
  target-database token).  Writes are atomic (tmp + rename) and
  the manifest lands *after* its blob, so a manifest's existence always
  implies a complete entry; interrupted saves leave orphan blobs that
  :meth:`gc` sweeps.
* **Integrity.**  :meth:`load_target` re-reads the manifest, checks the
  store format and library version, re-hashes the blob and compares it
  to the manifest digest — all *before* ``pickle.loads``.  A truncated blob, a
  flipped bit, or an artifact written by a different library version
  raises a typed error (:class:`~repro.errors.ArtifactIntegrityError`,
  :class:`~repro.errors.ArtifactVersionError`); a corrupt artifact is
  never silently served and never surfaces as a pickle exception.
* **Lookup.**  Every entry carries a ``lookup_key`` — a digest of
  (database content token, engine fingerprint) — so :meth:`find_target`
  can answer "is *this* database already prepared for *this* engine?"
  without touching any blob.  A handle parses each manifest once:
  :meth:`entries` lists the directory on every call, so saves and
  removals by other handles and processes are seen, but parses only
  manifests this handle has not parsed yet — the lookup-key dedup of
  :meth:`save`, :meth:`find_target`, the serving layer's warm-up and
  resolution by name, and a repository over the store read the kept
  manifests, and consider only :attr:`StoreEntry.loadable` entries (this
  store format and library version), so an entry this library would
  refuse to load never stands in for a fresh one.
  :meth:`prepared_target` builds on it: load on hit, prepare-and-save on
  miss — the get-or-build primitive behind store-aware
  :meth:`~repro.engine.engine.MatchEngine.prepare` and the serving
  layer's warm LRU.
* **Maintenance.**  :meth:`entries` lists manifests (newest first);
  :meth:`gc` removes orphans and corrupt entries and can trim the store
  to a byte/entry budget, oldest first.

The round-trip invariant — a loaded artifact produces bit-identical
match results vs the in-memory prepared path — is pinned across the
all-20-scenario golden grid (``pytest -m golden``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import pickle
import threading
import time
from typing import Any, Mapping

from .._version import __version__
from ..errors import (ArtifactIntegrityError, ArtifactNotFoundError,
                      ArtifactVersionError, StoreError)
from .tokens import blob_token, database_token, fingerprint_token

__all__ = ["ArtifactStore", "StoreEntry", "STORE_FORMAT"]

#: On-disk format revision.  Bumped when the layout, the manifest schema
#: or the pickled artifacts change incompatibly; loads refuse other
#: revisions with a typed error.  Format 2: q-gram profiles, Naive Bayes
#: statistics and BM25 postings hold integer gram codes
#: (:mod:`repro.matching.grams`) where format 1 held gram strings.
#: Format 3: a BM25 index pickles its document bags (shared with the
#: target index's q-gram profiles) and rebuilds its postings on load,
#: where format 2 pickled the postings.  Format 4: a prepared target
#: pickles only what ``prepare()`` built — format 3 also carried the
#: run counter, tag memo and trained classifiers that runs wrote into
#: it — and its retrieval index no longer carries database metadata.
#: Format 5: prepared artifacts no longer pickle the matching system
#: that built them; they record only its configuration.  Format 6: a
#: prepared target no longer records a categorical policy (the test's
#: thresholds are fixed), the store holds prepared targets only, and
#: every manifest names the engine fingerprint that built its target.
STORE_FORMAT = 6

_MANIFEST_SUFFIX = ".json"
_BLOB_SUFFIX = ".blob"


@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """Manifest of one stored artifact — everything verifiable without
    touching the blob.

    ``token`` doubles as the blob digest (the store keys entries by the
    sha256 of the pickled payload); ``lookup_key`` digests the target
    database's content token and the preparing engine's ``fingerprint``
    (:meth:`ArtifactStore.find_target`).
    """

    token: str
    format: int
    version: str
    size_bytes: int
    created_at: float
    database: str
    tables: int
    fingerprint: str
    database_token: str
    lookup_key: str

    @property
    def loadable(self) -> bool:
        """Whether this library can load the entry: its store format and
        library version are this library's."""
        return self.format == STORE_FORMAT and self.version == __version__

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StoreEntry":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})

    def __str__(self) -> str:
        return (f"{self.token[:12]}  {self.database:<12} "
                f"{self.tables} tables  "
                f"{self.size_bytes} bytes  v{self.version}")


def _lookup_key(db_token: str, fingerprint: str) -> str:
    payload = f"{db_token}:{fingerprint}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _atomic_write(path: pathlib.Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class ArtifactStore:
    """A directory of prepared artifacts addressable by content token.

    Thread-safe for the operations the serving layer performs
    concurrently (token-addressed loads and reads, saves, listings):
    entries are immutable once their manifest exists, saves are atomic
    renames, the kept manifests sit behind a lock, and counters are
    simple integer bumps.  ``counters`` tracks ``saves`` (new blobs
    written), ``dedup_hits`` (saves that found their token already
    present), ``loads`` (verified blob deserializations), ``find_hits`` /
    ``find_misses`` (lookup-key probes).

    Example
    -------
    >>> import tempfile
    >>> from repro import MatchEngine
    >>> from repro.datagen import make_retail_workload
    >>> workload = make_retail_workload(target="ryan", seed=7)
    >>> store = ArtifactStore(tempfile.mkdtemp())
    >>> engine = MatchEngine()
    >>> entry = store.save(engine.prepare(workload.target), engine=engine)
    >>> loaded = store.load_target(entry.token)
    >>> loaded.table_names == engine.prepare(workload.target).table_names
    True
    """

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.counters: dict[str, int] = {
            "saves": 0, "dedup_hits": 0, "loads": 0,
            "find_hits": 0, "find_misses": 0,
        }
        #: The manifests this handle has parsed or written, by token.
        self._manifests: dict[str, StoreEntry] = {}
        self._manifests_lock = threading.Lock()

    # -- paths ---------------------------------------------------------
    def _manifest_path(self, token: str) -> pathlib.Path:
        return self.root / f"{token}{_MANIFEST_SUFFIX}"

    def _blob_path(self, token: str) -> pathlib.Path:
        return self.root / f"{token}{_BLOB_SUFFIX}"

    def __contains__(self, token: object) -> bool:
        return (isinstance(token, str)
                and self._manifest_path(token).is_file())

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"*{_MANIFEST_SUFFIX}"))

    # -- save ----------------------------------------------------------
    def save(self, prepared: Any, *, engine: Any) -> StoreEntry:
        """Persist a prepared target with the *engine* that prepared it;
        returns its manifest.

        The blob is pickled once; its sha256 is the entry's token.
        Saving the same content twice lands on one loadable entry
        (``dedup_hits``): by blob digest when the bytes repeat exactly,
        and otherwise by the (database token, engine fingerprint) lookup
        key — pickle bytes are *not* canonical across interpreter
        processes (hash randomization perturbs set/dict ordering), so
        the content-derived lookup key is what makes ``save`` idempotent
        across runs.  Anything but a
        :class:`~repro.engine.prepared.PreparedTarget` is refused with a
        :class:`StoreError`, and so is a target built under another
        standard-matcher configuration than *engine*'s: filed under
        *engine*'s lookup key, it would be handed to every later lookup
        for that engine.
        """
        # Imported here so the store stays importable from serialization
        # helpers without dragging the engine package into their import
        # graph at module load.
        from ..engine.prepared import PreparedTarget
        if not isinstance(prepared, PreparedTarget):
            raise StoreError(f"cannot store {type(prepared).__name__}: "
                             "expected a PreparedTarget")
        if prepared.standard_config != engine.config.standard:
            raise StoreError(
                "cannot save a PreparedTarget under an engine it was not "
                f"built by: its standard_config is "
                f"{prepared.standard_config}, the engine's is "
                f"{engine.config.standard}")
        blob = pickle.dumps(prepared, protocol=pickle.HIGHEST_PROTOCOL)
        token = blob_token(blob)
        if token in self:
            existing = self.entry(token)
            if existing.loadable:
                self.counters["dedup_hits"] += 1
                return existing
            # The same bytes under a manifest this library refuses: write
            # a current manifest over it.
        database = prepared.target
        db_token = database_token(database)
        fingerprint = fingerprint_token(engine)
        lookup = _lookup_key(db_token, fingerprint)
        for existing in self.entries():
            if existing.lookup_key == lookup and existing.loadable:
                self.counters["dedup_hits"] += 1
                return existing
        entry = StoreEntry(
            token=token, format=STORE_FORMAT,
            version=__version__, size_bytes=len(blob),
            created_at=time.time(), database=database.name,
            tables=len(tuple(database)), fingerprint=fingerprint,
            database_token=db_token, lookup_key=lookup)
        _atomic_write(self._blob_path(token), blob)
        _atomic_write(self._manifest_path(token),
                      (json.dumps(entry.to_dict(), indent=2, sort_keys=True)
                       + "\n").encode("utf-8"))
        self._keep(entry)
        self.counters["saves"] += 1
        return entry

    # -- manifests -----------------------------------------------------
    def _keep(self, entry: StoreEntry) -> None:
        with self._manifests_lock:
            self._manifests[entry.token] = entry

    def _forget(self, token: str) -> None:
        with self._manifests_lock:
            self._manifests.pop(token, None)

    def entry(self, token: str) -> StoreEntry:
        """The verified manifest of *token* (no blob access), read from
        disk; the parse replaces the one this handle kept."""
        try:
            entry = self._read_manifest(token)
        except StoreError:
            self._forget(token)
            raise
        self._keep(entry)
        return entry

    def _read_manifest(self, token: str) -> StoreEntry:
        path = self._manifest_path(token)
        if not path.is_file():
            raise ArtifactNotFoundError(token, str(self.root))
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            entry = StoreEntry.from_dict(data)
        except (ValueError, TypeError) as exc:
            raise ArtifactIntegrityError(
                f"unreadable manifest for artifact {token!r} in store "
                f"{self.root}: {exc}") from exc
        if entry.token != token:
            raise ArtifactIntegrityError(
                f"manifest for artifact {token!r} names token "
                f"{entry.token!r}; the store entry was tampered with or "
                "misfiled")
        return entry

    def entries(self) -> list[StoreEntry]:
        """Every readable manifest, newest first.  Unreadable manifests
        are skipped here (listing is a maintenance view);
        :meth:`load_target` and :meth:`gc` are where damage turns into
        errors/cleanup.

        The directory is listed on every call; only manifests this
        handle has not parsed before are parsed, and tokens no longer
        listed are forgotten.
        """
        tokens = [path.stem
                  for path in self.root.glob(f"*{_MANIFEST_SUFFIX}")]
        with self._manifests_lock:
            for gone in self._manifests.keys() - set(tokens):
                del self._manifests[gone]
            kept = dict(self._manifests)
        found = []
        for token in tokens:
            entry = kept.get(token)
            if entry is None:
                try:
                    entry = self.entry(token)
                except StoreError:
                    continue
            found.append(entry)
        found.sort(key=lambda e: e.created_at, reverse=True)
        return found

    def _check_compatible(self, entry: StoreEntry) -> None:
        if entry.format != STORE_FORMAT:
            raise ArtifactVersionError(
                f"artifact {entry.token!r} uses store format "
                f"{entry.format}, this library reads format "
                f"{STORE_FORMAT}; re-prepare and re-save the artifact")
        if entry.version != __version__:
            raise ArtifactVersionError(
                f"artifact {entry.token!r} was saved by repro "
                f"{entry.version}, this is repro {__version__}; prepared "
                "artifacts carry version-coupled internals — re-prepare "
                "and re-save the artifact")

    # -- load ----------------------------------------------------------
    def load_target(self, token: str) -> Any:
        """Load and verify the prepared target stored under *token*.

        Verification order: manifest readable → store format and library
        version match → blob present and its sha256 equals the token →
        only then ``pickle.loads``.  Every failure raises a typed
        :class:`StoreError` subclass.
        """
        entry = self.entry(token)
        self._check_compatible(entry)
        blob_path = self._blob_path(token)
        if not blob_path.is_file():
            raise ArtifactIntegrityError(
                f"artifact {token!r} has a manifest but no blob in store "
                f"{self.root}")
        blob = blob_path.read_bytes()
        if len(blob) != entry.size_bytes or blob_token(blob) != token:
            raise ArtifactIntegrityError(
                f"artifact {token!r} failed digest verification "
                f"({len(blob)} bytes on disk vs {entry.size_bytes} in the "
                "manifest); the blob is truncated or corrupt — delete it "
                "via gc() and re-save")
        prepared = pickle.loads(blob)
        self.counters["loads"] += 1
        return prepared

    # -- lookup --------------------------------------------------------
    def find_target(self, database: Any, engine: Any) -> str | None:
        """Token of the stored, loadable prepared target for (database,
        engine), or None."""
        wanted = _lookup_key(database_token(database),
                             fingerprint_token(engine))
        for entry in self.entries():
            if entry.lookup_key == wanted and entry.loadable:
                self.counters["find_hits"] += 1
                return entry.token
        self.counters["find_misses"] += 1
        return None

    def prepared_target(self, engine: Any, target: Any):
        """Get-or-build: the PreparedTarget for (engine, target), loaded
        from the store when present, otherwise prepared fresh and saved.
        """
        token = self.find_target(target, engine)
        if token is not None:
            return self.load_target(token)
        prepared = engine.prepare(target)
        self.save(prepared, engine=engine)
        return prepared

    # -- maintenance ---------------------------------------------------
    def gc(self, *, max_entries: int | None = None,
           verify: bool = True) -> dict[str, str]:
        """Sweep the store; returns {removed file stem: reason}.

        Removes blobs without manifests and manifests without blobs
        (interrupted saves), unreadable manifests, and — with *verify* —
        entries whose blob fails digest verification.  ``max_entries``
        then trims surviving entries to the newest N.  Version-mismatched
        entries are *kept*: they are valid data for the library that
        wrote them, and refusing to serve them is :meth:`load_target`'s
        job.
        """
        removed: dict[str, str] = {}

        def drop(token: str, reason: str) -> None:
            for path in (self._manifest_path(token), self._blob_path(token)):
                if path.is_file():
                    path.unlink()
            self._forget(token)
            removed[token] = reason

        manifests = {p.stem for p in self.root.glob(f"*{_MANIFEST_SUFFIX}")}
        blobs = {p.stem for p in self.root.glob(f"*{_BLOB_SUFFIX}")}
        for stem in sorted(blobs - manifests):
            drop(stem, "orphan-blob")
        survivors: list[StoreEntry] = []
        for stem in sorted(manifests):
            try:
                entry = self.entry(stem)
            except StoreError:
                drop(stem, "unreadable-manifest")
                continue
            blob_path = self._blob_path(stem)
            if not blob_path.is_file():
                drop(stem, "orphan-manifest")
                continue
            if verify:
                blob = blob_path.read_bytes()
                if (len(blob) != entry.size_bytes
                        or blob_token(blob) != stem):
                    drop(stem, "corrupt-blob")
                    continue
            survivors.append(entry)
        if max_entries is not None and len(survivors) > max_entries:
            survivors.sort(key=lambda e: e.created_at, reverse=True)
            for entry in survivors[max_entries:]:
                drop(entry.token, "evicted")
        return removed

    def remove(self, token: str) -> None:
        """Delete one entry (manifest + blob); missing tokens error."""
        if token not in self:
            raise ArtifactNotFoundError(token, str(self.root))
        for path in (self._manifest_path(token), self._blob_path(token)):
            if path.is_file():
                path.unlink()
        self._forget(token)

    def total_bytes(self) -> int:
        """Bytes of blob payload currently stored."""
        return sum(p.stat().st_size
                   for p in self.root.glob(f"*{_BLOB_SUFFIX}"))

    def __repr__(self) -> str:
        return f"<ArtifactStore {self.root} ({len(self)} entries)>"
