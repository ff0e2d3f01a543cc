"""Tokenizers shared by matchers and classifiers.

The paper's instance matchers and the ``SrcClassInfer`` Naive Bayes
classifier both work on character q-grams (3-grams, Section 3.2.3); the
name matcher works on word tokens split at case and punctuation boundaries.

Tokenization is the innermost loop of both instance matching and
classifier inference, and the same data values flow through it many times
— once per matcher during profiling, once per Naive Bayes teach/classify,
once per target-column tagging.  :class:`QGramCache` memoizes the
``value_to_text`` + ``qgrams`` composition per distinct value;
:func:`cached_qgrams` is the shared entry point and
:func:`token_cache_counters` exposes hit/miss telemetry for the engine's
stage reports.

Which cache :func:`cached_qgrams` uses is held in a
:class:`contextvars.ContextVar`.  Outside a match run it is the process
cache :data:`TOKEN_CACHE`, so ``prepare()`` calls over hubs that share
values tokenize each value once.  A match run enters
:func:`token_cache_scope`, which swaps in a fresh cache for that run (and
that thread) only: a request's source values are dropped with the run
instead of accumulating in a long-lived server, and concurrent runs
count only their own hits and misses.
"""

from __future__ import annotations

import contextlib
import contextvars
import re
from typing import Any, Iterable, Iterator

__all__ = ["qgrams", "qgram_set", "word_tokens", "normalize_text",
           "value_to_text", "QGramCache", "cached_qgrams",
           "token_cache_counters", "clear_token_cache", "token_cache_scope"]

_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9]+")


def value_to_text(value: Any) -> str:
    """Canonical text rendering of a data value for token-level comparison."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def normalize_text(text: str) -> str:
    """Lowercase and collapse runs of non-alphanumerics to single spaces."""
    return _NON_ALNUM_RE.sub(" ", text.lower()).strip()


def word_tokens(text: str) -> list[str]:
    """Split identifiers / phrases into lowercase word tokens.

    Handles camelCase (``ItemType`` -> ``item``, ``type``), snake_case and
    punctuation, so schema attribute names from different conventions
    tokenize identically.
    """
    text = _CAMEL_RE.sub(" ", text)
    return [t for t in normalize_text(text).split(" ") if t]


def qgrams(text: str, q: int = 3, *, pad: bool = True) -> list[str]:
    """Character q-grams of *text* (default 3-grams, as in the paper).

    With ``pad`` the string is wrapped in ``q - 1`` boundary markers so that
    prefixes and suffixes produce distinguishing grams; a string shorter than
    ``q`` still yields at least one gram.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    text = normalize_text(text)
    if not text:
        return []
    if pad and q > 1:
        marker = "#" * (q - 1)
        text = f"{marker}{text}{marker}"
    if len(text) < q:
        return [text]
    return [text[i:i + q] for i in range(len(text) - q + 1)]


def qgram_set(values: Iterable[Any], q: int = 3) -> frozenset[str]:
    """Union of q-grams over the text renderings of *values*."""
    grams: set[str] = set()
    for value in values:
        grams.update(cached_qgrams(value, q))
    return frozenset(grams)


class QGramCache:
    """Memo of ``qgrams(value_to_text(value), q)`` keyed by distinct value.

    The key includes the value's concrete class: ``1``, ``1.0`` and ``True``
    hash equal but render to different texts (``"1"`` vs ``"true"``), so a
    plain value key would alias them.  Unhashable values bypass the cache.
    The cache is cleared wholesale when it reaches ``max_entries`` — a
    simple, deterministic bound that never changes results (the cached
    function is pure).
    """

    def __init__(self, max_entries: int = 1 << 20):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._grams: dict[tuple, tuple[str, ...]] = {}
        self.hits = 0
        self.misses = 0

    def qgrams(self, value: Any, q: int = 3) -> tuple[str, ...]:
        """Cached q-grams of *value*'s canonical text rendering."""
        try:
            key = (q, value.__class__, value)
            cached = self._grams.get(key)
        except TypeError:  # unhashable value — compute without caching
            self.misses += 1
            return tuple(qgrams(value_to_text(value), q))
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        grams = tuple(qgrams(value_to_text(value), q))
        if len(self._grams) >= self.max_entries:
            self._grams.clear()
        self._grams[key] = grams
        return grams

    def counters(self) -> dict[str, int]:
        """Cumulative hit/miss counts (snapshot/delta like the profile
        store's counters)."""
        return {"token_cache_hits": self.hits,
                "token_cache_misses": self.misses}

    def clear(self) -> None:
        """Drop every cached tokenization (counters keep accumulating)."""
        self._grams.clear()

    def __len__(self) -> int:
        return len(self._grams)


#: The process cache: tokenization outside a match run (``prepare()``,
#: direct classifier and matcher use) goes through it.  Pure-function
#: memoization: sharing it never changes results, only the telemetry.
TOKEN_CACHE = QGramCache()

_ACTIVE: contextvars.ContextVar[QGramCache] = contextvars.ContextVar(
    "repro_token_cache", default=TOKEN_CACHE)


@contextlib.contextmanager
def token_cache_scope() -> Iterator[QGramCache]:
    """Route :func:`cached_qgrams` through a fresh :class:`QGramCache` for
    the body of the ``with`` block, in the current context only."""
    cache = QGramCache()
    token = _ACTIVE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE.reset(token)


def cached_qgrams(value: Any, q: int = 3) -> tuple[str, ...]:
    """q-grams of ``value_to_text(value)`` through the active cache."""
    return _ACTIVE.get().qgrams(value, q)


def token_cache_counters() -> dict[str, int]:
    """Snapshot of the active cache's cumulative hit/miss counters."""
    return _ACTIVE.get().counters()


def clear_token_cache() -> None:
    """Reset the active cache's entries (benchmarks isolate runs with it)."""
    _ACTIVE.get().clear()
