"""Tokenizers shared by matchers and classifiers.

The paper's instance matchers and the ``SrcClassInfer`` Naive Bayes
classifier both work on character q-grams (3-grams, Section 3.2.3); the
name matcher works on word tokens split at case and punctuation boundaries.

Tokenization is the innermost loop of both instance matching and
classifier inference, and the same data values flow through it many times
— once per matcher during profiling, once per Naive Bayes teach/classify,
once per target-column tagging.  :class:`QGramCache` memoizes, per
distinct value, the integer codes (:mod:`repro.matching.grams`) of
``qgrams(value_to_text(value), q)``: one code array per value, in gram
order.  :func:`cached_codes_many` is the shared entry point — it looks up
each value once and encodes a batch's misses in one numpy pass — and
:func:`token_cache_counters` exposes hit/miss telemetry (one lookup per
value) for the engine's stage reports.  :func:`qgrams` remains the
string-level definition the codes encode.

Which cache :func:`cached_codes_many` uses is held in a
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
from typing import Any, Iterator, Sequence

import numpy as np

from . import grams

__all__ = ["qgrams", "word_tokens", "normalize_text", "value_to_text",
           "QGramCache", "cached_codes", "cached_codes_many",
           "token_cache_counters", "token_cache_scope"]

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


class QGramCache:
    """Memo of the gram codes of ``qgrams(value_to_text(value), q)``,
    keyed by distinct value.

    The key includes the value's concrete class: ``1``, ``1.0`` and
    ``True`` hash equal but render to different texts (``"1"`` vs
    ``"true"``), so a plain value key would alias them.  Unhashable values
    bypass the cache.  Each value looked up counts one hit or one miss,
    in order, so a value repeated within a batch of misses counts one
    miss and then hits.  The cache is cleared wholesale when it reaches
    ``max_entries`` — a simple, deterministic bound that never changes
    results (the cached function is pure).
    """

    def __init__(self, max_entries: int = 1 << 20):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._codes: dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def codes(self, value: Any, q: int = 3) -> np.ndarray:
        """Cached gram codes of *value*'s canonical text rendering."""
        try:
            cached = self._codes.get((q, value.__class__, value))
        except TypeError:
            cached = None
        if cached is not None:
            self.hits += 1
            return cached
        return self.codes_many((value,), q)[0]

    def codes_many(self, values: Sequence[Any],
                   q: int = 3) -> list[np.ndarray]:
        """:meth:`codes` of each of *values*; the misses are encoded
        together."""
        cache = self._codes
        out: list[Any] = []
        missed: dict[tuple, list[int]] = {}
        loose: list[int] = []  # unhashable values: encoded, never kept
        for position, value in enumerate(values):
            key = (q, value.__class__, value)
            try:
                cached = cache.get(key)
            except TypeError:
                loose.append(position)
                out.append(None)
                continue
            if cached is None:
                missed.setdefault(key, []).append(position)
            out.append(cached)
        if not missed and not loose:
            self.hits += len(values)
            return out
        self.misses += len(missed) + len(loose)
        self.hits += len(values) - len(missed) - len(loose)
        keys = list(missed)
        firsts = [missed[key][0] for key in keys] + loose
        encoded = grams.encode_texts(
            [normalize_text(value_to_text(values[position]))
             for position in firsts], q)
        for key, codes in zip(keys, encoded):
            if len(cache) >= self.max_entries:
                cache.clear()
            cache[key] = codes
            for position in missed[key]:
                out[position] = codes
        for position, codes in zip(loose, encoded[len(keys):]):
            out[position] = codes
        return out

    def counters(self) -> dict[str, int]:
        """Cumulative hit/miss counts (snapshot/delta like the profile
        store's counters)."""
        return {"token_cache_hits": self.hits,
                "token_cache_misses": self.misses}

    def clear(self) -> None:
        """Drop every cached tokenization (counters keep accumulating)."""
        self._codes.clear()

    def __len__(self) -> int:
        return len(self._codes)


#: The process cache: tokenization outside a match run (``prepare()``,
#: direct classifier and matcher use) goes through it.  Pure-function
#: memoization: sharing it never changes results, only the telemetry.
TOKEN_CACHE = QGramCache()

_ACTIVE: contextvars.ContextVar[QGramCache] = contextvars.ContextVar(
    "repro_token_cache", default=TOKEN_CACHE)


@contextlib.contextmanager
def token_cache_scope() -> Iterator[QGramCache]:
    """Route :func:`cached_codes_many` through a fresh :class:`QGramCache` for
    the body of the ``with`` block, in the current context only."""
    cache = QGramCache()
    token = _ACTIVE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE.reset(token)


def cached_codes(value: Any, q: int = 3) -> np.ndarray:
    """Gram codes of ``value_to_text(value)`` through the active cache."""
    return _ACTIVE.get().codes(value, q)


def cached_codes_many(values: Sequence[Any],
                      q: int = 3) -> list[np.ndarray]:
    """Gram codes of each of *values* through the active cache."""
    return _ACTIVE.get().codes_many(values, q)


def token_cache_counters() -> dict[str, int]:
    """Snapshot of the active cache's cumulative hit/miss counters."""
    return _ACTIVE.get().counters()

