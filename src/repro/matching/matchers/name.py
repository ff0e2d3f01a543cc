"""Schema-level name matcher.

Compares attribute names (and a light table-name context) using word-token
overlap plus Jaro-Winkler on the normalized strings.  This is the classic
"linguistic" matcher of systems like Cupid; in our zoo it supplies the
schema-metadata evidence of Section 2.3.

Attribute names do not change from one candidate view to the next: the
matcher is view-invariant, so ``ScoreMatch`` scores an attribute's name
once per frontier for all its views, and the pure two-name score sits
behind a bounded process-wide memo for the standard-match stage and for
repeated frontiers.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

from ..similarity import jaro_winkler
from ..tokens import normalize_text, word_tokens
from .base import AttributeSample, Matcher

__all__ = ["NameMatcher"]

#: Synonym groups folded to a canonical token before comparison.  These are
#: the ubiquitous database naming variants; extend via NameMatcher(synonyms=).
DEFAULT_SYNONYMS: dict[str, str] = {
    "identifier": "id", "idnum": "id", "num": "id", "number": "id", "no": "id",
    "name": "title", "caption": "title",
    "cost": "price", "amount": "price", "amt": "price",
    "category": "type", "kind": "type", "class": "type",
    "description": "descr", "desc": "descr",
    "quantity": "qty", "count": "qty",
    "telephone": "phone", "tel": "phone",
}


@dataclasses.dataclass(frozen=True)
class _NameProfile:
    raw: str
    tokens: frozenset[str]


@functools.lru_cache(maxsize=1 << 16)
def _name_similarity(source_raw: str, source_tokens: frozenset[str],
                     target_raw: str, target_tokens: frozenset[str],
                     token_share: float) -> float:
    """Token Jaccard blended with Jaro-Winkler — a pure function of the
    two names' profiles, memoized by them."""
    if source_tokens or target_tokens:
        union = len(source_tokens | target_tokens)
        token_sim = len(source_tokens & target_tokens) / union if union else 0.0
    else:
        token_sim = 0.0
    string_sim = jaro_winkler(source_raw, target_raw)
    return token_share * token_sim + (1 - token_share) * string_sim


class NameMatcher(Matcher):
    """Similarity of attribute names: token Jaccard blended with Jaro-Winkler."""

    name = "name"
    #: The profile depends only on the attribute name, which every cell of
    #: a partitioned attribute shares — any member profile is the union's.
    mergeable = True
    #: ... and no view of the attribute changes it.
    view_invariant = True

    def __init__(self, *, weight: float = 1.0,
                 synonyms: dict[str, str] | None = None,
                 token_share: float = 0.6):
        self.weight = weight
        self._synonyms = DEFAULT_SYNONYMS if synonyms is None else synonyms
        if not 0.0 <= token_share <= 1.0:
            raise ValueError("token_share must be within [0, 1]")
        self._token_share = token_share

    def _canonical(self, token: str) -> str:
        return self._synonyms.get(token, token)

    def profile(self, sample: AttributeSample) -> _NameProfile:
        tokens = frozenset(self._canonical(t) for t in word_tokens(sample.name))
        return _NameProfile(normalize_text(sample.name).replace(" ", ""), tokens)

    def merge_profiles(self, profiles) -> _NameProfile:
        return next(iter(profiles))

    def score_profiles(self, source: _NameProfile, target: _NameProfile) -> float:
        return _name_similarity(source.raw, source.tokens, target.raw,
                                target.tokens, self._token_share)

    def score_block(self, source: _NameProfile,
                    block: Sequence[_NameProfile],
                    positions: Sequence[int]) -> list[float]:
        raw, tokens, share = source.raw, source.tokens, self._token_share
        return [_name_similarity(raw, tokens, block[i].raw, block[i].tokens,
                                 share) for i in positions]
