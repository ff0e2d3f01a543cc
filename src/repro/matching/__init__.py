"""Standard (non-contextual) schema matching — paper Section 2.3.

The contextual layer (:mod:`repro.context`) treats this package as a black
box via the :class:`MatchingSystem` protocol; any instance-based matcher
implementing that protocol can be substituted.
"""

from .combiner import CombinedScore, MatcherEvidence, combine_evidence
from .matchers import (AttributeSample, Matcher, NameMatcher, NumericMatcher,
                       QGramMatcher, TypeMatcher, ValueOverlapMatcher,
                       default_matchers)
from .normalize import confidences_from_scores
from .similarity import (containment, cosine_counts, dice, jaccard, jaro,
                         jaro_winkler, levenshtein, levenshtein_similarity)
from .standard import (AttributeMatch, MatchingSystem, StandardMatch,
                       StandardMatchConfig, TargetIndex)
from .tokens import (QGramCache, cached_codes, clear_token_cache,
                     normalize_text, qgrams, token_cache_counters,
                     value_to_text, word_tokens)

__all__ = [
    "AttributeMatch",
    "AttributeSample",
    "Matcher",
    "MatchingSystem",
    "StandardMatch",
    "StandardMatchConfig",
    "TargetIndex",
    "NameMatcher",
    "QGramMatcher",
    "NumericMatcher",
    "ValueOverlapMatcher",
    "TypeMatcher",
    "default_matchers",
    "CombinedScore",
    "MatcherEvidence",
    "combine_evidence",
    "confidences_from_scores",
    "levenshtein",
    "levenshtein_similarity",
    "jaro",
    "jaro_winkler",
    "jaccard",
    "dice",
    "containment",
    "cosine_counts",
    "qgrams",
    "word_tokens",
    "normalize_text",
    "value_to_text",
    "QGramCache",
    "cached_codes",
    "token_cache_counters",
    "clear_token_cache",
]
