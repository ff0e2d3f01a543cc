"""Standard (non-contextual) schema matching — paper Section 2.3.

The contextual layer (:mod:`repro.context`) treats :class:`StandardMatch`
as a black box: it asks for accepted matches and for rescorings of
candidate views, nothing else.  Matchers compose in its zoo
(``StandardMatch(matchers=...)``, any :class:`Matcher` objects).
"""

from .combiner import CombinedScore, MatcherEvidence, combine_evidence
from .matchers import (AttributeSample, Matcher, NameMatcher, NumericMatcher,
                       QGramMatcher, TypeMatcher, ValueOverlapMatcher,
                       default_matchers)
from .normalize import confidences_from_scores
from .similarity import (containment, cosine_counts, jaccard, jaro,
                         jaro_winkler)
from .standard import (AttributeMatch, StandardMatch, StandardMatchConfig,
                       TargetIndex)
from .tokens import (QGramCache, cached_codes, normalize_text, qgrams,
                     token_cache_counters, value_to_text, word_tokens)

__all__ = [
    "AttributeMatch",
    "AttributeSample",
    "Matcher",
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
    "jaro",
    "jaro_winkler",
    "jaccard",
    "containment",
    "cosine_counts",
    "qgrams",
    "word_tokens",
    "normalize_text",
    "value_to_text",
    "QGramCache",
    "cached_codes",
    "token_cache_counters",
]
