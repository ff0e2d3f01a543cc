"""Contextual schema matching — the paper's core contribution (Section 3).

The pipeline itself is driven by :class:`~repro.engine.MatchEngine` (see
:mod:`repro.engine`); :class:`ContextMatch`, configured by
:class:`ContextMatchConfig`, remains as a backward-compatible facade.
Results arrive as :class:`MatchResult` holding :class:`ContextualMatch`
triples ``(RS.s, RT.t, condition)`` plus a per-stage
:class:`~repro.engine.RunReport`.
"""

from .candidates import (CandidateViewGenerator, FamilyAssessor,
                         InferenceContext, InferenceStats, NaiveInfer,
                         SrcClassInfer, TgtClassInfer, make_generator,
                         set_partitions)
from .categorical import (CategoricalPolicy, categorical_attributes,
                          is_categorical)
from .conjunctive import refine_conjunctive
from .contextmatch import ContextMatch
from .model import (CandidateScore, ContextMatchConfig, ContextualMatch,
                    MatchResult)
from .score import score_relation_candidates
from .serialize import (attribute_match_from_dict, attribute_match_to_dict,
                        condition_from_dict, condition_to_dict,
                        config_from_dict, config_to_dict, match_from_dict,
                        match_to_dict, report_from_dict, report_to_dict,
                        result_from_dict, result_to_dict)
from .select import multi_table, qual_table, select_matches

__all__ = [
    "ContextMatch",
    "ContextMatchConfig",
    "ContextualMatch",
    "MatchResult",
    "CandidateScore",
    "CandidateViewGenerator",
    "FamilyAssessor",
    "InferenceContext",
    "InferenceStats",
    "NaiveInfer",
    "SrcClassInfer",
    "TgtClassInfer",
    "make_generator",
    "set_partitions",
    "CategoricalPolicy",
    "is_categorical",
    "categorical_attributes",
    "condition_to_dict",
    "condition_from_dict",
    "config_to_dict",
    "config_from_dict",
    "match_to_dict",
    "match_from_dict",
    "attribute_match_to_dict",
    "attribute_match_from_dict",
    "report_to_dict",
    "report_from_dict",
    "result_to_dict",
    "result_from_dict",
    "score_relation_candidates",
    "multi_table",
    "qual_table",
    "select_matches",
    "refine_conjunctive",
]
