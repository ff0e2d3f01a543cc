"""Incremental hub maintenance: append rows without re-preparing.

A hub schema's prepared artifact is a pure function of its instance, so
appending rows *could* just rebuild everything — but everything is
exactly what a repository of large, mostly-stable hubs cannot afford to
rebuild per trickle of new rows.  This module grows a
:class:`~repro.engine.prepared.PreparedTarget` in place of a rebuild,
component by component, and the result is pinned **bit-identical** to a
fresh :meth:`~repro.engine.engine.MatchEngine.prepare` of the grown
database (the golden tier asserts it):

* **Matcher profiles** — additive matchers (:attr:`Matcher.mergeable`:
  q-gram, token, name, type counts) compose the grown column's profile
  from the cached profile plus a delta profile via
  :meth:`~repro.matching.matchers.base.Matcher.merge_profiles`, whose
  contract is exact equality with profiling the concatenated sample.
  Non-additive matchers re-profile just the touched column.
* **Sampling caps** — thinning breaks additivity, so a touched column
  composes only while the grown sample still fits
  ``standard_config.sample_limit`` (a thinned sample is never extended;
  the column falls back to a full re-profile, which is what a fresh
  prepare would compute anyway).
* **Target classifiers** — Naive Bayes counts are additive and Gaussian
  per-label value lists are append-only, so warm classifiers are
  *delta-taught* on just the new values instead of retrained, provided
  no touched column crosses the training sample cap.  Classify outputs
  are tie-broken on ``(posterior, count, repr(label))``, never on
  teaching order, so delta-taught classifiers answer bit-identically to
  a fresh train.  Cold (never-trained) artifacts stay cold — lazy
  training on the grown database is already the fresh behavior.

Untouched columns keep their cached samples and profiles verbatim.  The
grown artifact is assembled by
:meth:`~repro.engine.prepared.PreparedTarget.build`, as a fresh prepare
assembles it: the matchers' scoring blocks, the categorical analysis and
— where the engine's ``retrieval_top_k`` is below the target's attribute
count — the retrieval prefilter are recomputed (all cheap — the blocks
and the retrieval index reuse the q-gram profiles without
re-tokenizing).
"""

from __future__ import annotations

import pickle
from typing import Any, Mapping, MutableMapping, Sequence

from ..engine.prepared import PreparedTarget
from ..matching.matchers.base import AttributeSample
from ..matching.standard import TargetIndex
from ..relational.instance import Database, Relation
from ..relational.schema import AttributeRef
from ..relational.types import is_missing

__all__ = ["append_rows_prepared"]


def _delta_relations(target: Database,
                     rows: Mapping[str, Sequence[Any]]
                     ) -> dict[str, Relation]:
    """Per-table delta relations (validates table names and row shapes)."""
    return {name: Relation.from_rows(target.relation(name).schema,
                                     list(table_rows))
            for name, table_rows in rows.items()}


def _grow_index(old: TargetIndex, new_db: Database,
                deltas: Mapping[str, Relation], limit: int | None,
                counters: MutableMapping[str, int] | None
                ) -> TargetIndex:
    """The grown target index: cached profiles extended column by column.

    A touched column composes (cached + delta profiles) only when the
    grown sample provably matches what :meth:`AttributeSample.from_column`
    would produce: the old sample unthinned and the grown one under the
    cap.  ``systematic_thin`` emits exactly ``limit`` values whenever it
    thins, so ``len(old) + len(delta) <= limit`` with a non-empty delta
    already implies the old sample was unthinned.
    """
    samples: list[AttributeSample] = []
    profiles: dict[str, list[object]] = {m.name: [] for m in old.matchers}
    position = 0
    for relation in new_db:
        delta = deltas.get(relation.name)
        for attribute in relation.schema:
            old_sample = old.samples[position]
            delta_clean = ([] if delta is None else
                           [v for v in delta.column(attribute.name)
                            if not is_missing(v)])
            if not delta_clean:
                # Nothing appended (or only NULLs): the fresh sample is
                # the cached one, profiles included.
                samples.append(old_sample)
                for matcher in old.matchers:
                    profiles[matcher.name].append(
                        old.profiles[matcher.name][position])
            elif (limit is None
                  or len(old_sample.values) + len(delta_clean) <= limit):
                sample = AttributeSample(
                    relation.name, attribute,
                    old_sample.values + tuple(delta_clean))
                delta_sample = AttributeSample(relation.name, attribute,
                                               tuple(delta_clean))
                samples.append(sample)
                for matcher in old.matchers:
                    if matcher.mergeable:
                        profiles[matcher.name].append(matcher.merge_profiles(
                            [old.profiles[matcher.name][position],
                             matcher.profile(delta_sample)]))
                        if counters is not None:
                            counters["profiles_merged"] += 1
                    else:
                        profiles[matcher.name].append(
                            matcher.profile(sample))
            else:
                # The grown column crosses (or the cached sample already
                # sat at) the sampling cap: thinning is not additive, so
                # re-profile this one column from the full grown bag.
                sample = AttributeSample.from_relation(
                    relation, attribute, limit=limit)
                samples.append(sample)
                for matcher in old.matchers:
                    profiles[matcher.name].append(matcher.profile(sample))
                if counters is not None:
                    counters["profiles_rebuilt"] += 1
            position += 1
    return TargetIndex.from_profiles(new_db, old.matchers, samples, profiles)


def _delta_teach(prepared: PreparedTarget, old_db: Database,
                 deltas: Mapping[str, Relation], cls_limit: int | None,
                 counters: MutableMapping[str, int] | None):
    """Delta-taught target classifiers, or None to force a lazy retrain.

    Returns None when the artifact was never trained (staying cold *is*
    the fresh behavior) or when a touched column would cross the
    training cap ``cls_limit`` — thinned training sets cannot be
    extended additively.
    """
    old_classifiers = prepared.target_classifiers
    if old_classifiers is None:
        return None
    touched: list[tuple[str, Any, list[Any]]] = []
    for name, delta in deltas.items():
        old_relation = old_db.relation(name)
        for attribute in delta.schema:
            values = delta.non_missing(attribute.name)
            if not values:
                continue
            if (cls_limit is not None
                    and len(old_relation.non_missing(attribute.name))
                    + len(values) > cls_limit):
                if counters is not None:
                    counters["classifier_retrains"] += 1
                return None
            touched.append((name, attribute, values))
    # Deep copy via pickle: lazily compiled matrices/fits are dropped by
    # the classifiers' __getstate__ hooks, and the cached artifact the
    # caller may still hold stays untouched.
    new_classifiers = pickle.loads(pickle.dumps(old_classifiers))
    for table, attribute, values in touched:
        classifier = new_classifiers.classifier_for(attribute.dtype)
        if classifier is None:  # pragma: no cover - schema is unchanged
            if counters is not None:
                counters["classifier_retrains"] += 1
            return None
        tag = str(AttributeRef(table, attribute.name))
        classifier.teach_many(values, [tag] * len(values))
        if counters is not None:
            counters["classifier_values_taught"] += len(values)
    return new_classifiers


def append_rows_prepared(prepared: PreparedTarget,
                         rows: Mapping[str, Sequence[Any]], *,
                         engine,
                         counters: MutableMapping[str, int] | None = None
                         ) -> PreparedTarget:
    """A new :class:`PreparedTarget` with *rows* appended to its tables.

    *rows* maps table names to sequences of dict rows (missing keys
    become NULLs) or schema-order tuples.  The input artifact is left
    untouched; the returned one is bit-identical — same index samples
    and profiles, same match results — to ``engine.prepare`` of the
    grown database.  ``engine`` supplies the lazy classifier-training
    cap (``config.standard.sample_limit``), mirroring what a match run
    against the fresh artifact would train under, and the
    ``config.retrieval_top_k`` that decides, as in its ``prepare``,
    whether the grown artifact carries a retrieval index.
    """
    deltas = _delta_relations(prepared.target, rows)
    new_relations = [relation.concat(deltas[relation.name])
                     if relation.name in deltas else relation
                     for relation in prepared.target]
    new_db = Database(prepared.target.schema, new_relations)

    index = _grow_index(prepared.index, new_db, deltas,
                        prepared.standard_config.sample_limit, counters)
    classifiers = _delta_teach(prepared, prepared.target, deltas,
                               engine.config.standard.sample_limit, counters)
    grown = PreparedTarget.build(
        new_db, index, standard_config=prepared.standard_config,
        policy=prepared.policy, matcher=prepared.matcher,
        retrieval_top_k=engine.config.retrieval_top_k)
    grown.target_classifiers = classifiers
    return grown
