"""Matching does not depend on the process's string hash seed.

Label tie-breaks compare :func:`~repro.classifiers.base.label_key`, which
lists a merged label group's members sorted rather than in set iteration
order (which for strings follows ``PYTHONHASHSEED``).  The early-disjunct
merge loop of the conjunctive refinement stage decides ties between such
groups, so two scenarios whose refinement met those ties run here in
subprocesses under four hash seeds and must return equal matches and
stage counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.classifiers.base import label_key

SCRIPT = """
import dataclasses, json
from repro import ContextMatchConfig, MatchEngine
from repro.context.serialize import result_to_dict
from repro.datagen.registry import build_scenario, get_scenario

out = {}
for name in ("ingestion", "events-nulls"):
    spec = get_scenario(name)
    workload = build_scenario(spec)
    overrides = dict(spec.config_overrides(), inference="src",
                     conjunctive_stages=2)
    config = dataclasses.replace(ContextMatchConfig(), **overrides)
    engine = MatchEngine(config)
    result = engine.match(workload.source, engine.prepare(workload.target))
    payload = result_to_dict(result)
    out[name] = {
        "matches": payload["matches"],
        "families": payload["n_families"],
        "candidates": payload["n_candidates"],
        "counts": [[stage.name, stage.counts]
                   for stage in result.report.stages],
    }
print(json.dumps(out, sort_keys=True))
"""


def _run(seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    completed = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                               capture_output=True, text=True, check=True,
                               timeout=300)
    return json.loads(completed.stdout)


def test_conjunctive_runs_agree_across_hash_seeds():
    runs = [_run(seed) for seed in (1, 2, 3, 4)]
    assert runs[0]["ingestion"]["matches"]
    for other in runs[1:]:
        assert other == runs[0]


def test_label_key_sorts_set_members():
    assert label_key("Book") == repr("Book")
    assert label_key(3) == "3"
    assert label_key(frozenset({"CD", "Book"})) == "frozenset({'Book', 'CD'})"
    assert label_key(frozenset({"Book"})) == repr(frozenset({"Book"}))
    assert label_key(frozenset({2, 10})) == "frozenset({10, 2})"
    assert label_key(frozenset()) == "frozenset()"
