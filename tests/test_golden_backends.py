"""Artifact-shipping process grid (``pytest -m golden``).

``tests/test_golden_parallel.py`` pins the scenario fan-out, whose tasks
ship no prepared artifact.  This grid pins the other half of the parallel
executor: ``match_many`` over every registered scenario's *prepared
target*, fanned through a 2-worker process pool whose chunks each carry
the artifact's pickle, reproduces the serial engine's matches
bit-for-bit — every match, score, posterior and deterministic stage
count.

One executor serves all scenarios, so the run cycles every distinct
prepared artifact through one warm pool and the workers' bounded caches
(evicting past the cache cap), exactly as a long-lived routing service
would.
"""

from __future__ import annotations

import pytest

from repro import MatchEngine
from repro.context.serialize import result_to_dict
from repro.datagen import build_scenario, get_scenario, scenario_names
from repro.engine import ExecutorConfig, MatchExecutor
from repro.evaluation.scenarios import scenario_config

pytestmark = pytest.mark.golden


def _comparable(result):
    """Everything pinned across backends: matches, prototype scores and
    deterministic stage counts (timings and the process-global token-cache
    telemetry legitimately vary run to run)."""
    payload = result_to_dict(result)
    payload.pop("elapsed_seconds")
    report = payload["report"]
    report.pop("elapsed_seconds")
    for stage in report["stages"]:
        stage.pop("elapsed_seconds")
        for key in ("token_cache_hits", "token_cache_misses"):
            stage["counts"].pop(key, None)
    return payload


@pytest.fixture(scope="module")
def serial_reference():
    """Per scenario: engine, workload, prepared target and the serial
    result every backend must reproduce."""
    reference = {}
    for name in scenario_names():
        spec = get_scenario(name)
        workload = build_scenario(spec)
        engine = MatchEngine(scenario_config(spec))
        prepared = engine.prepare(workload.target)
        serial = engine.match(workload.source, prepared)
        reference[name] = (engine, workload, prepared, _comparable(serial))
    return reference


def test_match_many_bit_identical_on_one_pool(serial_reference):
    evictions = 0
    with MatchExecutor(ExecutorConfig(backend="process",
                                      max_workers=2)) as executor:
        pool = None
        for name, (engine, workload, prepared,
                   expected) in serial_reference.items():
            batch = executor.match_many(engine, [workload.source], prepared)
            assert batch.throughput.backend == "process"
            assert batch.throughput.transport == "pickle"
            assert batch.throughput.shm_bytes == 0
            evictions += batch.throughput.artifact_evictions
            assert _comparable(batch[0]) == expected, name
            pool = pool or executor._pool
            assert executor._pool is pool, name  # one pool, every target
        # Cycling more artifacts than the worker cache holds must evict
        # (and stay bit-identical while doing so).
        assert evictions > 0
