"""Parallel-backend equivalence grid (``pytest -m golden``).

The acceptance pin of the parallel executor: fanning every registered
scenario out across worker processes reproduces the serial backend's
matches, posteriors and golden metrics exactly — and stays within the
committed ``tests/golden/`` baselines (the process backend must meet the
serial numbers; the baselines are never regenerated for it).

One pool serves the whole grid (scenario tasks ship no prepared
artifact, so the pool is reused across every scenario), which also
exercises the worker-side cache's pool-lifetime behavior at scale.  The
artifact-shipping half of the story — ``match_many`` over prepared
targets — is pinned by ``tests/test_golden_backends.py``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.datagen import scenario_names
from repro.engine import ExecutorConfig, MatchExecutor
from repro.evaluation import (compare_to_golden, golden_payload,
                              run_scenario, run_scenarios)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

pytestmark = pytest.mark.golden


@pytest.fixture(scope="module")
def parallel_results():
    """Every registered scenario, run once through a 2-worker process
    pool."""
    names = scenario_names()
    with MatchExecutor(ExecutorConfig(backend="process",
                                      max_workers=2)) as executor:
        batch = run_scenarios(names, executor=executor)
    assert batch.throughput.backend == "process"
    assert batch.throughput.tasks == len(names)
    assert batch.throughput.chunks >= 1
    return dict(zip(names, batch.results))


@pytest.mark.parametrize("name", scenario_names())
def test_parallel_backend_matches_serial(name, parallel_results):
    """Golden payload (metrics, counts, profile counters) and the
    deterministic per-stage counts agree exactly with an in-process run."""
    serial = run_scenario(name)
    parallel = parallel_results[name]
    assert golden_payload(serial) == golden_payload(parallel)
    serial_stages = {s.name: s.counts for s in serial.report.stages}
    parallel_stages = {s.name: s.counts for s in parallel.report.stages}
    assert serial_stages.keys() == parallel_stages.keys()
    for stage, counts in serial_stages.items():
        for key, value in counts.items():
            if key.startswith("token_cache"):
                continue  # process-global memo telemetry, not run state
            assert parallel_stages[stage].get(key) == value, (stage, key)


@pytest.mark.parametrize("name", scenario_names())
def test_parallel_backend_within_golden_baselines(name, parallel_results):
    """The fan-out results clear the committed baselines as-is."""
    golden = json.loads((GOLDEN_DIR / f"{name}.json")
                        .read_text(encoding="utf-8"))
    violations = compare_to_golden(parallel_results[name], golden)
    assert not violations, (
        f"parallel backend regressed scenario {name!r}:\n"
        + "\n".join(f"  - {v}" for v in violations))
