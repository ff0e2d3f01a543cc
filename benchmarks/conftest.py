"""Shared fixtures for the figure-reproduction benchmarks.

Each benchmark runs the matching experiment driver for one figure of the
paper exactly once under ``pytest-benchmark`` timing, prints the series the
figure plots, and persists it under ``benchmarks/results/`` so the output
survives non-verbose runs.

Performance benchmarks additionally persist machine-readable JSON via
``record_json`` (ops/sec, elapsed seconds, workload config) so the perf
trajectory is trackable across PRs — ``BENCH_*.json`` files under
``results/`` are committed and CI validates their schema.

The drivers run on :class:`~repro.MatchEngine` through the evaluation
layer's :class:`~repro.evaluation.EngineRunner`: workloads are memoized and
each distinct target is prepared once per sweep, so figure runtimes measure
the matching pipeline itself (``bench_engine_reuse.py`` quantifies what the
prepared-target reuse saves and ``bench_profile_reuse.py`` what the
columnar profiling subsystem saves on top).

Workload sizing goes through the scenario registry: benchmarks declare a
:class:`~repro.datagen.ScenarioSpec` and map it onto bench scale with
:func:`bench_scenario`, which resolves the ``BENCH_TINY`` environment
switch (CI smoke runs) onto a small spec instead of every script keeping
ad-hoc size constants.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from typing import Any, Mapping, Sequence

import pytest

from repro.datagen import ScenarioSpec
from repro.evaluation.reporting import format_series

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Seconds-scale smoke mode (CI): every benchmark swaps its full-scale
#: spec for the tiny one; schema and equivalence checks still apply,
#: speedup floors do not.
BENCH_TINY = bool(os.environ.get("BENCH_TINY"))


def bench_scenario(spec: ScenarioSpec, *, tiny_size: int, full_size: int,
                   tiny_target: int | None = None,
                   full_target: int | None = None) -> ScenarioSpec:
    """Map a scenario spec onto bench scale.

    ``BENCH_TINY`` selects ``tiny_size`` (and ``tiny_target`` rows per
    target table, when given) instead of the full-scale sizes — one
    switch, applied uniformly, instead of per-script size constants.
    """
    spec = spec.resized(tiny_size if BENCH_TINY else full_size)
    target = tiny_target if BENCH_TINY else full_target
    if target is not None:
        knobs = dict(spec.knobs)
        knobs["n_target"] = target
        spec = dataclasses.replace(spec, knobs=tuple(knobs.items()))
    return spec


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_series(results_dir):
    """Print a figure's series and persist it to results/<name>.txt."""

    def _record(name: str, title: str, xlabel: str,
                data: Mapping[object, Mapping[str, float]],
                series: Sequence[str]) -> str:
        text = format_series(title, xlabel, data, series)
        (results_dir / f"{name}.txt").write_text(text + "\n",
                                                 encoding="utf-8")
        print()
        print(text)
        return text

    return _record


@pytest.fixture()
def record_json(results_dir):
    """Persist a machine-readable benchmark payload to results/<name>.json.

    Payloads should carry at least ``benchmark`` (the emitting module),
    ``config`` (workload/engine knobs) and per-mode ``elapsed_seconds`` /
    ``ops_per_second`` measurements; CI's benchmark smoke job validates
    the committed files against that schema.
    """

    def _record(name: str, payload: Mapping[str, Any]) -> pathlib.Path:
        path = results_dir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"\n[recorded {path}]")
        return path

    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Time one execution of an experiment driver (sweeps are too heavy to
    repeat for statistical timing; wall-clock of a single run is the
    figure-level measurement)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
