"""batch-wide: parallel match batches against a wide hub target.

In process, ``MatchEngine.match_many`` runs every batch through one
long-lived ``MatchExecutor(ExecutorConfig.for_jobs(2))`` (process
backend, shared-memory transport).  A batch is four distinct retail
sources (gamma 4) matched against the ``retail`` scenario's target padded
with four noise attributes per table (22 target attributes, more than
``retrieval_top_k``), so retrieval prunes, score-candidates dominates a
run and the executor is busy.  HTTP, JSON and CSV are bypassed.

Set-up is prepare, executor creation and one warm-up batch of one source
per worker (pool start, artifact shipping, each worker's lazy classifier
training).  The seed sets the order in which the sources arrive.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pathlib
import time
from multiprocessing import resource_tracker
from typing import Any

from repro import MatchEngine
from repro.context.serialize import result_to_dict
from repro.datagen.ground_truth import GroundTruth
from repro.datagen.registry import build_scenario, get_scenario
from repro.engine import ExecutorConfig, MatchExecutor
from repro.relational.instance import Database

from harness import (BackgroundProbe, Op, Phase, SetupClock, median,
                     peak_rss_mb)
from shared import (arrival_order, config, match_keys, mean_f_measure,
                    prepare, prepare_layers, report_layers, retail_source,
                    traced_prepare)
from spans import Tracer

WORKERS = 2
GAMMA = 4
PAD = 4
#: Seconds between probes during the timed loop.
PROBE_INTERVAL_S = 0.1

#: ``rows``: rows per source; ``batch``: sources per op;
#: ``shuffled_rate`` and ``rate_cap``: sources per second that the
#: seed-shuffled block and all inputs cover (see
#: ``shared.arrival_order``); the F-measure is the shuffled block's.
#: ``sample``: sources re-matched serially as a check.
SIZES = {
    "full": {"rows": 260, "batch": 4, "shuffled_rate": 0.95,
             "rate_cap": 2.0, "sample": 2},
    "tiny": {"rows": 40, "batch": 4, "shuffled_rate": 2.0,
             "rate_cap": 40.0, "sample": 1},
}


@dataclasses.dataclass
class Inputs:
    target: Database
    truth: GroundTruth
    sources: list[Database]
    shuffled: int
    size: dict[str, Any]

    def describe(self) -> dict[str, Any]:
        return {"target_attributes": sum(len(r.schema) for r in self.target),
                "target_rows": sum(len(r) for r in self.target),
                "sources": len(self.sources), "shuffled": self.shuffled,
                "source_rows": self.size["rows"],
                "batch": self.size["batch"]}


def make_inputs(seed: int, scale: str, seconds: float,
                work: pathlib.Path) -> Inputs:
    size = SIZES[scale]
    spec = dataclasses.replace(get_scenario("retail"), gamma=GAMMA,
                               knobs=(("pad", PAD),))
    scenario = build_scenario(spec)
    batch = size["batch"]
    count = WORKERS + batch * (1 + int(seconds * size["rate_cap"] / batch))
    shuffled = batch * max(1, int(seconds * size["shuffled_rate"] / batch))
    listed = [retail_source(spec.seed + 1 + i, rows=size["rows"],
                            gamma=GAMMA, pad=PAD) for i in range(count)]
    sources = [listed[i] for i in arrival_order(
        seed, fixed=WORKERS, shuffled=shuffled, total=count, group=batch)]
    return Inputs(target=scenario.target, truth=scenario.ground_truth,
                  sources=sources, shuffled=shuffled, size=size)


def _workers_peak_rss_mb() -> float:
    return sum(peak_rss_mb(child.pid)
               for child in multiprocessing.active_children())


def run_phase(inputs: Inputs, work: pathlib.Path, seconds: float, *,
              setups: int, tracer: Tracer | None, src: str) -> Phase:
    clock = SetupClock()
    executor: MatchExecutor | None = None
    try:
        for _ in range(setups):
            if executor is not None:
                executor.close()
            with clock:
                engine = MatchEngine(config())
                with traced_prepare(tracer):
                    prepared = prepare(engine, inputs.target, tracer)
                executor = MatchExecutor(ExecutorConfig.for_jobs(WORKERS))
                engine.match_many(inputs.sources[:WORKERS], prepared,
                                  executor=executor)
        ops, probes, batches, exhausted = _timed(inputs, engine, prepared,
                                                 executor, seconds, tracer)
        peak_rss = peak_rss_mb() + _workers_peak_rss_mb()
    finally:
        if executor is not None:
            executor.close()
        # The shared-memory transport started the tracker process; stop
        # it so the run leaves no process behind.
        resource_tracker._resource_tracker._stop()
    wall_s = ops[-1].ended - ops[0].started

    size = inputs.size
    for op, (sources, results, _) in zip(ops, batches):
        if len(results) != len(sources):
            op.ok = False
    first_sources, first_results, _ = batches[0]
    for source, result in list(zip(first_sources,
                                   first_results))[:size["sample"]]:
        serial = engine.match(source, prepared)
        if match_keys(result_to_dict(result)) != match_keys(
                result_to_dict(serial)):
            ops[0].ok = False
    block = [r for _, results, _ in batches for r in results
             ][:inputs.shuffled]
    phase = Phase(setup_s=clock.seconds, setup_probe_ms=clock.probe_ms,
                  ops=ops, probes=probes, wall_s=wall_s,
                  peak_rss_mb=peak_rss,
                  f_measure=mean_f_measure(block, inputs.truth),
                  detail={"f_sources": len(block),
                          "inputs_exhausted": exhausted})
    if tracer is not None:
        phase.layers = _layers(tracer, batches)
    return phase


def _timed(inputs: Inputs, engine: MatchEngine, prepared: Any,
           executor: MatchExecutor, seconds: float, tracer: Tracer | None):
    ops: list[Op] = []
    batches: list[tuple[list, list, Any]] = []
    # The batches keep both cores busy and a run holds only about ten of
    # them, too few gaps to sample the host's speed spells in, so the
    # probe runs beside them.
    probe = BackgroundProbe(PROBE_INTERVAL_S)
    try:
        exhausted = _batches(inputs, engine, prepared, executor, seconds,
                             tracer, ops, batches)
    finally:
        probes = probe.stop()
    return ops, probes, batches, exhausted


def _batches(inputs: Inputs, engine: MatchEngine, prepared: Any,
             executor: MatchExecutor, seconds: float, tracer: Tracer | None,
             ops: list[Op], batches: list) -> bool:
    """Run batches until *seconds* pass; True if the inputs ran out."""
    size = inputs.size["batch"]
    deadline = time.perf_counter() + seconds
    index = 1
    while time.perf_counter() < deadline:
        first = WORKERS + (index - 1) * size
        sources = inputs.sources[first:first + size]
        if len(sources) < size:
            return True
        started = time.perf_counter()
        if tracer is None:
            results = engine.match_many(sources, prepared,
                                        executor=executor)
        else:
            with tracer.span("engine.executor.match_many", op=index):
                results = engine.match_many(sources, prepared,
                                            executor=executor)
        ops.append(Op(index, started, time.perf_counter(), len(sources)))
        # The checks read matches and reports only; dropping the view
        # families keeps the run's memory from growing with its batches.
        for result in results:
            result.families.clear()
            result.candidates.clear()
        batches.append((sources, results, executor.last_throughput))
        index += 1
    return False


def _layers(tracer: Tracer, batches: list) -> dict[str, float]:
    throughputs = [throughput for _, _, throughput in batches]
    reports = [r.report for _, results, _ in batches for r in results]
    busy = [t.busy_seconds for t in throughputs]
    capacity = [t.wall_seconds * t.workers for t in throughputs]
    layers = {
        "engine.executor.busy_s": median(busy),
        "engine.executor.wait_s": median(
            [c - b for c, b in zip(capacity, busy)]),
        "engine.executor.utilization": sum(busy) / sum(capacity),
        "engine.executor.transfer_kb": median(
            [(t.prepare_transfer_bytes + t.shm_bytes) / 1024.0
             for t in throughputs]),
    }
    layers.update(report_layers(reports, stage_times=True))
    layers.update(prepare_layers(tracer, setup=True))
    return layers
