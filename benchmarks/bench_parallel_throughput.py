"""Parallel-executor benchmark: serial vs process ``match_many``.

Times a 20-source ``match_many`` batch against one shared prepared target
on both :class:`~repro.engine.MatchExecutor` backends:

* ``serial``: the in-process reference — tasks run sequentially on one
  core, sharing the caller's prepared artifacts directly;
* ``process``: a 4-worker ``ProcessPoolExecutor`` whose every chunk
  carries the prepared artifact's pickle.

Both must produce identical matches for every source.  The two timed
batches start from equal cache warmth: one untimed ``engine.match`` of an
extra source (not in the timed batch) first trains the lazily built
target classifiers into the shared artifact and fills the process-wide
q-gram cache with the target's values, and the process batch runs before
the serial one, so its forked workers inherit exactly the state the
serial batch starts from — never the serial batch's own cache fill.

The headline number is the process-vs-serial speedup, with a floor
*scaled to the host*: ``min(2.0, 0.6 * min(workers,
effective_parallelism))``, asserted whenever the host can actually run
>= 2 workers concurrently (and never under ``BENCH_TINY``).  Single-core
hosts still run both backends, verify equivalence, and record their
numbers with the host parallelism alongside — the committed JSON always
says what hardware produced it.

Results are persisted to machine-readable ``results/BENCH_parallel.json``
(version 3: per-mode wall/busy/chunk numbers, the bytes the process batch
actually sent — the artifact pickle times the chunks that carried it —,
the speedup and the floor decision).  Modes: ``BENCH_TINY=1`` for a
seconds-scale smoke run (CI — schema and equivalence only);
``BENCH_PROOF=1`` keeps the full-scale task batch but a small target, so
CI's multi-core ``parallel-proof`` lane measures the speedup floor without
paying for the 48k-row target.
"""

import os

from conftest import BENCH_TINY, run_once
from repro import ContextMatchConfig, ExecutorConfig, MatchEngine
from repro.engine import MatchExecutor
from repro.engine.executor import effective_parallelism
from repro.datagen import make_retail_workload

#: Speedup-floor lane (CI ``parallel-proof``): full-scale batch, small
#: target, floor asserted on any multi-core host.
BENCH_PROOF = bool(os.environ.get("BENCH_PROOF"))

MIN_SPEEDUP = 2.0
FLOOR_FACTOR = 0.6
WORKERS = 4
N_SOURCES = 4 if BENCH_TINY else 20
N_ROWS = 150 if BENCH_TINY else 2500
if BENCH_TINY:
    N_TARGET = 800
elif BENCH_PROOF:
    N_TARGET = 2000
else:
    N_TARGET = 48_000
CONFIG = dict(inference="src", seed=5)
GAMMA = 4


def _batch():
    """One shared target (N_TARGET rows), N_SOURCES independently-seeded
    sources and one more source for the untimed warm-up; the target is
    generated once, not once per source."""
    target = make_retail_workload(target="ryan", gamma=GAMMA,
                                  n_source=2, n_target=N_TARGET,
                                  seed=100).target
    sources = [make_retail_workload(target="ryan", gamma=GAMMA,
                                    n_source=N_ROWS, seed=100 + i).source
               for i in range(N_SOURCES + 1)]
    return sources[:-1], sources[-1], target


def _keys(result):
    return [(str(m.source), str(m.target), str(m.condition),
             m.score, m.confidence) for m in result.matches]


def _mode_payload(report):
    payload = {
        "elapsed_seconds": report.wall_seconds,
        "ops_per_second": report.tasks_per_second,
        "busy_seconds": report.busy_seconds,
        "chunks": report.chunks,
    }
    if report.backend == "process":
        payload["transport"] = report.transport
        payload["prepare_transfer_bytes"] = report.prepare_transfer_bytes
    return payload


def test_parallel_throughput(benchmark, record_json):
    sources, warm_source, target = _batch()
    engine = MatchEngine(ContextMatchConfig(**CONFIG))
    prepared = engine.prepare(target)
    engine.match(warm_source, prepared)  # untimed warm-up (see docstring)

    with MatchExecutor(ExecutorConfig(backend="process",
                                      max_workers=WORKERS)) as executor:
        process_batch = run_once(benchmark, executor.match_many,
                                 engine, sources, prepared)
    serial_batch = MatchExecutor(ExecutorConfig(backend="serial")) \
        .match_many(engine, sources, prepared)

    # Bit-identical fan-out: every source's matches agree across backends.
    for serial_result, process_result in zip(serial_batch, process_batch):
        assert _keys(process_result) == _keys(serial_result)

    serial = serial_batch.throughput
    process = process_batch.throughput
    speedup = (serial.wall_seconds / process.wall_seconds
               if process.wall_seconds > 0 else 0.0)

    parallelism = effective_parallelism()
    required = min(MIN_SPEEDUP,
                   FLOOR_FACTOR * min(WORKERS, parallelism))
    floor_asserted = not BENCH_TINY and parallelism >= 2

    record_json("BENCH_parallel", {
        "benchmark": "bench_parallel_throughput",
        "version": 3,
        "config": {**CONFIG, "gamma": GAMMA, "n_rows": N_ROWS,
                   "n_target": N_TARGET, "tiny": BENCH_TINY,
                   "proof": BENCH_PROOF},
        "n_sources": N_SOURCES,
        "workers": WORKERS,
        "host": {"effective_parallelism": parallelism},
        "warmup": {"untimed_matches": 1},
        "modes": {
            "serial": _mode_payload(serial),
            "process": _mode_payload(process),
        },
        "speedup": {"process_vs_serial": speedup},
        "floor": {"required": required, "factor": FLOOR_FACTOR,
                  "max_required": MIN_SPEEDUP, "workers": WORKERS,
                  "effective_parallelism": parallelism,
                  "asserted": floor_asserted},
    })
    print(f"\nserial:  {serial}")
    print(f"process: {process}")
    print(f"speedup: {speedup:.2f}x at {WORKERS} workers "
          f"(host parallelism {parallelism}, floor {required:.2f} "
          f"{'asserted' if floor_asserted else 'skipped'})")

    assert serial.prepare_transfer_bytes == 0
    assert process.transport == "pickle" and process.shm_bytes == 0
    assert process.workers == WORKERS
    assert process.chunks >= 1
    assert process.prepare_transfer_bytes > 0
    assert process.prepare_transfer_bytes % process.chunks == 0
    assert len(process.task_seconds) == N_SOURCES
    if floor_asserted:
        assert speedup >= required, (
            f"process backend at {WORKERS} workers should be >= "
            f"{required:.2f}x serial on a {parallelism}-core host, got "
            f"{speedup:.2f}x")
