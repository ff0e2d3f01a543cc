"""Run one workload of the repro benchmark once and print its metrics.

    python3 perfbench/run.py --workload serve-match --seed 1 \
        --seconds 30 --trace 0

Workloads: ``serve-match`` (HTTP reads), ``register-hubs`` (store
writes), ``batch-wide`` (parallel batches).  Inputs come from ``--seed``
and are generated before anything is timed.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, each
metric a ``{"value", "unit"}`` pair.  With ``--trace 0`` the metrics are
the end-to-end ones, from set-up repeated three times and one timed loop
of ``--seconds``; their times are at the reference host speed (see
``harness``).  With ``--trace 1`` they are the per-layer ones: the run
splits its time between an untraced and a traced loop, each after its
own set-up, and reports the traced loop's layers plus the tracing
overhead (traced minus untraced median op latency).  The line before it
holds the seed, input sizes, host facts, the measured times and the
host's slowdown, p90 latency with its sample count and the workload's
own counters.  Spans of a traced run are written to
``perfbench/.runs/traces/``.

The program under test is imported from the ``src`` directory next to
this one; without it the run fails before printing anything.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / ".runs"

#: Set-ups per untraced run; setup_s is their median.
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "f_measure": "%",
}

PER_LAYER = {
    "service.http.overhead_ms": "ms",
    "service.http.idle_rtt_ms": "ms",
    "service.core.match_self_ms": "ms",
    "service.core.lru_hit_ratio": "ratio",
    "relational.jsonio.decode_ms": "ms",
    "context.serialize.encode_ms": "ms",
    "engine.stage.standard-match_ms": "ms",
    "engine.stage.infer-views_ms": "ms",
    "engine.stage.score-candidates_ms": "ms",
    "engine.stage.select_ms": "ms",
    "context.candidates.views": "count",
    "context.candidates.values_classified": "count",
    "context.score.pairs_considered": "count",
    "retrieval.pruned_ratio": "ratio",
    "retrieval.recall": "ratio",
    "matching.tokens.hit_ratio": "ratio",
    "profiling.profile_hit_ratio": "ratio",
    "relational.csvio.load_ms": "ms",
    "relational.csvio.mb_per_s": "MB/s",
    "engine.prepare_ms": "ms",
    "matching.standard.index_ms": "ms",
    "retrieval.build_ms": "ms",
    "context.categorical_ms": "ms",
    "store.save_ms": "ms",
    "store.entries_at_save": "count",
    "store.blob_kb": "KB",
    "store.load_ms": "ms",
    "store.bytes_per_csv_byte": "ratio",
    "engine.executor.busy_s": "s",
    "engine.executor.wait_s": "s",
    "engine.executor.utilization": "ratio",
    "engine.executor.transfer_kb": "KB",
    "host.calibration_ms": "ms",
    "trace.overhead_ms": "ms",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-match", "register-hubs",
                                 "batch-wide"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="input sizes; tiny is for the self-test")
    return parser.parse_args(argv)


def _exit_on_sigterm(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A shell that starts the run in the background ignores SIGINT, and
    # children would inherit that, but the server stops cleanly on SIGINT
    # alone; SIGTERM unwinds the run so it stops its own children too.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy

    import batch_wide
    import register_hubs
    import serve_match
    from harness import calibrate_ms, p90
    from spans import Tracer

    # Each workload module offers make_inputs(seed, scale, seconds, work)
    # and run_phase(inputs, work, seconds, *, setups, tracer, src), which
    # returns a harness.Phase.
    module = {"serve-match": serve_match, "register-hubs": register_hubs,
              "batch-wide": batch_wide}[args.workload]
    RUNS.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                         dir=RUNS))
    calibration = [calibrate_ms()]
    tracer = Tracer() if args.trace else None
    try:
        inputs = module.make_inputs(args.seed, args.scale, args.seconds, work)
        if tracer is None:
            phases = [module.run_phase(inputs, work / "run", args.seconds,
                                       setups=SETUPS, tracer=None,
                                       src=str(SRC))]
        else:
            phases = [module.run_phase(inputs, work / name, args.seconds / 2,
                                       setups=1, tracer=phase_tracer,
                                       src=str(SRC))
                      for name, phase_tracer in (("plain", None),
                                                 ("traced", tracer))]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calibration.append(calibrate_ms())

    ops = [op for phase in phases for op in phase.ops]
    failed = sum(phase.failed for phase in phases)
    correct = bool(ops) and failed == 0 and all(p.checks_ok for p in phases)
    if tracer is None:
        (phase,) = phases
        values = {"setup_s": phase.setup_s_norm(),
                  "op_p50_ms": phase.op_p50_ms_norm(),
                  "items_per_s": phase.items_per_s_norm(),
                  "peak_rss_mb": phase.peak_rss_mb,
                  "f_measure": phase.f_measure}
        units = END_TO_END
    else:
        plain, traced = phases
        values = {name: traced.layers.get(name, 0.0) for name in PER_LAYER}
        values["host.calibration_ms"] = statistics.fmean(calibration)
        values["trace.overhead_ms"] = (traced.op_p50_ms_norm()
                                       - plain.op_p50_ms_norm())
        units = PER_LAYER
        traces = RUNS / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{args.workload}-seed{args.seed}.jsonl")

    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "inputs": inputs.describe(),
        "host": {"cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__,
                 "calibration_ms": calibration},
        "phases": [dict({
            "traced": tracer is not None and index == len(phases) - 1,
            "ops": len(phase.ops), "failed": phase.failed,
            "checks_ok": phase.checks_ok, "wall_s": phase.wall_s,
            "setup_s": phase.setup_s, "setup_probe_ms": phase.setup_probe_ms,
            "probes": len(phase.probes), "slowdown": phase.slowdown(),
            "op_p50_ms": phase.op_p50_ms(),
            "op_p90_ms": {"value": p90([op.latency_ms for op in phase.ops]),
                          "n": len(phase.ops)},
            "items_per_s": phase.items_per_s(),
            "peak_rss_mb": phase.peak_rss_mb,
            "f_measure": phase.f_measure}, **phase.detail)
            for index, phase in enumerate(phases)],
    }
    if tracer is not None:
        detail["self_ms"] = tracer.self_time_table()
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
