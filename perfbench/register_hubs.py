"""register-hubs: sequential hub registrations into an artifact store.

Each op takes one CSV directory of a fresh retail target through
``load_database`` -> ``MatchEngine.prepare`` -> ``ArtifactStore.save``,
as ``repro store save`` does.  No matching stage runs, so CSV parsing,
``prepare()`` and the store show here and stage changes must not; work
moved into ``prepare()`` (such as eager classifier training) shows as
cost.  ``save`` re-reads every manifest, so an op's cost grows with the
store over a run.

Targets rotate through the ryan/aaron/barrett layouts.  Their rows are
drawn without replacement, with the seed, from one pool of generated
retail rows, which makes hundreds of distinct CSV directories cheap to
write outside timing.  The set-up hub and the first hub of each layout,
which the quality probe reloads, are drawn the same for every seed.
"""

from __future__ import annotations

import csv
import dataclasses
import pathlib
import statistics
import time
from typing import Any

import numpy as np

from repro import ArtifactStore, MatchEngine
from repro.datagen.ground_truth import GroundTruth
from repro.datagen.inventory import TARGET_LAYOUTS, make_retail_workload
from repro.datagen.registry import get_scenario
from repro.errors import StoreError
from repro.relational import load_database
from repro.relational.instance import Database

from harness import Op, Phase, SetupClock, median, peak_rss_mb, probe
from shared import (config, mean_f_measure, prepare, prepare_layers,
                    retail_source, traced_prepare)
from spans import SETUP_OP, Tracer

LAYOUTS = ("ryan", "aaron", "barrett")
ROLES = ("title", "creator", "code", "price", "extra")

#: ``rows``: rows per target table; ``pool``: generated rows per table
#: kind that targets sample from; ``rate_cap``: registrations per second
#: the inputs must cover; ``probe_rows``: rows of the source matched
#: against reloaded hubs for the F-measure.
SIZES = {
    "full": {"rows": 1500, "pool": 4500, "rate_cap": 6.0,
             "probe_rows": 260},
    "tiny": {"rows": 60, "pool": 240, "rate_cap": 60.0, "probe_rows": 40},
}


@dataclasses.dataclass
class Inputs:
    dirs: list[pathlib.Path]
    csv_bytes: list[int]
    probe: Database
    truths: dict[str, GroundTruth]
    size: dict[str, Any]

    def describe(self) -> dict[str, Any]:
        return {"hubs": len(self.dirs), "rows_per_table": self.size["rows"],
                "csv_bytes_p50": median([float(b) for b in self.csv_bytes]),
                "probe_rows": self.size["probe_rows"]}


def make_inputs(seed: int, scale: str, seconds: float,
                work: pathlib.Path) -> Inputs:
    size = SIZES[scale]
    spec = get_scenario("retail")
    pool = make_retail_workload(target="ryan", n_source=0,
                                n_target=size["pool"], gamma=2,
                                seed=spec.seed).target
    ryan = TARGET_LAYOUTS["ryan"]
    columns = {kind: {role: pool.relation(ryan[kind]["table"]).column(
        ryan[kind][role]) for role in ROLES} for kind in ("book", "music")}
    dirs, csv_bytes = [], []
    for index in range(2 + int(seconds * size["rate_cap"])):
        layout = TARGET_LAYOUTS[LAYOUTS[index % len(LAYOUTS)]]
        rng = np.random.default_rng(
            [spec.seed if index <= len(LAYOUTS) else seed, index])
        directory = work / "hubs" / f"hub-{index}"
        directory.mkdir(parents=True)
        for kind in ("book", "music"):
            picked = rng.choice(size["pool"], size=size["rows"],
                                replace=False)
            names = [layout[kind]["id"]] + [layout[kind][r] for r in ROLES]
            path = directory / f"{layout[kind]['table']}.csv"
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(names)
                for row_id, row in enumerate(picked, start=1):
                    writer.writerow([row_id] + [columns[kind][r][row]
                                                for r in ROLES])
        dirs.append(directory)
        csv_bytes.append(sum(p.stat().st_size for p in directory.iterdir()))
    truths = {name: make_retail_workload(target=name, n_source=0, n_target=1,
                                         gamma=2).ground_truth
              for name in LAYOUTS}
    probe = retail_source(spec.seed, rows=size["probe_rows"],
                          gamma=spec.gamma)
    return Inputs(dirs=dirs, csv_bytes=csv_bytes, probe=probe,
                  truths=truths, size=size)


def _register(engine: MatchEngine, store: ArtifactStore,
              directory: pathlib.Path, tracer: Tracer | None, op: int):
    """One registration, as ``repro store save DIR`` runs it."""
    if tracer is None:
        target = load_database(directory, name="target")
        return store.save(engine.prepare(target), engine=engine)
    with tracer.span("registration", op=op):
        with tracer.span("relational.csvio.load"):
            target = load_database(directory, name="target")
        prepared = prepare(engine, target, tracer, op)
        with tracer.span("store.save"):
            return store.save(prepared, engine=engine)


def run_phase(inputs: Inputs, work: pathlib.Path, seconds: float, *,
              setups: int, tracer: Tracer | None, src: str) -> Phase:
    clock = SetupClock()
    with traced_prepare(tracer):
        for index in range(setups):
            with clock:
                engine = MatchEngine(config())
                store = ArtifactStore(work / f"store-{index}")
                entries = [_register(engine, store, inputs.dirs[0], tracer,
                                     SETUP_OP)]
        ops: list[Op] = []
        probes: list[tuple[float, float]] = []
        started = time.perf_counter()
        deadline = started + seconds
        for index in range(1, len(inputs.dirs)):
            if time.perf_counter() >= deadline:
                break
            # On the loop's own thread, so it times the core the
            # registration runs on.
            probes.append(probe())
            begun = time.perf_counter()
            entries.append(_register(engine, store, inputs.dirs[index],
                                     tracer, index))
            ops.append(Op(index, begun, time.perf_counter(), 1))
        wall_s = time.perf_counter() - started
    peak_rss = peak_rss_mb()

    # Checks: every registration wrote a new entry, and a sample of one
    # hub per layout reloads through the digest check and still matches.
    tokens = [entry.token for entry in entries]
    checks_ok = (store.counters["saves"] == len(entries)
                 and store.counters["dedup_hits"] == 0
                 and len(set(tokens)) == len(tokens))
    seen: set[str] = set()
    for op, token in zip(ops, tokens[1:]):
        if token in seen or token not in store:
            op.ok = False
        seen.add(token)
    results, load_ms = [], []
    for op, token in list(zip(ops, tokens[1:]))[:len(LAYOUTS)]:
        loaded_at = time.perf_counter()
        try:
            loaded = store.load_target(token)
        except StoreError:
            op.ok = False
            continue
        load_ms.append((time.perf_counter() - loaded_at) * 1000.0)
        layout = LAYOUTS[op.index % len(LAYOUTS)]
        results.append((engine.match(inputs.probe, loaded), layout))
    f_measure = statistics.fmean(
        [mean_f_measure([result], inputs.truths[layout])
         for result, layout in results]) if results else 0.0
    csv_total = sum(inputs.csv_bytes[i] for i in range(len(entries)))
    phase = Phase(setup_s=clock.seconds, setup_probe_ms=clock.probe_ms,
                  ops=ops, probes=probes, wall_s=wall_s,
                  peak_rss_mb=peak_rss, f_measure=f_measure,
                  checks_ok=checks_ok,
                  detail={"store": dict(store.counters),
                          "stored_bytes_per_csv_byte":
                              store.total_bytes() / csv_total,
                          "inputs_exhausted":
                              len(entries) == len(inputs.dirs)})
    if tracer is not None:
        phase.layers = _layers(tracer, entries, inputs, ops, load_ms,
                               phase.detail["stored_bytes_per_csv_byte"])
    return phase


def _layers(tracer: Tracer, entries: list, inputs: Inputs, ops: list[Op],
            load_ms: list[float], stored_ratio: float) -> dict[str, float]:
    load = tracer.per_op_ms("relational.csvio.load")
    rates = [inputs.csv_bytes[op] / 1e6 / (ms / 1000.0)
             for op, ms in load.items()]
    layers = {
        "relational.csvio.load_ms": median(list(load.values())),
        "relational.csvio.mb_per_s": median(rates),
        "store.save_ms": tracer.p50_ms("store.save"),
        # Each registration adds one entry, so op i saves into a store
        # already holding i entries (the set-up registration included).
        "store.entries_at_save": median([float(op.index) for op in ops]),
        "store.blob_kb": median([entry.size_bytes / 1024.0
                                 for entry in entries[1:]]),
        "store.load_ms": median(load_ms),
        "store.bytes_per_csv_byte": stored_ratio,
    }
    layers.update(prepare_layers(tracer, setup=False))
    return layers
