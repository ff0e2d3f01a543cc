"""serve-match: match requests over HTTP against one served hub target.

Set-up prepares the registered ``retail`` scenario's target, saves it to
a fresh ``ArtifactStore`` and starts ``repro serve --inference src`` on
that store in its own process, so the server never shares an interpreter
lock with the load generator.  Set-up ends when the first ``/match`` is
answered: that request pays for the lazily trained target classifiers.

Load is a closed loop of two clients (the sandbox's core count), each on
one kept-alive connection, as a pipeline that submits a feed and waits
for its matches would run.  Every request carries a distinct retail
source; the seed sets their arrival order.  Retrieval prunes nothing
here (12 target attributes, below ``retrieval_top_k``); the executor and
the CSV parser stay idle.
"""

from __future__ import annotations

import dataclasses
import http.client
import itertools
import json
import pathlib
import sys
import threading
import time
from typing import Any, Callable

from repro import ArtifactStore, MatchEngine
from repro.context.serialize import report_from_dict, result_from_dict
from repro.context.serialize import result_to_dict
from repro.datagen.ground_truth import GroundTruth
from repro.datagen.registry import build_scenario, get_scenario
from repro.relational.instance import Database
from repro.relational.jsonio import database_to_dict

from harness import (Op, Phase, ServerProcess, SetupClock, child_env,
                     median, probe)
from serve_traced import OP_HEADER
from shared import (STAGES, arrival_order, config, match_keys,
                    mean_f_measure, prepare, prepare_layers, report_layers,
                    retail_source, traced_prepare)
from spans import SETUP_OP, Tracer

#: Concurrent clients: one per core of the 2-core sandbox.
CLIENTS = 2

#: ``rows``: source rows per request; ``shuffled_rate`` and
#: ``rate_cap``: requests per second that the seed-shuffled block and
#: all inputs cover (see ``shared.arrival_order``); the F-measure is the
#: shuffled block's.  ``sample``: sources re-matched in process as a
#: check.
SIZES = {
    "full": {"rows": 160, "shuffled_rate": 3.0, "rate_cap": 7.0,
             "sample": 3},
    "tiny": {"rows": 40, "shuffled_rate": 2.0, "rate_cap": 40.0,
             "sample": 2},
}


@dataclasses.dataclass
class Inputs:
    target: Database
    truth: GroundTruth
    sources: list[Database]
    #: JSON of each source, spliced into request bodies once the target
    #: token is known.
    encoded: list[bytes]
    shuffled: int
    size: dict[str, Any]

    def describe(self) -> dict[str, Any]:
        return {"target": self.target.name,
                "target_rows": sum(len(r) for r in self.target),
                "sources": len(self.sources), "shuffled": self.shuffled,
                "source_rows": self.size["rows"],
                "request_bytes_p50": median(
                    [float(len(b)) for b in self.encoded])}


def make_inputs(seed: int, scale: str, seconds: float,
                work: pathlib.Path) -> Inputs:
    size = SIZES[scale]
    spec = get_scenario("retail")
    scenario = build_scenario(spec)
    count = 2 + int(seconds * size["rate_cap"])
    shuffled = min(max(1, int(seconds * size["shuffled_rate"])), count - 1)
    listed = [retail_source(spec.seed + 1 + i, rows=size["rows"],
                            gamma=spec.gamma) for i in range(count)]
    sources = [listed[i] for i in arrival_order(
        seed, fixed=1, shuffled=shuffled, total=count)]
    encoded = [json.dumps(database_to_dict(s)).encode("utf-8")
               for s in sources]
    return Inputs(target=scenario.target, truth=scenario.ground_truth,
                  sources=sources, encoded=encoded, shuffled=shuffled,
                  size=size)


@dataclasses.dataclass
class Record:
    """One request as the client saw it; decoded after the timed loop."""

    op: Op
    status: int
    body: bytes
    payload: dict[str, Any] | None = None


def _post(conn: http.client.HTTPConnection, body: bytes,
          op: int | None) -> tuple[int, bytes]:
    headers = {"Content-Type": "application/json"}
    if op is not None:
        headers[OP_HEADER] = str(op)
    conn.request("POST", "/match", body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def _get(conn: http.client.HTTPConnection, path: str) -> tuple[int, bytes]:
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


def _idle_rtt_ms(conn: http.client.HTTPConnection) -> float:
    started = time.perf_counter()
    _get(conn, "/health")
    return (time.perf_counter() - started) * 1000.0


def decode(status: int, body: bytes) -> dict[str, Any]:
    """The response payload of a successful ``/match``; raises
    ``ValueError`` for anything else."""
    if status != 200:
        raise ValueError(f"HTTP {status}")
    payload = json.loads(body)
    if not isinstance(payload, dict) or not isinstance(
            payload.get("result"), dict) or not isinstance(
            payload["result"].get("matches"), list):
        raise ValueError("no match result in the response")
    return payload


class _Server:
    """One set-up: a fresh store holding the prepared target, and the
    server process answering on it."""

    def __init__(self, inputs: Inputs, work: pathlib.Path, index: int,
                 tracer: Tracer | None, src: str):
        store_dir = work / f"store-{index}"
        self.engine = MatchEngine(config())
        with traced_prepare(tracer):
            self.prepared = prepare(self.engine, inputs.target, tracer)
        store = ArtifactStore(store_dir)
        if tracer is None:
            self.entry = store.save(self.prepared, engine=self.engine)
        else:
            with tracer.span("store.save", op=SETUP_OP):
                self.entry = store.save(self.prepared, engine=self.engine)
        self.spans_path = work / f"server-{index}.spans.jsonl"
        if tracer is None:
            argv = [sys.executable, "-m", "repro", "serve", "--store",
                    str(store_dir), "--host", "127.0.0.1", "--port", "0",
                    "--inference", "src", "--json"]
        else:
            argv = [sys.executable,
                    str(pathlib.Path(__file__).with_name("serve_traced.py")),
                    "--store", str(store_dir), "--spans",
                    str(self.spans_path)]
        self.process = ServerProcess(argv, env=child_env(src),
                                     log_path=str(work / "server.log"))
        self.token = self.entry.token.encode("ascii")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.process.port,
                                          timeout=120)

    def body(self, encoded: bytes) -> bytes:
        return b'{"target": "' + self.token + b'", "source": ' + encoded + b"}"


def run_phase(inputs: Inputs, work: pathlib.Path, seconds: float, *,
              setups: int, tracer: Tracer | None, src: str) -> Phase:
    work.mkdir(parents=True, exist_ok=True)
    clock = SetupClock()
    server: _Server | None = None
    try:
        for index in range(setups):
            if server is not None:
                server.process.stop()
            with clock:
                server = _Server(inputs, work, index, tracer, src)
                conn = server.connect()
                status, body = _post(conn, server.body(inputs.encoded[0]),
                                     SETUP_OP if tracer is not None else None)
            conn.close()
            decode(status, body)
        return _timed(inputs, server, seconds, clock, tracer)
    finally:
        if server is not None:
            server.process.stop()


def _timed(inputs: Inputs, server: _Server, seconds: float,
           clock: SetupClock, tracer: Tracer | None) -> Phase:
    bodies = [server.body(encoded) for encoded in inputs.encoded]
    connections = [server.connect() for _ in range(CLIENTS)]
    idle_ms: list[float] = []
    for conn in connections:
        _get(conn, "/health")  # a fresh connection acks at once
        idle_ms.append(_idle_rtt_ms(conn))
    records: list[Record] = []
    probes: list[tuple[float, float]] = []
    next_index = itertools.count(1)
    errors: list[BaseException] = []
    started = time.perf_counter()
    deadline = started + seconds

    def client(conn: http.client.HTTPConnection) -> None:
        try:
            while True:
                index = next(next_index)
                if index >= len(bodies) or time.perf_counter() >= deadline:
                    return
                # The other client's request keeps the server busy
                # meanwhile, as it is while this one's request runs.
                probes.append(probe())
                sent = time.perf_counter()
                if tracer is None:
                    status, body = _post(conn, bodies[index], None)
                else:
                    with tracer.span("client.request", op=index):
                        status, body = _post(conn, bodies[index], index)
                records.append(Record(Op(index, sent, time.perf_counter(),
                                         1), status, body))
        except (OSError, http.client.HTTPException) as exc:
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(conn,))
               for conn in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"client connection failed: {errors[0]!r}")
    records.sort(key=lambda record: record.op.index)
    wall_s = max(record.op.ended for record in records) - started
    for conn in connections:
        idle_ms.append(_idle_rtt_ms(conn))
    status, body = _get(connections[0], "/report")
    report = json.loads(body)
    for conn in connections:
        conn.close()
    peak_rss = server.process.peak_rss_mb()
    server.process.stop()

    f_measure, f_sources = check(records, inputs, lambda index: result_to_dict(
        server.engine.match(inputs.sources[index], server.prepared)))
    phase = Phase(setup_s=clock.seconds, setup_probe_ms=clock.probe_ms,
                  ops=[r.op for r in records], probes=probes,
                  wall_s=wall_s, peak_rss_mb=peak_rss, f_measure=f_measure,
                  checks_ok=report.get("lru", {}).get("loads") == 1,
                  detail={"lru": report.get("lru"),
                          "idle_rtt_ms": idle_ms,
                          "f_sources": f_sources,
                          "inputs_exhausted": records[-1].op.index + 1
                          >= len(bodies)})
    if tracer is not None:
        server_spans = Tracer.read(server.spans_path)
        phase.layers = _layers(records, idle_ms, report, tracer,
                               server_spans, server)
        tracer.adopt(server_spans)
    return phase


def check(records: list[Record], inputs: Inputs,
          reference: Callable[[int], dict[str, Any]]) -> tuple[float, int]:
    """Fail every op whose response is not a decodable 200, or whose
    source is in the fixed sample and whose matches differ from
    ``reference(source index)`` (the in-process result).  Returns the
    mean F-measure over the answered sources of the shuffled block and
    how many those are."""
    for record in records:
        try:
            record.payload = decode(record.status, record.body)
        except ValueError:
            record.op.ok = False
    by_index = {record.op.index: record for record in records}
    size = inputs.size
    for index in range(1, 1 + size["sample"]):
        record = by_index.get(index)
        if record is not None and record.payload is not None and (
                match_keys(record.payload["result"])
                != match_keys(reference(index))):
            record.op.ok = False
    answered = [by_index[i].payload["result"]
                for i in range(1, 1 + inputs.shuffled)
                if i in by_index and by_index[i].payload is not None]
    return (mean_f_measure(map(result_from_dict, answered), inputs.truth),
            len(answered))


def _layers(records: list[Record], idle_ms: list[float],
            report: dict[str, Any], client: Tracer, server_spans: Tracer,
            server: _Server) -> dict[str, float]:
    answered = [r for r in records if r.payload is not None]
    lru = report.get("lru", {})
    lookups = lru.get("hits", 0) + lru.get("misses", 0)
    result_ms = server_spans.per_op_ms("context.serialize.result_to_dict")
    dumps_ms = server_spans.per_op_ms("context.serialize.dumps")
    layers = {
        "service.http.overhead_ms": median(
            [r.op.latency_ms - r.payload["elapsed_ms"] for r in answered]),
        "service.http.idle_rtt_ms": median(idle_ms),
        "service.core.match_self_ms": server_spans.p50_ms(
            "service.core.match", self_time=True),
        "service.core.lru_hit_ratio": (lru.get("hits", 0) / lookups
                                       if lookups else 0.0),
        "relational.jsonio.decode_ms": server_spans.p50_ms(
            "relational.jsonio.decode"),
        "context.serialize.encode_ms": median(
            [ms + dumps_ms.get(op, 0.0) for op, ms in result_ms.items()]),
        "store.save_ms": client.p50_ms("store.save", setup=True),
        "store.blob_kb": server.entry.size_bytes / 1024.0,
        "store.load_ms": server_spans.p50_ms("store.load", setup=True),
    }
    for name in STAGES:
        layers[f"engine.stage.{name}_ms"] = server_spans.p50_ms(
            f"engine.stage.{name}")
    counts = report_layers(
        [report_from_dict(r.payload["result"]["report"]) for r in answered],
        stage_times=False)
    layers.update(counts)
    layers.update(prepare_layers(client, setup=True))
    return layers
