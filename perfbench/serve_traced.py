"""Serve an artifact store as ``repro serve --inference src`` does, with
spans around the calls into each server-side layer.

    python3 perfbench/serve_traced.py --store DIR --spans FILE

Builds the same ``MatchService`` / ``MatchServer`` pair, then wraps the
public calls a request goes through: ``MatchService.match``,
``MatchEngine.match`` and every pipeline stage (through the engine's
``stages`` list), ``database_from_dict`` as the service module calls it,
``result_to_dict`` plus ``json.dumps`` as the HTTP module calls them, and
``ArtifactStore.load_target``.  A request's op id comes from its
``X-Perfbench-Op`` header.  On SIGINT the server shuts down and the spans
are written to FILE.
"""

from __future__ import annotations

import argparse
import json

from repro.engine.stages import Stage
from repro.service import MatchService
from repro.service import core as service_core
from repro.service import http as service_http
from repro.service.http import MatchRequestHandler, MatchServer

from shared import config
from spans import SETUP_OP, Tracer, patched

#: Request header carrying the benchmark's op id.
OP_HEADER = "X-Perfbench-Op"


class TracedStage(Stage):
    """A pipeline stage run inside span ``engine.stage.<name>``."""

    def __init__(self, inner: Stage, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer

    def run(self, state):
        with self.tracer.span(f"engine.stage.{self.name}"):
            return self.inner.run(state)


class TracedHandler(MatchRequestHandler):
    """Opens span ``service.http.request`` for each POST, tagged with the
    op id the client sent."""

    def do_POST(self) -> None:  # noqa: N802 (http.server convention)
        op = self.headers.get(OP_HEADER)
        with self.server.tracer.span("service.http.request",
                                     op=int(op) if op is not None else None):
            super().do_POST()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    service = MatchService(args.store, config=config())
    service.engine.stages = [TracedStage(stage, tracer)
                             for stage in service.engine.stages]
    with patched(tracer, [
            (service, "match", "service.core.match"),
            (service.engine, "match", "engine.match"),
            (service.store, "load_target", "store.load"),
            (service_core, "database_from_dict", "relational.jsonio.decode"),
            (service_http, "result_to_dict",
             "context.serialize.result_to_dict"),
            (json, "dumps", "context.serialize.dumps")]):
        with tracer.span("service.warm", op=SETUP_OP):
            warmed = service.warm()
        server = MatchServer(("127.0.0.1", 0), service)
        server.RequestHandlerClass = TracedHandler
        server.tracer = tracer
        print(json.dumps({"serving": f"http://127.0.0.1:{server.port}",
                          "targets_warmed": len(warmed)}), flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
    tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
