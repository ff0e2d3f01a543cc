"""The ``repro serve`` HTTP loop: JSON over stdlib ``ThreadingHTTPServer``.

Dependency-free by design — the service speaks plain JSON over HTTP/1.1
with nothing beyond the standard library, so any client (``curl``, a
notebook, another repro process) can submit match requests.  Each
request runs on its own server thread against the shared
:class:`~repro.service.core.MatchService`; the service's warm LRU and
lock discipline make that safe (see its module docstring).

Routes
------
``GET  /health``      liveness + version + store path
``GET  /targets``     stored hub targets with warm/runs state
``GET  /report``      full :class:`~repro.service.report.ServiceReport`
``POST /match``       ``{"target": <token-or-name>, "source": <database>}``
``POST /match-many``  ``{"target": ..., "sources": [<database>, ...]}``
``POST /match-repository``  ``{"source": <database>[, "targets": [...]]}``
— route one source against every stored hub (or just ``targets``),
ranked best-first with the winning hub's full result attached.

Database payloads use :func:`repro.relational.jsonio.database_to_dict`'s
shape; match results come back as
:func:`repro.context.serialize.result_to_dict`.  Because the wire codecs
preserve schemas exactly and stored artifacts restore bit-identically, a
served match equals the same match run in process — byte for byte.

Errors map to JSON bodies ``{"error": ..., "type": ...}``: unknown
targets are 404, malformed payloads 400, library faults 500.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from .._version import __version__
from ..context.serialize import result_to_dict, throughput_to_dict
from ..errors import (ArtifactNotFoundError, InstanceError, ReproError,
                      StoreError)
from .core import MatchService

__all__ = ["MatchServer", "MatchRequestHandler", "start_service"]

#: Largest accepted request body (64 MiB) — a guard, not a quota.
_MAX_BODY = 64 * 1024 * 1024


class MatchRequestHandler(BaseHTTPRequestHandler):
    """One request against the server's shared :class:`MatchService`."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"

    # The serve loop is quiet by default; latency lives in /report.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    @property
    def service(self) -> MatchService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------
    def parse_request(self) -> bool:
        # Per-request state: a kept-alive connection reuses this handler.
        self._body_read = False
        return super().parse_request()

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if not self._body_read and (
                self.headers.get("Transfer-Encoding") is not None
                or (self.headers.get("Content-Length") or "0").strip()
                != "0"):
            # The unread request body would be parsed as the next request
            # on this connection; close it instead.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request body required")
        if length > _MAX_BODY:
            raise ValueError(f"request body too large ({length} bytes)")
        # A socket read may return fewer bytes than asked for (slow or
        # chunky clients); loop until the declared length is consumed.
        chunks: list[bytes] = []
        remaining = length
        while remaining > 0:
            chunk = self.rfile.read(remaining)
            if not chunk:
                raise ValueError(
                    f"premature end of request body: got "
                    f"{length - remaining} of {length} declared bytes")
            chunks.append(chunk)
            remaining -= len(chunk)
        self._body_read = True
        data = json.loads(b"".join(chunks).decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _handle(self, endpoint: str, fn) -> None:
        """Run one handler, timing it and mapping errors to statuses."""
        started = time.perf_counter()
        error = False
        try:
            status, payload = fn()
        except ArtifactNotFoundError as exc:
            error, (status, payload) = True, self._fault(404, exc)
        except InstanceError as exc:
            # A payload that doesn't decode into a database is the
            # client's fault.
            error, (status, payload) = True, self._fault(400, exc)
        except (StoreError, ReproError) as exc:
            # Store damage and engine faults are server-side problems.
            error, (status, payload) = True, self._fault(500, exc)
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            error, (status, payload) = True, self._fault(400, exc)
        except Exception as exc:  # noqa: BLE001 - the contract: every
            # request gets a JSON response and is observed, even when a
            # handler raises outside the enumerated set (an
            # AttributeError deep in a stage must not drop the
            # connection bodiless and slip past the error counter).
            error, (status, payload) = True, self._fault(500, exc)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.service.observe(endpoint, elapsed_ms, error=error)
        if isinstance(payload, dict):
            payload.setdefault("elapsed_ms", elapsed_ms)
        self._send_json(status, payload)

    @staticmethod
    def _fault(status: int, exc: Exception) -> tuple[int, dict[str, Any]]:
        return status, {"error": str(exc), "type": type(exc).__name__}

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server convention)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path in ("/", "/health"):
            self._handle("health", lambda: (200, {
                "status": "ok", "__version__": __version__,
                "store": str(self.service.store.root)}))
        elif path == "/targets":
            self._handle("targets", lambda: (200, {
                "targets": self.service.target_entries()}))
        elif path == "/report":
            self._handle("report", lambda: (
                200, self.service.report().to_dict()))
        else:
            self._send_json(404, {"error": f"no route {path!r}",
                                  "type": "NotFound"})

    def do_POST(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/match":
            self._handle("match", self._do_match)
        elif path == "/match-many":
            self._handle("match-many", self._do_match_many)
        elif path == "/match-repository":
            self._handle("match-repository", self._do_match_repository)
        else:
            self._send_json(404, {"error": f"no route {path!r}",
                                  "type": "NotFound"})

    def _do_match(self) -> tuple[int, dict[str, Any]]:
        body = self._read_body()
        result, token = self.service.match(body["source"], body["target"])
        return 200, {"target": token, "result": result_to_dict(result)}

    def _do_match_many(self) -> tuple[int, dict[str, Any]]:
        body = self._read_body()
        sources = body["sources"]
        if not isinstance(sources, list) or not sources:
            raise ValueError("'sources' must be a non-empty list")
        batch, token = self.service.match_many(sources, body["target"])
        return 200, {
            "target": token,
            "results": [result_to_dict(r) for r in batch.results],
            "throughput": throughput_to_dict(batch.throughput)}

    def _do_match_repository(self) -> tuple[int, dict[str, Any]]:
        from ..repository.serialize import repository_result_to_dict

        body = self._read_body()
        targets = body.get("targets")
        if targets is not None and (not isinstance(targets, list)
                                    or not targets):
            raise ValueError("'targets' must be a non-empty list when given")
        routed, tokens = self.service.match_repository(body["source"],
                                                       targets)
        return 200, {"targets": tokens,
                     **repository_result_to_dict(routed, results="best")}


class MatchServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`MatchService`.

    Request threads are daemonic so a hung client cannot block shutdown;
    the service itself is shared, thread-safe state.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: MatchService,
                 *, verbose: bool = False):
        super().__init__(address, MatchRequestHandler)
        self.service = service
        self.verbose = verbose

    @property
    def port(self) -> int:
        return self.server_address[1]

    def server_close(self) -> None:
        super().server_close()
        self.service.close()


def start_service(service: MatchService, *, host: str = "127.0.0.1",
                  port: int = 0, verbose: bool = False) -> MatchServer:
    """Bind a :class:`MatchServer` and serve it on a background thread.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.port``.  The caller owns shutdown::

        server = start_service(service)
        try:
            ...  # requests against http://127.0.0.1:{server.port}
        finally:
            server.shutdown(); server.server_close()
    """
    import threading

    server = MatchServer((host, port), service, verbose=verbose)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve", daemon=True)
    thread.start()
    return server
