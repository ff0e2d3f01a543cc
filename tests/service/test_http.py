"""The HTTP loop: routes, error mapping, concurrent bit-identity.

Requests run against a real ``ThreadingHTTPServer`` on an ephemeral
port — the same code path ``repro serve`` runs — with the stdlib
``urllib`` as the client, so the wire shapes (request and response) are
pinned exactly as an external consumer would see them.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import ArtifactStore, MatchEngine, MatchService, start_service
from repro.context.serialize import result_to_dict
from repro.relational.jsonio import database_to_dict


@pytest.fixture(scope="module")
def workload():
    from repro.datagen import build_scenario, get_scenario
    return build_scenario(get_scenario("events").resized(60))


@pytest.fixture(scope="module")
def server(tmp_path_factory, workload):
    store = ArtifactStore(tmp_path_factory.mktemp("store"))
    engine = MatchEngine()
    entry = store.save(engine.prepare(workload.target), engine=engine)
    service = MatchService(store)
    service.warm()
    server = start_service(service)
    server.entry = entry  # test-side convenience
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def reference(workload):
    engine = MatchEngine()
    result = engine.match(workload.source, engine.prepare(workload.target))
    return result_to_dict(result)


def _get(server, path):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}{path}") as resp:
        return resp.status, json.loads(resp.read())


def _post(server, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as resp:
        return resp.status, json.loads(resp.read())


def _match_key(result_dict):
    return [(m["source"], m["target"], m["condition"], m["score"],
             m["confidence"]) for m in result_dict["matches"]]


class TestRoutes:
    def test_health(self, server):
        from repro import __version__

        status, body = _get(server, "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["__version__"] == __version__
        assert body["store"]

    def test_targets(self, server, workload):
        status, body = _get(server, "/targets")
        assert status == 200
        assert body["targets"][0]["database"] == workload.target.name
        assert body["targets"][0]["warm"] is True

    def test_match_by_token_is_bit_identical(self, server, workload,
                                             reference):
        status, body = _post(server, "/match", {
            "target": server.entry.token,
            "source": database_to_dict(workload.source)})
        assert status == 200
        assert body["target"] == server.entry.token
        assert body["elapsed_ms"] > 0
        assert _match_key(body["result"]) == _match_key(reference)

    def test_match_by_name(self, server, workload):
        status, body = _post(server, "/match", {
            "target": workload.target.name,
            "source": database_to_dict(workload.source)})
        assert status == 200
        assert body["target"] == server.entry.token

    def test_match_many(self, server, workload, reference):
        source = database_to_dict(workload.source)
        status, body = _post(server, "/match-many", {
            "target": server.entry.token, "sources": [source, source]})
        assert status == 200
        assert len(body["results"]) == 2
        for result in body["results"]:
            assert _match_key(result) == _match_key(reference)
        assert body["throughput"]["tasks"] == 2

    def test_report_reflects_traffic(self, server):
        status, body = _get(server, "/report")
        assert status == 200
        assert body["requests"] >= 1
        assert body["lru"]["loads"] == 1
        assert body["version"]


class TestErrorMapping:
    def _error(self, server, path, payload):
        try:
            _post(server, path, payload)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())
        pytest.fail("expected an HTTP error")

    def test_unknown_target_is_404(self, server, workload):
        code, body = self._error(server, "/match", {
            "target": "nobody", "source": database_to_dict(workload.source)})
        assert code == 404
        assert body["type"] == "ArtifactNotFoundError"

    def test_malformed_source_is_400(self, server):
        code, body = self._error(server, "/match", {
            "target": server.entry.token, "source": {"bogus": True}})
        assert code == 400
        assert body["type"] == "InstanceError"

    def test_missing_field_is_400(self, server):
        code, body = self._error(server, "/match", {"source": {}})
        assert code == 400

    def test_empty_sources_is_400(self, server):
        code, body = self._error(server, "/match-many", {
            "target": server.entry.token, "sources": []})
        assert code == 400

    def test_unknown_route_is_404(self, server):
        try:
            _get(server, "/nope")
            pytest.fail("expected 404")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404

    def test_errors_count_in_report(self, server, workload):
        self._error(server, "/match", {
            "target": "nobody", "source": database_to_dict(workload.source)})
        _, body = _get(server, "/report")
        assert body["errors"] >= 1


class TestWireRobustness:
    def _raw_socket(self, server):
        import socket

        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=10)
        sock.settimeout(10)
        return sock

    def _read_raw_response(self, sock):
        """``(status, lower-cased header lines, body)`` of one response."""
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
        header, _, rest = data.partition(b"\r\n\r\n")
        status = int(header.split(b" ", 2)[1])
        lines = header.lower().split(b"\r\n")
        length = 0
        for line in lines:
            if line.startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        while len(rest) < length:
            chunk = sock.recv(65536)
            if not chunk:
                break
            rest += chunk
        return status, lines, rest[:length]

    def _read_response(self, sock):
        status, _, body = self._read_raw_response(sock)
        return status, json.loads(body)

    def test_dribbled_body_is_read_in_full(self, server, workload,
                                           reference):
        """A slow client delivering the body across several TCP segments
        must be answered 200, not rejected on a short first read."""
        import time

        body = json.dumps({
            "target": server.entry.token,
            "source": database_to_dict(workload.source)}).encode("utf-8")
        split = len(body) // 3
        sock = self._raw_socket(server)
        try:
            sock.sendall(
                b"POST /match HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n")
            sock.sendall(body[:split])
            time.sleep(0.2)
            sock.sendall(body[split:2 * split])
            time.sleep(0.2)
            sock.sendall(body[2 * split:])
            status, payload = self._read_response(sock)
        finally:
            sock.close()
        assert status == 200
        assert _match_key(payload["result"]) == _match_key(reference)

    def test_premature_body_eof_is_400(self, server):
        """A client that dies mid-body gets a clean 400 naming the short
        read, not a hung handler or a dropped connection."""
        import socket

        sock = self._raw_socket(server)
        try:
            sock.sendall(
                b"POST /match HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 500\r\n"
                b"Connection: close\r\n\r\n"
                b'{"target": "x"')
            sock.shutdown(socket.SHUT_WR)
            status, payload = self._read_response(sock)
        finally:
            sock.close()
        assert status == 400
        assert "premature end of request body" in payload["error"]

    @pytest.mark.parametrize("request_head, body, status", [
        (b"POST /nope HTTP/1.1", b'{"a": 1}', 404),
        (b"POST /match HTTP/1.1", b'{"a": 1}', 400),
    ], ids=["unknown-route", "oversized-length"])
    def test_unread_body_closes_kept_alive_connection(
            self, server, request_head, body, status):
        """A response sent without consuming the declared body must close
        the connection: left open, the unread bytes would be parsed as the
        next request on it and answer a valid GET with an HTML 400."""
        # The oversized case declares more than the server accepts and
        # sends only a prefix; the server refuses before reading any.
        declared = (len(body) if status == 404
                    else 64 * 1024 * 1024 + 1)
        sock = self._raw_socket(server)
        try:
            sock.sendall(request_head + b"\r\nHost: localhost\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: " + str(declared).encode()
                         + b"\r\n\r\n" + body)
            got, headers, _ = self._read_raw_response(sock)
            assert got == status
            assert b"connection: close" in headers
            try:
                sock.sendall(b"GET /health HTTP/1.1\r\n"
                             b"Host: localhost\r\n\r\n")
                follow_up = sock.recv(65536)
            except OSError:  # reset: the server already closed
                follow_up = b""
        finally:
            sock.close()
        assert follow_up == b""

    def test_consumed_bad_body_keeps_connection_alive(self, server):
        """A 400 for a fully read (malformed) body leaves the connection
        usable: the next request on it is answered normally."""
        body = b'{"target": '
        sock = self._raw_socket(server)
        try:
            sock.sendall(b"POST /match HTTP/1.1\r\nHost: localhost\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: " + str(len(body)).encode()
                         + b"\r\n\r\n" + body)
            first, headers, _ = self._read_raw_response(sock)
            sock.sendall(b"GET /health HTTP/1.1\r\n"
                         b"Host: localhost\r\n\r\n")
            second, payload = self._read_response(sock)
        finally:
            sock.close()
        assert first == 400
        assert b"connection: close" not in headers
        assert second == 200 and payload["status"] == "ok"

    def test_unexpected_handler_exception_is_500(self, server, workload):
        """A non-enumerated exception inside a handler must still produce
        a JSON 500 and count as an error — never a bodiless drop."""
        service = server.service

        def explode(source, target_ref):
            raise AttributeError("simulated deep-stage fault")

        errors_before = service.report().errors
        service.match = explode
        try:
            try:
                _post(server, "/match", {
                    "target": server.entry.token,
                    "source": database_to_dict(workload.source)})
                pytest.fail("expected an HTTP error")
            except urllib.error.HTTPError as exc:
                assert exc.code == 500
                body = json.loads(exc.read())
                assert body["type"] == "AttributeError"
        finally:
            del service.match
        assert service.report().errors == errors_before + 1

    def test_stored_non_target_token_is_404(self, server, workload):
        """A real stored token of the wrong kind must map to 404."""
        engine = MatchEngine()
        source_token = server.service.store.save(
            engine.prepare_source(workload.source), engine=engine).token
        try:
            _post(server, "/match", {
                "target": source_token,
                "source": database_to_dict(workload.source)})
            pytest.fail("expected an HTTP error")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
            assert json.loads(exc.read())["type"] \
                == "ArtifactNotFoundError"


class TestMatchRepository:
    @pytest.fixture(scope="class")
    def hub_server(self, tmp_path_factory):
        from repro.datagen import build_scenario, get_scenario

        store = ArtifactStore(tmp_path_factory.mktemp("hub-store"))
        engine = MatchEngine()
        scenarios = {}
        for name in ("events", "retail", "clinical"):
            scenario = build_scenario(get_scenario(name).resized(60))
            store.save(engine.prepare(scenario.target), engine=engine)
            scenarios[name] = scenario
        server = start_service(MatchService(store))
        server.scenarios = scenarios
        yield server
        server.shutdown()
        server.server_close()

    def test_routes_and_returns_ranked_hubs(self, hub_server):
        scenario = hub_server.scenarios["retail"]
        status, body = _post(hub_server, "/match-repository", {
            "source": database_to_dict(scenario.source)})
        assert status == 200
        assert len(body["targets"]) == 3
        assert len(body["ranking"]) == 3
        assert body["best"] == body["ranking"][0]["token"]
        # The winning hub carries its full result; the others don't.
        assert "result" in body["ranking"][0]
        assert all("result" not in entry
                   for entry in body["ranking"][1:])
        best = hub_server.service._target_for(body["best"])
        assert best.target.name == scenario.target.name

    def test_targets_subset(self, hub_server):
        scenario = hub_server.scenarios["events"]
        token = hub_server.service.resolve(scenario.target.name)
        status, body = _post(hub_server, "/match-repository", {
            "source": database_to_dict(scenario.source),
            "targets": [token]})
        assert status == 200
        assert body["targets"] == [token]
        assert body["best"] == token

    def test_empty_targets_is_400(self, hub_server):
        scenario = hub_server.scenarios["events"]
        try:
            _post(hub_server, "/match-repository", {
                "source": database_to_dict(scenario.source),
                "targets": []})
            pytest.fail("expected an HTTP error")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400

    def test_repository_counters_in_report(self, hub_server):
        _, body = _get(hub_server, "/report")
        assert body["repository"]["requests"] >= 1
        assert body["repository"]["pairs"] >= 3


class TestConcurrency:
    def test_concurrent_requests_bit_identical_one_load(self, server,
                                                        workload, reference):
        """The serve-loop acceptance pin over real sockets: a burst of
        concurrent clients, every response equal to the in-process
        engine, still exactly one store load."""
        payload = {"target": server.entry.token,
                   "source": database_to_dict(workload.source)}
        results, errors = [], []

        def client():
            try:
                status, body = _post(server, "/match", payload)
                assert status == 200
                results.append(_match_key(body["result"]))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 10
        expected = _match_key(reference)
        assert all(r == expected for r in results)
        _, report = _get(server, "/report")
        assert report["lru"]["loads"] == 1
        assert report["latency_ms"]["match"]["p99"] \
            >= report["latency_ms"]["match"]["p50"] > 0
