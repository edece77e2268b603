"""RecoveryService HTTP behaviour: API, degradation, shared metrics."""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.promtext import parse_exposition
from repro.service import RecoveryService, ServiceCatalog
from repro.service.catalog import DEFAULT_CODE_ID


def post(url: str, payload: dict, timeout: float = 10.0):
    """POST JSON, returning (status, parsed body, headers)."""
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        return error.code, json.load(error), dict(error.headers)


def get(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode()


def raw_request(
    method: str, path: str, body: bytes = b"", close: bool = False
) -> bytes:
    """One HTTP/1.1 request as bytes, built by hand (no client library)."""
    head = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1"]
    if body:
        head += ["Content-Type: application/json",
                 f"Content-Length: {len(body)}"]
    if close:
        head.append("Connection: close")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def read_response(reader) -> tuple[str, dict[str, str], bytes]:
    """One response off a socket file: the status line, the headers
    (names lower-cased) and exactly ``Content-Length`` body bytes."""
    status_line = reader.readline().decode("latin-1").rstrip("\r\n")
    headers: dict[str, str] = {}
    while True:
        line = reader.readline().decode("latin-1")
        if line in ("\r\n", ""):
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status_line, headers, reader.read(int(headers["content-length"]))


@pytest.fixture()
def service():
    svc = RecoveryService(
        port=0, registry=MetricsRegistry(), event_log=EventLog()
    )
    with svc:
        yield svc


@pytest.fixture(scope="module")
def due_word():
    """A double-bit-error word over the canonical code."""
    catalog = ServiceCatalog()
    code = catalog.code(DEFAULT_CODE_ID)
    return code.encode(0xDEADBEEF) ^ 0b101


class TestRecoverEndpoints:
    def test_single_recover(self, service, due_word):
        status, body, _ = post(
            service.url + "/recover", {"received": due_word}
        )
        assert status == 200
        assert body["degraded"] is False
        result = body["result"]
        assert result["status"] == "recovered"
        assert result["received"] == due_word
        assert isinstance(result["chosen_message"], int)
        assert result["targets"]  # ranked list is present
        chosen = [t for t in result["targets"] if t["chosen"]]
        assert len(chosen) == 1
        assert chosen[0]["message"] == result["chosen_message"]

    def test_single_recover_hex_string(self, service, due_word):
        status, body, _ = post(
            service.url + "/recover", {"received": hex(due_word)}
        )
        assert status == 200
        assert body["result"]["received"] == due_word

    def test_batch_recover_preserves_order(self, service, due_word):
        catalog = service.catalog
        code = catalog.code(DEFAULT_CODE_ID)
        words = [code.encode(m) ^ 0b11 for m in (1, 2**31, 0xABCD)]
        status, body, _ = post(
            service.url + "/recover/batch",
            {"received": words, "context": "mcf"},
        )
        assert status == 200
        assert body["words"] == len(words)
        assert [r["received"] for r in body["results"]] == words

    def test_non_due_word_reports_error_status(self, service):
        code = service.catalog.code(DEFAULT_CODE_ID)
        clean = code.encode(42)  # no error: not a DUE
        status, body, _ = post(service.url + "/recover", {"received": clean})
        assert status == 200
        assert body["result"]["status"] == "error"

    def test_mixed_batch_isolates_per_word_failures(self, service, due_word):
        code = service.catalog.code(DEFAULT_CODE_ID)
        clean = code.encode(7)
        status, body, _ = post(
            service.url + "/recover/batch", {"received": [due_word, clean]}
        )
        assert status == 200
        statuses = [r["status"] for r in body["results"]]
        assert statuses == ["recovered", "error"]

    def test_unknown_code_is_400(self, service, due_word):
        status, body, _ = post(
            service.url + "/recover",
            {"received": due_word, "code": "lol-999"},
        )
        assert status == 400
        assert "unknown code id" in body["error"]

    def test_unknown_context_is_400(self, service, due_word):
        status, body, _ = post(
            service.url + "/recover",
            {"received": due_word, "context": "nope"},
        )
        assert status == 400
        assert "unknown context id" in body["error"]

    def test_unknown_field_is_400(self, service):
        status, body, _ = post(service.url + "/recover", {"wat": 1})
        assert status == 400
        assert "unknown request field" in body["error"]

    def test_oversized_word_is_400(self, service):
        status, body, _ = post(service.url + "/recover", {"received": 1 << 60})
        assert status == 400
        assert "does not fit" in body["error"]

    def test_empty_batch_is_400(self, service):
        status, body, _ = post(
            service.url + "/recover/batch", {"received": []}
        )
        assert status == 400

    def test_unknown_post_path_is_404(self, service):
        status, body, _ = post(service.url + "/nope", {"received": 1})
        assert status == 404


class TestSharedObservability:
    def test_metrics_exposes_service_families(self, service, due_word):
        post(service.url + "/recover", {"received": due_word})
        status, text = get(service.url + "/metrics")
        assert status == 200
        families = parse_exposition(text)
        names = set(families)
        assert "service_requests" in names
        assert "service_recoveries" in names
        assert "service_queue_depth" in names
        assert "service_batch_words" in names
        assert "service_request_seconds" in names
        assert families["service_requests"].type == "counter"

    def test_healthz_reports_queue_state(self, service):
        status, text = get(service.url + "/healthz")
        assert status == 200
        body = json.loads(text)
        assert body["status"] == "ok"
        assert body["queue_limit"] == service.batcher.queue_limit
        assert body["overload_policy"] == "degrade"

    def test_unknown_get_path_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(service.url + "/nope")
        assert excinfo.value.code == 404


class TestDegradation:
    def _gated_service(self, policy: str, gate: threading.Event):
        """A service whose engine work blocks on *gate* (tiny queue)."""
        svc = RecoveryService(
            port=0,
            registry=MetricsRegistry(),
            event_log=EventLog(),
            queue_limit=1,
            max_batch=1,
            overload_policy=policy,
        )
        real_execute = svc._engine.execute

        def gated(requests):
            gate.wait(10.0)
            return real_execute(requests)

        svc._batcher._execute = gated
        return svc

    def _saturate(self, svc, due_word):
        """Park one job in the worker and fill the queue with another.

        Direct batcher submissions make this deterministic: we wait
        for the worker to claim the parked job, then occupy the whole
        (1-word) queue, so the next HTTP request must overload.
        """
        import time

        from repro.service.api import RecoveryRequest

        parked = svc.batcher.submit(RecoveryRequest(words=(due_word,)))
        deadline = time.monotonic() + 5.0
        while svc.batcher.queued_words() and time.monotonic() < deadline:
            time.sleep(0.005)  # worker claims the parked job
        assert svc.batcher.queued_words() == 0
        filler = svc.batcher.submit(RecoveryRequest(words=(due_word,)))
        assert svc.batcher.queued_words() == 1
        return parked, filler

    def test_overload_degrades_to_detect_only(self, due_word):
        gate = threading.Event()
        svc = self._gated_service("degrade", gate)
        with svc:
            parked, filler = self._saturate(svc, due_word)
            status, body, _ = post(
                svc.url + "/recover", {"received": due_word}
            )
            gate.set()
            parked_result = parked.result(timeout=15.0)
            filler_result = filler.result(timeout=15.0)
        assert status == 200
        assert body["degraded"] is True
        assert body["reason"] == "overload"
        assert body["result"]["status"] == "detect-only"
        assert body["result"]["received"] == due_word
        assert body["retry_after_s"] > 0
        # The parked jobs still recovered once the gate lifted.
        assert (
            json.loads(parked_result["fragments"][0])["status"] == "recovered"
        )
        assert (
            json.loads(filler_result["fragments"][0])["status"] == "recovered"
        )
        assert svc.registry.get("service.degraded").value == 1.0

    def test_overload_reject_policy_returns_429(self, due_word):
        gate = threading.Event()
        svc = self._gated_service("reject", gate)
        with svc:
            parked, filler = self._saturate(svc, due_word)
            status, body, headers = post(
                svc.url + "/recover", {"received": due_word}
            )
            gate.set()
            parked.result(timeout=15.0)
            filler.result(timeout=15.0)
        assert status == 429
        assert body["error"] == "overloaded"
        assert int(headers["Retry-After"]) >= 1
        assert svc.registry.get("service.rejections").value == 1.0

    def test_reject_429_is_well_formed_on_the_wire(self, due_word):
        gate = threading.Event()
        svc = self._gated_service("reject", gate)
        body = json.dumps({"received": due_word}).encode()
        try:
            with svc:
                parked, filler = self._saturate(svc, due_word)
                with socket.create_connection(
                    ("127.0.0.1", svc.port), timeout=10.0
                ) as sock, sock.makefile("rb") as reader:
                    sock.sendall(raw_request("POST", "/recover", body))
                    status, headers, payload = read_response(reader)
                gate.set()
                parked.result(timeout=15.0)
                filler.result(timeout=15.0)
        finally:
            gate.set()
        assert status == "HTTP/1.1 429 Too Many Requests"
        assert int(headers["retry-after"]) >= 1
        assert "traceparent" in headers
        assert json.loads(payload)["error"] == "overloaded"

    def test_timeout_degrades_to_detect_only(self, due_word):
        gate = threading.Event()
        svc = self._gated_service("degrade", gate)
        try:
            with svc:
                status, body, _ = post(
                    svc.url + "/recover",
                    {"received": due_word, "timeout_ms": 50},
                )
                gate.set()
            assert status == 200
            assert body["degraded"] is True
            assert body["reason"] == "timeout"
            assert body["result"]["status"] == "detect-only"
            assert svc.registry.get("service.timeouts").value == 1.0
        finally:
            gate.set()


class TestLifecycleAndValidation:
    def test_bad_policy_raises(self):
        with pytest.raises(ServiceError):
            RecoveryService(overload_policy="panic")

    def test_bad_timeout_raises(self):
        with pytest.raises(ServiceError):
            RecoveryService(default_timeout_s=0)

    def test_stop_is_idempotent(self):
        svc = RecoveryService(
            port=0, registry=MetricsRegistry(), event_log=EventLog()
        )
        svc.start()
        svc.stop()
        svc.stop()
        assert not svc.running

    def test_double_start_raises(self):
        svc = RecoveryService(
            port=0, registry=MetricsRegistry(), event_log=EventLog()
        )
        svc.start()
        try:
            with pytest.raises(ServiceError):
                svc.start()
        finally:
            svc.stop()

    def test_port_zero_resolves(self, service):
        assert service.port != 0
        assert str(service.port) in service.url


class TestWireFormat:
    """Replies leave in one socket write and frame correctly."""

    def test_keep_alive_batches_frame_and_carry_traceparent(
        self, service, due_word
    ):
        body = json.dumps(
            {"received": [due_word, due_word ^ 0b110]}
        ).encode()
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10.0
        ) as sock, sock.makefile("rb") as reader:
            sock.sendall(raw_request("POST", "/recover/batch", body))
            first = read_response(reader)
            # The second answer only parses if the first one's
            # Content-Length matched its body to the byte.
            sock.sendall(
                raw_request("POST", "/recover/batch", body, close=True)
            )
            second = read_response(reader)
            assert reader.read() == b""  # nothing after the last body
        for status, headers, payload in (first, second):
            assert status == "HTTP/1.1 200 OK"
            assert int(headers["content-length"]) == len(payload)
            assert headers["content-type"] == "application/json"
            assert headers["traceparent"].startswith("00-")
            assert "server" in headers and "date" in headers
            assert json.loads(payload)["words"] == 2
        assert first[2] == second[2]

    def test_reply_is_one_socket_write(self, service, due_word, monkeypatch):
        writes: list[bytes] = []
        original = socketserver._SocketWriter.write

        def recording_write(writer, data):
            writes.append(bytes(data))
            return original(writer, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write",
                            recording_write)
        body = json.dumps({"received": [due_word]}).encode()
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10.0
        ) as sock, sock.makefile("rb") as reader:
            sock.sendall(
                raw_request("POST", "/recover/batch", body, close=True)
            )
            response = reader.read()  # to EOF: the server closes
        assert writes == [response]
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert json.loads(payload)["words"] == 1

    def test_bad_json_400_is_well_formed(self, service):
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10.0
        ) as sock, sock.makefile("rb") as reader:
            sock.sendall(raw_request("POST", "/recover", b"{not json"))
            status, headers, payload = read_response(reader)
        assert status == "HTTP/1.1 400 Bad Request"
        assert "traceparent" in headers
        assert "not valid JSON" in json.loads(payload)["error"]

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_unknown_path_404_is_well_formed(self, service, method):
        body = b"{}" if method == "POST" else b""
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10.0
        ) as sock, sock.makefile("rb") as reader:
            sock.sendall(raw_request(method, "/nope", body))
            status, headers, payload = read_response(reader)
        assert status == "HTTP/1.1 404 Not Found"
        assert int(headers["content-length"]) == len(payload)
        assert b"/nope" in payload

    def test_http_09_request_gets_a_bare_body(self, service):
        # HTTP/0.9 replies have no status line and no headers, so
        # send_response leaves no header buffer behind to join.
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10.0
        ) as sock, sock.makefile("rb") as reader:
            sock.sendall(b"GET /healthz\r\n")
            sock.shutdown(socket.SHUT_WR)  # ends the (empty) header block
            response = reader.read()
        assert json.loads(response)["status"] == "ok"
