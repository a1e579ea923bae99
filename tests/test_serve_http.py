"""The HTTP/WebSocket transport (`repro.serve.http`) over real sockets.

Each test talks TCP to a daemon running on a background thread
(:class:`~repro.serve.client.BackgroundServer`) — the same surface
``python -m repro serve`` exposes — so routing, status codes,
``Retry-After``, chunked NDJSON streaming, and the RFC 6455 handshake
are all exercised end-to-end.
"""

import base64
import hashlib
import json
import socket

import pytest

from repro.api.engine import get_engine
from repro.api.scenario import Scenario
from repro.digraph.generators import triangle
from repro.errors import ScenarioError, ServeError
from repro.lab.store import SqliteStore
from repro.lab.workloads import Workload, build_sweep
from repro.serve.client import BackgroundServer, ServeClient, sample_scenarios
from repro.serve.events import TERMINAL_EVENTS, check_envelope
from repro.serve.service import ServiceConfig, SwapService
from repro.sim.faults import FaultPlan
from repro.sim.milestones import MILESTONE_KINDS


@pytest.fixture()
def server():
    with BackgroundServer(SwapService(ServiceConfig(rate=0.0))) as bg:
        yield bg


def submit_and_settle(client, payload):
    status, doc = client.submit(payload)
    assert status == 202 and doc["status"] == "accepted"
    return client.wait_settled(doc["key"], timeout=60)


class TestRoutes:
    def test_healthz(self, server):
        assert server.client().healthy()

    def test_submit_then_long_poll_to_settled(self, server):
        client = server.client()
        doc = submit_and_settle(client, sample_scenarios(1)[0])
        assert doc["status"] == "settled"
        assert doc["report"]["engine"] == "herlihy"
        assert doc["cached"] is False

    def test_resubmission_answers_200_cached_zero_engines(self, server):
        client = server.client()
        payload = sample_scenarios(1)[0]
        submit_and_settle(client, payload)
        status, doc = client.submit(payload)
        assert status == 200
        assert doc["status"] == "cached"
        assert doc["engines_executed"] == 0
        assert "report" in doc
        assert server.client().status()["executed"] == 1

    def test_file_store_opened_off_the_loop_thread_serves_warm(self, tmp_path):
        # The store is opened here, on the test thread; BackgroundServer
        # drives the service (and so every store call) on its own loop
        # thread.
        store = SqliteStore(tmp_path / "runs.sqlite")
        service = SwapService(ServiceConfig(rate=0.0), store=store)
        with BackgroundServer(service) as bg:
            client = bg.client()
            payload = sample_scenarios(1)[0]
            assert submit_and_settle(client, payload)["status"] == "settled"
            status, doc = client.submit(payload)
            assert (status, doc["status"]) == (200, "cached")
            assert client.status()["executed"] == 1
        store.close()

    def test_unknown_job_is_404(self, server):
        status, _, doc = server.client().request("GET", "/v1/runs/feedface")
        assert status == 404 and "no such job" in doc["message"]
        with pytest.raises(ServeError):
            server.client().get("feedface")

    def test_unknown_route_is_404(self, server):
        status, _, _ = server.client().request("GET", "/v2/nothing")
        assert status == 404

    def test_malformed_submission_is_400(self, server):
        client = server.client()
        status, _, doc = client.request("POST", "/v1/runs", ["not", "an", "object"])
        assert status == 400
        status, _, doc = client.request(
            "POST", "/v1/runs", {"scenario": {"nonsense": True}}
        )
        # The pre-admission gate answers with one machine-readable
        # diagnostic (code + JSON path) per structural defect, before
        # the submission can claim an execution slot.
        assert status == 400 and doc["error"] == "invalid-scenario"
        codes = {d["code"] for d in doc["diagnostics"]}
        assert "payload/unknown-field" in codes
        assert "topology/missing" in codes
        for diagnostic in doc["diagnostics"]:
            assert set(diagnostic) == {"code", "path", "severity", "message"}

    def test_structurally_invalid_scenario_is_gated_with_json_paths(self, server):
        client = server.client()
        scenario = sample_scenarios(1)[0]
        scenario["leaders"] = [scenario["topology"]["vertices"][0], "Z"]
        status, _, doc = client.request("POST", "/v1/runs", {"scenario": scenario})
        assert status == 400 and doc["error"] == "invalid-scenario"
        by_code = {d["code"]: d for d in doc["diagnostics"]}
        assert by_code["leaders/unknown-vertex"]["path"] == "/leaders/1"

        # Payload-shape clean but graph-level broken: the gate still
        # catches it before an execution slot is claimed.
        scenario = sample_scenarios(1)[0]
        scenario["topology"] = {
            "kind": "digraph",
            "vertices": ["A", "B"],
            "arcs": [["A", "B"]],  # not strongly connected
        }
        scenario.pop("leaders", None)
        status, _, doc = client.request("POST", "/v1/runs", {"scenario": scenario})
        assert status == 400 and doc["error"] == "invalid-scenario"
        codes = {d["code"] for d in doc["diagnostics"]}
        assert "digraph/not-strongly-connected" in codes

    @pytest.mark.parametrize(
        "engine, fields",
        [
            ("2pc", {"faults": FaultPlan().crash("Carol", at_time=100)}),
            ("single-leader", {"diam_override": 12}),
        ],
    )
    def test_what_the_engine_does_not_honour_is_gated(self, server, engine, fields):
        """A crash plan on a baseline with no crash model, or a §4.5
        parameter on a protocol without it, is refused at the gate with
        the engine's own diagnostic, before an execution slot is claimed."""
        scenario = Scenario(triangle(), **fields)
        with pytest.raises(ScenarioError) as refused:
            get_engine(engine).run(scenario)
        status, _, doc = server.client().request(
            "POST", "/v1/runs", {"engine": engine, "scenario": scenario.to_dict()}
        )
        assert status == 400 and doc["error"] == "invalid-scenario"
        assert str(refused.value) in [d["message"] for d in doc["diagnostics"]]
        assert server.client().status()["submitted"] == 0

    def test_unknown_engine_is_400(self, server):
        status, _, _ = server.client().request(
            "POST",
            "/v1/runs",
            {"engine": "warp-drive", "scenario": sample_scenarios(1)[0]},
        )
        assert status == 400

    def test_delete_on_a_terminal_job_reports_its_state(self, server):
        client = server.client()
        doc = submit_and_settle(client, sample_scenarios(1)[0])
        status, _, answer = client.request("DELETE", f"/v1/runs/{doc['key']}")
        assert status == 200 and answer["status"] == "settled"

    def test_status_document_over_http(self, server):
        client = server.client()
        submit_and_settle(client, sample_scenarios(1)[0])
        doc = client.status()
        assert doc["submitted"] >= 1 and doc["executed"] == 1
        assert "latency" in doc and "milestones" in doc

    def test_status_answers_while_a_long_job_runs(self, server):
        """Simulation slices leave the loop free to answer requests."""
        (_, long_run), = build_sweep(
            [Workload("clique", {"n": 12}, mixes=("phase-crash",), timings=("stragglers",))],
            name="serve-status",
        ).items()
        client = server.client()
        status, doc = client.submit(long_run.to_dict())
        assert status == 202
        assert client.status()["in_flight"] == 1
        assert client.wait_settled(doc["key"], timeout=60)["status"] == "settled"


class TestBackpressure:
    def test_rate_limited_submission_is_429_with_retry_after(self):
        config = ServiceConfig(rate=1.0, burst=1.0)
        with BackgroundServer(SwapService(config)) as bg:
            client = bg.client(client_id="hammer")
            scenarios = sample_scenarios(2)
            status, _ = client.submit(scenarios[0])
            assert status == 202
            status, _, doc = client.request(
                "POST", "/v1/runs", {"scenario": scenarios[1]}
            )
            assert status == 429
            assert doc["error"] == "rejected"
            assert doc["reason"] == "rate-limited"
            assert doc["retry_after"] > 0

    def test_retry_after_header_is_set(self):
        config = ServiceConfig(rate=1.0, burst=1.0)
        with BackgroundServer(SwapService(config)) as bg:
            client = bg.client(client_id="hammer")
            scenarios = sample_scenarios(2)
            client.submit(scenarios[0])
            conn = client._connect()
            try:
                conn.request(
                    "POST",
                    "/v1/runs",
                    body=json.dumps({"scenario": scenarios[1]}),
                    headers=client._headers(),
                )
                response = conn.getresponse()
                response.read()
                assert response.status == 429
                assert float(response.getheader("Retry-After")) > 0
            finally:
                conn.close()


class TestEventStreaming:
    def test_ndjson_stream_is_schema_valid_and_terminal(self, server):
        client = server.client()
        doc = submit_and_settle(client, sample_scenarios(1)[0])
        events = list(client.events(doc["key"]))  # check_envelope per line
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted"
        assert kinds[-1] in TERMINAL_EVENTS
        milestone_kinds = {
            event["data"]["kind"] for event in events if event["event"] == "milestone"
        }
        assert milestone_kinds and milestone_kinds <= set(MILESTONE_KINDS)

    def test_stream_resumes_from_seq(self, server):
        client = server.client()
        doc = submit_and_settle(client, sample_scenarios(1)[0])
        full = list(client.events(doc["key"]))
        tail = list(client.events(doc["key"], from_seq=len(full) - 1))
        assert len(tail) == 1 and tail[0] == full[-1]

    def test_websocket_streams_the_lifecycle(self, server):
        client = server.client()
        doc = submit_and_settle(client, sample_scenarios(1)[0])
        events = _ws_collect(server.host, server.port, doc["key"])
        kinds = [check_envelope(event)["event"] for event in events]
        assert kinds[0] == "accepted"
        assert kinds[-1] in TERMINAL_EVENTS


def _ws_collect(host, port, key):
    """A from-scratch RFC 6455 client: handshake, then parse unmasked
    server frames until the close frame (or EOF)."""
    nonce = base64.b64encode(b"0123456789abcdef").decode()
    expected = base64.b64encode(
        hashlib.sha1(
            (nonce + "258EAFA5-E914-47DA-95CA-C5AB0DC85B11").encode()
        ).digest()
    ).decode()
    sock = socket.create_connection((host, port), timeout=60)
    try:
        sock.sendall(
            (
                f"GET /v1/runs/{key}/ws HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {nonce}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode()
        )
        data = b""
        while b"\r\n\r\n" not in data:
            data += sock.recv(4096)
        head, _, data = data.partition(b"\r\n\r\n")
        assert b" 101 " in head.split(b"\r\n", 1)[0]
        assert expected.encode() in head

        def fill(n):
            nonlocal data
            while len(data) < n:
                chunk = sock.recv(4096)
                if not chunk:
                    raise AssertionError("websocket closed without a close frame")
                data += chunk

        events = []
        while True:
            fill(2)
            opcode, length = data[0] & 0x0F, data[1] & 0x7F
            offset = 2
            if length == 126:
                fill(4)
                length, offset = int.from_bytes(data[2:4], "big"), 4
            elif length == 127:
                fill(10)
                length, offset = int.from_bytes(data[2:10], "big"), 10
            fill(offset + length)
            payload = data[offset:offset + length]
            data = data[offset + length:]
            if opcode == 0x8:  # close
                return events
            if opcode == 0x1:  # text
                events.append(json.loads(payload))
    finally:
        sock.close()
