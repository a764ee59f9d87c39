"""End-to-end transport tests: HTTP and the NDJSON socket.

One :class:`ServiceThread` per test module would share bridge state
between tests, so each test boots its own service on ephemeral ports —
startup is tens of milliseconds.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection
from urllib.parse import urlencode

import pytest

from repro.service.api import ServiceState
from repro.service.event_store import EventStore
from repro.service.models import ServiceConfig, canonical_json
from repro.service.server import _ROUTES, ServiceThread

SCALE = 200.0


@pytest.fixture
def service(tmp_path):
    store = EventStore(str(tmp_path / "events.db"))
    state = ServiceState(store, time_scale=SCALE)
    config = ServiceConfig(http_port=0, socket_port=0, drain_timeout=30.0)
    with ServiceThread(state, config) as thread:
        yield thread
    store.close()


def http(service, method, path, payload=None):
    body = canonical_json(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{service.http_port}{path}",
        data=body,
        method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def job_payload(policy="hawk", tasks=(0.02, 0.04)):
    return {
        "policy": policy,
        "n_workers": 16,
        "cutoff": 0.1,
        "tasks": list(tasks),
    }


def test_http_submit_drain_and_replay_check(service):
    status, payload = http(service, "GET", "/healthz")
    assert status == 200 and payload["status"] == "ok"

    run_id = None
    for i in range(10):
        status, payload = http(service, "POST", "/jobs", job_payload())
        assert status == 202
        assert payload["job_id"] == i
        run_id = payload["run_id"]

    status, payload = http(service, "POST", f"/runs/{run_id}/drain")
    assert status == 200 and payload["drained"]
    assert len(payload["result"]["jobs"]) == 10

    status, payload = http(service, "POST", f"/runs/{run_id}/replay-check")
    assert status == 200
    assert payload["match"] is True
    assert payload["live_jobs"] == payload["replayed_jobs"] == 10

    status, payload = http(service, "GET", "/runs")
    assert status == 200
    (row,) = payload["runs"]
    assert row["run_id"] == run_id and row["live"]

    status, payload = http(service, "GET", f"/runs/{run_id}")
    assert status == 200
    assert payload["config"]["policy"] == "hawk"
    assert payload["stats"]["completed"] == 10
    assert len(payload["latencies"]) == 10

    status, payload = http(
        service, "GET", f"/runs/{run_id}/result?drain=0"
    )
    assert status == 200 and len(payload["result"]["jobs"]) == 10


def test_http_checkpoint_compacts_on_request(service):
    status, payload = http(service, "POST", "/jobs", job_payload("sparrow"))
    run_id = payload["run_id"]
    http(service, "POST", f"/runs/{run_id}/drain")
    status, payload = http(service, "POST", f"/runs/{run_id}/checkpoint")
    assert status == 200 and payload["compacted_events"] == 0
    status, payload = http(
        service, "POST", f"/runs/{run_id}/checkpoint?compact=1"
    )
    assert status == 200 and payload["compacted_events"] > 0
    status, payload = http(service, "POST", f"/runs/{run_id}/replay-check")
    assert payload["match"] is True


def test_http_client_errors(service):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http(service, "POST", "/jobs", job_payload(policy="no-such-policy"))
    assert excinfo.value.code == 400

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http(service, "POST", "/jobs", job_payload(policy="omniscient"))
    assert excinfo.value.code == 400
    assert "serves_online" in json.loads(excinfo.value.read())["error"]

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http(service, "GET", "/runs/nope")
    assert excinfo.value.code == 400

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http(service, "GET", "/no/such/route")
    assert excinfo.value.code == 404


@pytest.fixture
def tiny_service(tmp_path):
    """A service with the smallest legal body cap and a tiny drain budget."""
    store = EventStore(str(tmp_path / "events.db"))
    state = ServiceState(store, time_scale=SCALE)
    config = ServiceConfig(
        http_port=0,
        socket_port=0,
        max_body_bytes=1024,
        drain_timeout=0.25,
    )
    with ServiceThread(state, config) as thread:
        yield thread
    store.close()


def raw_http(service, data, timeout=30):
    """Push raw bytes at the HTTP port and return everything sent back."""
    with socket.create_connection(
        ("127.0.0.1", service.http_port), timeout=timeout
    ) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def test_http_oversized_request_line_gets_413(tiny_service):
    # No newline anywhere: readline overruns the stream limit, which
    # used to kill the handler without any response at all.
    response = raw_http(tiny_service, b"GET /" + b"a" * 8192)
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 ")
    assert "size limit" in json.loads(body)["error"]

    # The listener survives oversized clients: a normal request works.
    status, payload = http(tiny_service, "GET", "/healthz")
    assert status == 200 and payload["status"] == "ok"


def test_http_oversized_body_gets_413(tiny_service):
    big = job_payload(tasks=[0.02] * 300)  # > 1024 bytes of JSON
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http(tiny_service, "POST", "/jobs", big)
    assert excinfo.value.code == 413
    assert "too large" in json.loads(excinfo.value.read())["error"]


def test_http_bad_content_length_gets_400(tiny_service):
    response = raw_http(
        tiny_service,
        b"POST /jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
    )
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"Content-Length" in response


def test_http_negative_content_length_gets_400(tiny_service):
    # readexactly(-5) raises ValueError, which used to drop the
    # connection without any response.
    response = raw_http(
        tiny_service,
        b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    )
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"Content-Length" in response


def test_ndjson_oversized_line_reports_before_closing(tiny_service):
    with socket.create_connection(
        ("127.0.0.1", tiny_service.socket_port), timeout=30
    ) as sock:
        sock.sendall(b"x" * 8192)  # no newline: unframed garbage
        handle = sock.makefile("r", encoding="utf-8", newline="\n")
        response = json.loads(handle.readline())
        assert response == {"ok": False, "error": "line too long"}
        assert handle.readline() == ""  # server closed the connection


def test_drain_timeout_maps_to_504_and_flags_ndjson(tiny_service):
    # 200 virtual seconds = 1 wall second at scale 200: far beyond the
    # 0.25 s drain budget, so the drain must time out rather than hang
    # or silently return a partial result.
    slow = job_payload("sparrow", tasks=(200.0,))
    status, payload = http(tiny_service, "POST", "/jobs", slow)
    assert status == 202
    run_id = payload["run_id"]

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http(tiny_service, "POST", f"/runs/{run_id}/drain")
    assert excinfo.value.code == 504
    body = json.loads(excinfo.value.read())
    assert body["timeout"] is True and "in" in body["error"]

    (via_socket,) = ndjson(
        tiny_service, {"op": "drain", "run_id": run_id, "timeout": 0.05}
    )
    assert via_socket["ok"] is False and via_socket["timeout"] is True

    # Partial results stay reachable while the run finishes ...
    status, payload = http(
        tiny_service, "GET", f"/runs/{run_id}/result?drain=0"
    )
    assert status == 200 and payload["result"]["jobs"] == []

    # ... and the run itself is fine: wait it out for a clean shutdown.
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        status, payload = http(
            tiny_service, "GET", f"/runs/{run_id}/result?drain=0"
        )
        if len(payload["result"]["jobs"]) == 1:
            break
        time.sleep(0.05)
    else:
        pytest.fail("slow job never completed")


def ndjson(service, *payloads):
    responses = []
    with socket.create_connection(
        ("127.0.0.1", service.socket_port), timeout=30
    ) as sock:
        handle = sock.makefile("rw", encoding="utf-8", newline="\n")
        for payload in payloads:
            handle.write(canonical_json(payload) + "\n")
            handle.flush()
            responses.append(json.loads(handle.readline()))
        handle.close()
    return responses


def test_ndjson_submit_drain_and_replay_check(service):
    submits = [job_payload("sparrow") for _ in range(8)]
    responses = ndjson(service, *submits)
    assert all(r["ok"] for r in responses)
    assert [r["job_id"] for r in responses] == list(range(8))
    run_id = responses[0]["run_id"]
    assert len({r["run_id"] for r in responses}) == 1

    (drained,) = ndjson(service, {"op": "drain", "run_id": run_id})
    assert drained["ok"] and drained["drained"]
    assert len(drained["result"]["jobs"]) == 8

    (check,) = ndjson(service, {"op": "replay-check", "run_id": run_id})
    assert check["ok"] and check["match"] is True

    (health,) = ndjson(service, {"op": "health"})
    assert health["ok"] and health["live_runs"] == 1

    (runs,) = ndjson(service, {"op": "runs"})
    assert runs["ok"] and len(runs["runs"]) == 1


def test_ndjson_error_responses_keep_the_connection_usable(service):
    bad_policy = job_payload(policy="no-such-policy")
    responses = ndjson(
        service,
        bad_policy,
        {"op": "mystery"},
        {"op": "replay-check", "run_id": "nope"},
        job_payload("hawk"),
    )
    assert [r["ok"] for r in responses] == [False, False, False, True]
    assert "unknown policy" in responses[0]["error"] or "policy" in responses[0]["error"]
    assert "unknown op" in responses[1]["error"]


def test_same_config_lands_in_the_same_run_across_transports(service):
    # 16 and 16.0 workers spell one config, whichever spelling came first.
    spelled = {**job_payload("hawk"), "n_workers": 16.0}
    run_ids = set()
    for payload in (job_payload("hawk"), spelled, job_payload("hawk")):
        (via_socket,) = ndjson(service, payload)
        _, via_http = http(service, "POST", "/jobs", payload)
        run_ids |= {via_socket["run_id"], via_http["run_id"]}
    (run_id,) = run_ids
    (drained,) = ndjson(service, {"op": "drain", "run_id": run_id})
    assert len(drained["result"]["jobs"]) == 6


def submit_via(service, transport, payload):
    """One job over ``transport``; returns the reply without the ok flag."""
    if transport == "http":
        status, reply = http(service, "POST", "/jobs", payload)
        assert status == 202
        return reply
    (reply,) = ndjson(service, payload)
    assert reply.pop("ok") is True, reply
    return reply


@pytest.mark.parametrize("transport", ["ndjson", "http"])
def test_submit_creates_a_run_off_the_loop_then_submits_inline(
    service, transport
):
    state = service.service.state
    calls = []
    submit = state.submit

    def spy(payload, *, create=True):
        reply = submit(payload, create=create)
        calls.append((create, reply is not None))
        return reply

    state.submit = spy
    first = submit_via(service, transport, job_payload("sparrow"))
    assert first["job_id"] == 0
    # The first job of a new run is retried with create=True ...
    assert calls == [(False, False), (True, True)]
    calls.clear()
    second = submit_via(service, transport, job_payload("sparrow"))
    assert second == {"run_id": first["run_id"], "job_id": 1}
    # ... a job for a live run is accepted by the inline call alone.
    assert calls == [(False, True)]
    (drained,) = ndjson(service, {"op": "drain", "run_id": first["run_id"]})
    assert len(drained["result"]["jobs"]) == 2


def test_submit_after_close_began_gets_the_shutdown_error(service):
    (live,) = ndjson(service, job_payload("sparrow"))
    assert live["ok"]
    assert service.service.state.close(timeout=30.0)
    for payload in (job_payload("sparrow"), job_payload("hawk")):
        (reply,) = ndjson(service, payload)
        assert reply == {"ok": False, "error": "service is shutting down"}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http(service, "POST", "/jobs", payload)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"] == "service is shutting down"


def test_run_limit_answers_400(tmp_path):
    store = EventStore(str(tmp_path / "events.db"))
    state = ServiceState(store, max_runs=1, time_scale=SCALE)
    config = ServiceConfig(http_port=0, socket_port=0)
    with ServiceThread(state, config) as service:
        (first,) = ndjson(service, job_payload("sparrow"))
        assert first["ok"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http(service, "POST", "/jobs", job_payload("hawk"))
        assert excinfo.value.code == 400
        assert "run limit" in json.loads(excinfo.value.read())["error"]
        (refused,) = ndjson(service, job_payload("hawk"))
        assert refused["ok"] is False and "run limit" in refused["error"]
        # The live run still takes jobs.
        status, reply = http(service, "POST", "/jobs", job_payload("sparrow"))
        assert status == 202 and reply["job_id"] == 1
    store.close()


class Wire:
    """One keep-alive connection that sends ops over either transport.

    ``send(op, args)`` answers ``(ok, status, body)``: over HTTP the
    route comes from the server's route table, a submit's args are the
    JSON body and every other op's args are query values; over NDJSON
    the args go beside ``op`` on one line and ``status`` is ``None``.
    ``args`` may be a dict or the JSON text of one.
    """

    ROUTE_OF = {op: route for route, op in _ROUTES.items()}

    def __init__(self, service, transport):
        self.transport = transport
        if transport == "http":
            self.conn = HTTPConnection(
                "127.0.0.1", service.http_port, timeout=30
            )
        else:
            self.sock = socket.create_connection(
                ("127.0.0.1", service.socket_port), timeout=30
            )
            self.handle = self.sock.makefile("rw", encoding="utf-8")

    def send(self, op, args):
        text = args if isinstance(args, str) else json.dumps(args)
        if self.transport == "ndjson":
            fields = [f'"op": {json.dumps(op)}', text.strip()[1:-1].strip()]
            self.handle.write("{" + ", ".join(filter(None, fields)) + "}\n")
            self.handle.flush()
            reply = json.loads(self.handle.readline())
            return reply.pop("ok"), None, reply
        method, *path = self.ROUTE_OF[op]
        data = json.loads(text)
        run_id = data.pop("run_id", None)
        target = "/" + "/".join(run_id if p == "{id}" else p for p in path)
        if op == "submit":
            self.conn.request(method, target, body=text)
        else:
            query = urlencode({k: str(v) for k, v in data.items()})
            self.conn.request(method, target + ("?" + query) * bool(query))
        response = self.conn.getresponse()
        body = json.loads(response.read())
        return response.status < 400, response.status, body

    def close(self):
        if self.transport == "http":
            self.conn.close()
        else:
            self.handle.close()
            self.sock.close()


@pytest.mark.parametrize("transport", ["ndjson", "http"])
def test_infinite_numbers_get_a_typed_400_and_the_connection_lives(
    service, transport
):
    # Infinity and 1e400 (json reads it as inf) used to raise
    # OverflowError past every handler: no reply, connection dropped.
    wire = Wire(service, transport)
    slow = job_payload("sparrow", tasks=(40.0,))  # 0.2 s of wall time
    ok, _, first = wire.send("submit", slow)
    assert ok, first
    # A non-finite cutoff used to pass validation and fail hashing the
    # run id, as a "bad request" about JSON compliance.
    for field, value, said in (
        ("n_workers", "Infinity", "bad run config"),
        ("seed", "Infinity", "bad run config"),
        ("n_workers", "1e400", "bad run config"),
        ("cutoff", "Infinity", "cutoff must be positive and finite"),
        ("cutoff", "NaN", "cutoff must be positive and finite"),
    ):
        bad = f'{{"policy": "sparrow", "{field}": {value}, "tasks": [0.5]}}'
        ok, status, reply = wire.send("submit", bad)
        assert not ok and status in (None, 400)
        assert said in reply["error"]
        ok, _, accepted = wire.send("submit", slow)
        assert ok and accepted["run_id"] == first["run_id"], accepted
    # Event.wait raises OverflowError on a timeout past TIMEOUT_MAX.
    run_id = first["run_id"]
    for timeout in ("1e300", "Infinity", "-1", "NaN"):
        text = f'{{"run_id": "{run_id}", "timeout": {timeout}}}'
        ok, status, reply = wire.send("drain", text)
        assert not ok and status in (None, 400)
        assert "timeout must be in" in reply["error"], reply
    ok, _, drained = wire.send("drain", {"run_id": run_id})
    assert ok and len(drained["result"]["jobs"]) == 6
    wire.close()


def test_every_op_answers_alike_over_both_transports(service):
    by_http, by_ndjson = Wire(service, "http"), Wire(service, "ndjson")

    def both(op, args):
        ok, status, body = by_http.send(op, args)
        ok2, _, body2 = by_ndjson.send(op, args)
        assert ok == ok2 == (status < 400)
        assert body == body2, (op, args)
        return status, body

    # 200 virtual seconds = 1 wall second at scale 200.
    ok, _, first = by_http.send("submit", job_payload("sparrow", (200.0,)))
    run_id = first["run_id"]
    # Wait until the run has folded its opening events (submitted, probed,
    # started); it then sits still until the task finishes a wall second
    # later, so both transports read the same live snapshot.
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        _, _, live = by_http.send("result", {"run_id": run_id, "drain": "false"})
        if live["result"]["events_fired"] >= 3:
            break
        time.sleep(0.01)
    status, body = both("result", {"run_id": run_id, "drain": "false"})
    assert status == 200 and body["result"]["jobs"] == []
    status, body = both("drain", {"run_id": run_id, "timeout": 0.05})
    assert status == 504 and body["timeout"] is True
    status, body = both("drain", {"run_id": run_id, "timeout": 30})
    assert status == 200 and len(body["result"]["jobs"]) == 1
    for op in ("health", "runs"):
        assert both(op, {})[0] == 200
    for op in ("run", "result", "replay-check", "checkpoint"):
        assert both(op, {"run_id": run_id})[0] == 200
    assert both("checkpoint", {"run_id": run_id, "compact": "0"})[0] == 200
    assert both("run", {"run_id": "nope"})[0] == 400
    assert both("drain", {"run_id": run_id, "timeout": "soon"})[0] == 400
    assert both("submit", job_payload(policy="no-such-policy"))[0] == 400

    _, status, accepted = by_http.send("submit", job_payload("sparrow"))
    _, _, also = by_ndjson.send("submit", job_payload("sparrow"))
    assert status == 202
    assert also == {**accepted, "job_id": accepted["job_id"] + 1}
    by_http.close()
    by_ndjson.close()


def test_two_runs_streamed_over_both_transports_replay_after_compaction(
    tmp_path,
):
    """200 jobs for two policies over one keep-alive connection each.

    Jobs alternate between the transports in pairs (the hawk run starts
    on NDJSON, the sparrow run on HTTP).  Each run is checkpointed and
    compacted after the first 100, so its replay-check folds a snapshot
    plus the rows appended after it, and must still equal the live run.
    """
    store = EventStore(str(tmp_path / "events.db"))
    state = ServiceState(store, time_scale=50.0)
    with ServiceThread(state, ServiceConfig()) as service:
        wires = {t: Wire(service, t) for t in ("ndjson", "http")}
        run_ids = set()
        for i in range(200):
            if i == 100:
                for run_id in sorted(run_ids):
                    ok, _, reply = wires["ndjson"].send(
                        "checkpoint", {"run_id": run_id, "compact": True}
                    )
                    assert ok and reply["compacted_events"] > 0, reply
            job = {
                "policy": ("hawk", "sparrow")[i % 2],
                "n_workers": 50,
                "cutoff": 0.1,
                "tasks": [0.02, 0.05],
            }
            transport = ("ndjson", "http")[(i + i // 2) % 2]
            ok, status, ack = wires[transport].send("submit", job)
            assert ok and status in (None, 202), ack
            run_ids.add(ack["run_id"])
        for run_id in sorted(run_ids):
            for op in ("drain", "replay-check"):
                ok, _, reply = wires["ndjson"].send(
                    op, {"run_id": run_id, "timeout": 120}
                )
                assert ok, reply
            assert reply["match"] and reply["live_jobs"] == 100, reply
        ok, _, health = wires["http"].send("health", {})
        assert ok and health["status"] == "ok" and health["live_runs"] == 2
        for wire in wires.values():
            wire.close()
    store.close()
