"""Fuzz both transports' framing with in-memory streams, no sockets.

Each example feeds one handler an ``asyncio.StreamReader`` in random
chunks (split reads) and collects what it writes.  Whatever the bytes,
the handler must return without raising, and every reply must be a
typed JSON object: an HTTP response with a status from ``_REASONS``, or
one NDJSON line per non-blank input line.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.api import ServiceState
from repro.service.event_store import EventStore
from repro.service.models import ServiceConfig
from repro.service.server import _REASONS, ReproService, split_lines

CONFIG = ServiceConfig(max_body_bytes=1024, drain_timeout=0.05)
#: The stream limit ``ReproService.start`` gives both listeners.
LIMIT = CONFIG.max_body_bytes + 1024
FUZZ = settings(max_examples=100, deadline=None)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    store = EventStore(str(tmp_path_factory.mktemp("fuzz") / "events.db"))
    state = ServiceState(store, max_runs=2, time_scale=1000.0)
    yield ReproService(state, CONFIG)
    assert state.close(timeout=30.0)
    store.close()


class FakeWriter:
    """The slice of ``asyncio.StreamWriter`` the handlers use."""

    def __init__(self):
        self.data = bytearray()
        self.closed = False

    def write(self, data):
        assert not self.closed
        self.data += data

    async def drain(self):
        pass

    def close(self):
        self.closed = True

    async def wait_closed(self):
        pass


def exchange(handler, data, cuts):
    """Feed ``data`` to ``handler`` split at ``cuts``; return its output."""

    async def main():
        reader = asyncio.StreamReader(limit=LIMIT)
        writer = FakeWriter()

        async def feed():
            start = 0
            for cut in sorted(cuts) + [len(data)]:
                reader.feed_data(data[start:cut])
                start = max(start, cut)
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.create_task(feed())
        await asyncio.wait_for(handler(reader, writer), timeout=10.0)
        await feeder
        assert writer.closed
        return bytes(writer.data)

    return asyncio.run(main())


inf = float("inf")
numbers = st.one_of(
    st.sampled_from([inf, -inf, float("nan"), 1e300, 10**400, -1, 0, 2]),
    st.sampled_from(["1", "x", "", True, None]),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(),
)
flags = st.sampled_from([True, False, 0, 1, "0", "false", "No", "yes", None])
args = st.fixed_dictionaries(
    {},
    optional={
        "op": st.sampled_from(
            ["submit", "health", "runs", "run", "result", "drain",
             "replay-check", "checkpoint", "mystery", 7, None, ["drain"]]
        ),
        "run_id": st.one_of(st.text(max_size=8), st.integers(), st.none()),
        "timeout": numbers,
        "drain": flags,
        "compact": flags,
        "policy": st.sampled_from(["sparrow", "sparrow", "no-such", 3]),
        "params": st.sampled_from([{}, {"x": 1}, [], "p"]),
        "n_workers": st.one_of(numbers, st.sampled_from([2, 4, 10**9])),
        "seed": numbers,
        "tasks": st.one_of(
            st.lists(st.sampled_from([0.001, -1.0, 0, "x", None]), max_size=3),
            st.sampled_from(["0.1", {}, None]),
        ),
        "tenant": st.sampled_from(["t", "", 5]),
    },
)
# Python's json writes Infinity and NaN for non-finite floats.
json_text = args.map(json.dumps).map(str.encode)
raw_line = st.binary(max_size=80).map(lambda b: b.replace(b"\n", b""))
line = st.one_of(
    json_text,
    raw_line,
    st.sampled_from([b"", b"  \r", b"[1, 2]", b"null", b'"op"', b"1e400",
                     b"{\"op\": \"health\"}", b"\xff\xfe{}", b"{"]),
)


def chunks(data, cuts):
    """``data`` cut at ``cuts`` into the non-empty reads a socket gives."""
    edges = [0, *sorted(c for c in cuts if 0 < c < len(data)), len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:]) if b > a]


def readline_lines(data, cuts, limit):
    """What ``readline`` reads of ``data`` fed at ``cuts``: the lines
    without their newlines, and whether one was over ``limit``.
    """

    async def main():
        reader = asyncio.StreamReader(limit=limit)

        async def feed():
            for chunk in chunks(data, cuts):
                reader.feed_data(chunk)
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.create_task(feed())
        lines = []
        try:
            while line := await reader.readline():
                lines.append(line.removesuffix(b"\n"))
        except ValueError:
            return lines, True
        finally:
            await feeder
        return lines, False

    return asyncio.run(main())


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.one_of(st.just(b"\n"), st.binary(max_size=24))),
    cuts=st.lists(st.integers(0, 300)),
    limit=st.integers(1, 40),
)
def test_split_lines_frames_a_stream_as_readline_does(pieces, cuts, limit):
    data = b"".join(pieces)
    tail, lines, over = bytearray(), [], False
    for chunk in [*chunks(data, cuts), b""]:  # b"" is EOF
        got, over = split_lines(tail, chunk, limit)
        lines += got
        if over:
            break
    assert (lines, over) == readline_lines(data, cuts, limit)


@FUZZ
@given(lines=st.lists(line, max_size=6), cuts=st.lists(st.integers(0, 600)))
def test_ndjson_answers_every_line_with_a_json_object(service, lines, cuts):
    data = b"\n".join(lines)
    output = exchange(service._handle_ndjson, data, cuts)
    replies = [json.loads(reply) for reply in output.splitlines()]
    assert len(replies) == sum(1 for x in data.split(b"\n") if x.strip())
    for reply in replies:
        assert isinstance(reply, dict) and isinstance(reply["ok"], bool)
        assert reply["ok"] or isinstance(reply["error"], str)


@FUZZ
@given(
    before=st.lists(json_text, max_size=3),
    size=st.integers(LIMIT + 1, 3 * LIMIT),
    after=st.lists(json_text, max_size=3),
    cuts=st.lists(st.integers(0, 3 * LIMIT)),
)
def test_ndjson_oversized_line_is_answered_then_closed(
    service, before, size, after, cuts
):
    data = b"\n".join([*before, b"x" * size, *after])
    output = exchange(service._handle_ndjson, data, cuts)
    replies = [json.loads(reply) for reply in output.splitlines()]
    assert len(replies) == len(before) + 1
    assert replies[-1] == {"ok": False, "error": "line too long"}


targets = st.one_of(
    st.sampled_from(
        ["/healthz", "/runs", "/runs/x", "/runs/x/result?drain=0",
         "/runs/x/drain?timeout=inf", "/runs/x/checkpoint?compact=1",
         "/runs/x/replay-check", "/jobs", "/jobs?x=1&x=2", "/", "*",
         "//[bad/runs", "/runs/%ff/result?timeout=1e400", "/a/b/c/d"]
    ),
    st.text(min_size=1, max_size=12).map(lambda t: "/" + "".join(t.split())),
)
lengths = st.sampled_from(
    ["exact", "short", "long", "-5", "nope", "²", "٣", "", " 3 ",
     "+4", "1_0", "99999999", None]
)


@st.composite
def http_request(draw, framed=False):
    """One request; a ``framed`` one is well formed up to its args."""
    body = draw(st.one_of(json_text, st.binary(max_size=40)))
    length = str(len(body)) if framed else draw(lengths)
    length = {
        "exact": str(len(body)),
        "short": str(max(len(body) - 3, 0)),
        "long": str(len(body) + 7),
    }.get(length, length)
    line = [
        draw(st.sampled_from(["GET", "POST", "PUT", "get"])),
        draw(targets),
        "HTTP/1.1",
    ]
    if not framed:
        line[0] = draw(st.sampled_from([line[0], ""]))
        line[2] = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/9"]))
    head = [" ".join(line)]
    if length is not None:
        head.append(f"Content-Length: {length}")
    head.append(draw(st.sampled_from(
        ["", "Connection: keep-alive", "X: é"]
        + ([] if framed else ["Connection: close"])
    )))
    head = "\r\n".join(filter(None, head)) + "\r\n\r\n"
    return head.encode("latin-1", "replace") + body


def parse_responses(output):
    """The statuses of an HTTP byte stream of typed JSON responses."""
    responses = []
    while output:
        head, sep, output = output.partition(b"\r\n\r\n")
        assert sep, head
        status_line, *headers = head.decode("latin-1").split("\r\n")
        match = re.fullmatch(r"HTTP/1\.1 (\d{3}) (.+)", status_line)
        assert match, status_line
        status = int(match.group(1))
        assert _REASONS[status] == match.group(2)
        fields = dict(h.split(": ", 1) for h in headers)
        length = int(fields["Content-Length"])
        body, output = output[:length], output[length:]
        assert isinstance(json.loads(body), dict)
        responses.append(status)
    return responses


@FUZZ
@given(
    requests=st.lists(
        st.one_of(http_request(), raw_line.map(lambda b: b + b"\r\n\r\n")),
        min_size=1,
        max_size=3,
    ),
    cuts=st.lists(st.integers(0, 400)),
)
def test_http_answers_every_request_with_a_typed_json_reply(
    service, requests, cuts
):
    output = exchange(service._handle_http, b"".join(requests), cuts)
    # Replies need not pair up with requests: a wrong Content-Length
    # reframes the rest of the stream, and a body cut short gets none.
    parse_responses(output)


@FUZZ
@given(
    requests=st.lists(
        http_request(framed=True).filter(
            lambda r: len(r.partition(b"\r\n\r\n")[2]) <= CONFIG.max_body_bytes
        ),
        min_size=1,
        max_size=3,
    ),
    cuts=st.lists(st.integers(0, 400)),
)
def test_http_answers_each_framed_request_once(service, requests, cuts):
    output = exchange(service._handle_http, b"".join(requests), cuts)
    assert len(parse_responses(output)) == len(requests)


@FUZZ
@given(
    size=st.integers(LIMIT + 1, 3 * LIMIT),
    where=st.sampled_from(["request", "header"]),
    cuts=st.lists(st.integers(0, 3 * LIMIT)),
)
def test_http_oversized_line_gets_one_413(service, size, where, cuts):
    long = b"a" * size
    if where == "request":
        data = b"GET /" + long + b" HTTP/1.1\r\n\r\n"
    else:
        data = b"GET /healthz HTTP/1.1\r\nX-Long: " + long + b"\r\n\r\n"
    output = exchange(service._handle_http, data, cuts)
    assert parse_responses(output) == [413]


def test_unexpected_exception_answers_500_and_keeps_the_connection(
    service, monkeypatch, caplog
):
    def broken():
        raise RuntimeError("boom")

    monkeypatch.setattr(service.state, "health", broken)
    with caplog.at_level(logging.ERROR, logger="repro.service.server"):
        output = exchange(
            service._handle_ndjson, b'{"op": "health"}\n{"op": "runs"}\n', []
        )
        first, second = map(json.loads, output.splitlines())
        assert first == {"ok": False, "error": "internal error"}
        assert second["ok"] is True

        output = exchange(
            service._handle_http,
            b"GET /healthz HTTP/1.1\r\n\r\nGET /runs HTTP/1.1\r\n\r\n",
            [],
        )
        assert parse_responses(output) == [500, 200]
    logged = [r for r in caplog.records if r.name == "repro.service.server"]
    assert [r.exc_info[0] for r in logged] == [RuntimeError] * 2
