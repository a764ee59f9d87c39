"""Asyncio transports: a stdlib HTTP/1.1 endpoint and an NDJSON socket.

No web framework is available in the container, so the HTTP side is a
deliberately small hand-rolled HTTP/1.1 server on ``asyncio.start_server``
— request line, headers, ``Content-Length`` body, keep-alive, JSON in
and out.  The newline-delimited-JSON socket is the fallback (and the
faster path for load generation): one JSON object per line in, one
``{"ok": ...}`` object per line out, over a plain TCP connection.

Both transports keep their own framing and share everything after it:
one op table (:meth:`ReproService._op`) over
:class:`~repro.service.api.ServiceState`, one error map (:func:`_error`)
and one connection teardown.

Pipelining
----------
An NDJSON client may send many lines without waiting.  The socket reads
whatever has arrived, cuts it into lines (:func:`split_lines`), answers
them in request order and sends that read's replies with one write.  A
reply already computed goes out before the handler waits on the
executor, so a submit pipelined ahead of a drain is acknowledged while
the drain waits.  One write per read matters on one CPU: each socket
send releases the GIL, and the event loop then waits behind the bridge
threads before it can read the next line.  HTTP answers one request per
round trip.

Ops
---
An NDJSON line names its op in ``"op"`` (default ``submit``) beside its
args.  Over HTTP the route names the op, and the JSON body, the query
values and the ``{id}`` path segment (as ``run_id``) are its args.

============ ================================ ===========================
op           HTTP route                       args
============ ================================ ===========================
submit       POST ``/jobs``                   run config and job
health       GET ``/healthz``
runs         GET ``/runs``
run          GET ``/runs/{id}``               ``run_id``
result       GET ``/runs/{id}/result``        ``run_id drain timeout``
drain        POST ``/runs/{id}/drain``        ``run_id timeout``
replay-check POST ``/runs/{id}/replay-check`` ``run_id``
checkpoint   POST ``/runs/{id}/checkpoint``   ``run_id compact``
============ ================================ ===========================

``drain`` (default true) and ``compact`` (default false) are on/off
flags, spelled as the ``REPRO_*`` environment switches are
(:func:`~repro.core.params.parse_flag`): a JSON boolean, JSON ``0``/``1``,
or ``1/0``, ``on/off``, ``yes/no``, ``true/false`` in any case, as JSON
or as query strings; absent or empty means the default, and any other
value answers 400 naming the arg.  ``timeout``
is seconds in ``[0, threading.TIMEOUT_MAX]``, by default the config's
``drain_timeout``.

Errors
------
An HTTP error is its status and an ``{"error": ...}`` body; the NDJSON
reply is the same body with ``"ok": false``.

====== ========================================================
status cause
====== ========================================================
400    ``ConfigurationError``, malformed input or args
404    no HTTP route
405    an HTTP method other than GET and POST
413    a body over ``max_body_bytes``, a line or an HTTP request head
       over the stream limit (``max_body_bytes + 1024``)
500    any other exception, which is logged
503    ``StoreUnavailable``; the body adds ``"unavailable": true``
504    ``DrainTimeout``; the body adds ``"timeout": true``
====== ========================================================
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import logging
import threading
from typing import Any, AsyncIterator, Awaitable, Callable, TypeVar, cast
from urllib.parse import parse_qs, urlsplit

from repro.core.errors import ConfigurationError, StoreUnavailable
from repro.core.params import parse_flag
from repro.service.api import DrainTimeout, ServiceState
from repro.service.models import ServiceConfig

_T = TypeVar("_T")

logger = logging.getLogger(__name__)

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: HTTP ``(method, *path)`` → op; ``{id}`` stands for the run id.
_ROUTES = {
    ("GET", "healthz"): "health",
    ("GET", "runs"): "runs",
    ("GET", "runs", "{id}"): "run",
    ("GET", "runs", "{id}", "result"): "result",
    ("POST", "jobs"): "submit",
    ("POST", "runs", "{id}", "drain"): "drain",
    ("POST", "runs", "{id}", "replay-check"): "replay-check",
    ("POST", "runs", "{id}", "checkpoint"): "checkpoint",
}
_METHODS = {route[0] for route in _ROUTES}
#: The request headers the server reads; it keeps no other.
_HEADERS = ("content-length", "connection")


def _error(exc: Exception) -> tuple[int, dict[str, Any]]:
    """The typed ``(status, body)`` reply to an op that raised ``exc``.

    Call it from the ``except`` block: an exception it does not know is
    logged with its traceback and answered 500.
    """
    if isinstance(exc, ConfigurationError):
        return 400, {"error": str(exc)}
    if isinstance(exc, DrainTimeout):
        return 504, {"error": str(exc), "timeout": True}
    if isinstance(exc, StoreUnavailable):
        return 503, {"error": str(exc), "unavailable": True}
    # Malformed input: JSON and UTF-8 decode errors are ValueErrors, and
    # int()/float() of an infinite or huge number raise OverflowError.
    if isinstance(exc, (KeyError, TypeError, ValueError, OverflowError)):
        return 400, {"error": f"bad request: {exc}"}
    logger.exception("internal error answering a request")
    return 500, {"error": "internal error"}


#: Bytes a connection reads at a time.  The lines of one read are
#: answered together, so this bounds the replies a read makes the
#: server hold.
_READ_SIZE = 64 * 1024


def split_lines(
    tail: bytearray, data: bytes, limit: int
) -> tuple[list[bytes], bool]:
    """Cut the complete lines off ``tail + data``, as ``readline`` would.

    ``tail`` is the partial line earlier reads left.  It is extended in
    place (so a line that arrives over many reads costs linear time) and
    keeps what follows the last newline.  Returns the complete lines
    without their newlines, and whether a line or the tail is longer
    than ``limit`` bytes, newline not counted, which is the rule of
    ``asyncio.StreamReader.readline``: the lines then stop before the
    long one, and the rest of the stream is unframed.  Empty ``data`` is
    EOF, where a non-empty tail is the last line.
    """
    if data:
        cut = data.rfind(b"\n") + 1
        if not cut:
            tail += data
            return [], len(tail) > limit
        lines = b"".join((tail, data[:cut])).split(b"\n")
        lines.pop()
        tail[:] = data[cut:]
    else:
        lines = [bytes(tail)] if tail else []
        tail.clear()
    for i, line in enumerate(lines):
        if len(line) > limit:
            return lines[:i], True
    return lines, len(tail) > limit


class ReproService:
    """Both listeners over one :class:`ServiceState`."""

    def __init__(self, state: ServiceState, config: ServiceConfig) -> None:
        self.state = state
        self.config = config
        self.http_port = 0
        self.socket_port = 0
        self._http_server: asyncio.Server | None = None
        self._socket_server: asyncio.Server | None = None
        # Open client connections; closed explicitly on stop() so idle
        # keep-alive handlers exit before the event loop tears down
        # (instead of being cancelled mid-readline).
        self._writers: set[asyncio.StreamWriter] = set()
        # The stream limit: the longest NDJSON line and the largest HTTP
        # request head a client can make the server hold.
        self._limit = config.max_body_bytes + 1024

        #: Summary of the startup rehydration pass (see
        #: :meth:`ServiceState.rehydrate`).
        self.rehydrated: dict[str, Any] = {"resumed": [], "failed": []}

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        # Resume interrupted runs before accepting traffic, so a client
        # re-submitting after a crash lands on the resumed bridge.
        loop = asyncio.get_running_loop()
        self.rehydrated = await loop.run_in_executor(
            None, self.state.rehydrate
        )
        self._http_server = await asyncio.start_server(
            self._handle_http,
            self.config.host,
            self.config.http_port,
            limit=self._limit,
        )
        self._socket_server = await asyncio.start_server(
            self._handle_ndjson,
            self.config.host,
            self.config.socket_port,
            limit=self._limit,
        )
        # Ephemeral-port discovery: port 0 binds to a free port and the
        # bound socket is the only place the real number exists.
        self.http_port = self._http_server.sockets[0].getsockname()[1]
        self.socket_port = self._socket_server.sockets[0].getsockname()[1]

    async def stop(self) -> bool:
        """Close the listeners and drain the state.

        Returns ``False`` when shutdown was dirty — some bridge thread
        outlived the drain budget (the leaked runs are logged by
        :meth:`ServiceState.close` and recoverable via rehydration).
        """
        for server in (self._http_server, self._socket_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._http_server = None
        self._socket_server = None
        for writer in list(self._writers):
            writer.close()
        for _ in range(200):
            if not self._writers:
                break
            await asyncio.sleep(0.01)
        loop = asyncio.get_running_loop()
        clean: bool = await loop.run_in_executor(
            None,
            functools.partial(
                self.state.close, timeout=self.config.drain_timeout
            ),
        )
        return clean

    @contextlib.asynccontextmanager
    async def _connection(
        self, writer: asyncio.StreamWriter
    ) -> AsyncIterator[None]:
        """Track one client connection and close it when its handler ends.

        A client that vanishes or cuts a body short just ends the
        connection: there is nobody left to answer.
        """
        self._writers.add(writer)
        try:
            yield
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    # -- HTTP ------------------------------------------------------------
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async with self._connection(writer):
            keep = True
            while keep:
                answer = await self._request(reader)
                if answer is None:
                    return
                status, payload, keep = answer
                body = json.dumps(payload).encode()
                reply = (
                    f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: {'keep-alive' if keep else 'close'}\r\n"
                    "\r\n"
                )
                writer.write(reply.encode("latin-1") + body)
                await writer.drain()

    async def _request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, Any], bool] | None:
        """Read one request and answer ``(status, body, keep)``.

        ``None`` means the client closed the connection between requests.
        """
        too_large = 413, {"error": "request head exceeds the size limit"}, False
        headers: dict[str, str] = {}
        try:
            first = line = await reader.readline()
            size = len(first)
            while line not in (b"\r\n", b"\n", b""):
                line = await reader.readline()
                size += len(line)
                if size > self._limit:
                    return too_large
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name in _HEADERS:
                    headers[name] = value.strip()
        except ValueError:
            # readline reports a line over the stream limit as a bare
            # ValueError.  The rest of the stream is unframed garbage, so
            # answer once and drop the connection.
            return too_large
        if not first:
            return None
        parts = first.decode("latin-1").split()
        if len(parts) != 3:
            return 400, {"error": "malformed request line"}, False
        method, target, version = parts
        try:
            # int(), not str.isdigit(): "²".isdigit() is true.
            length = int(headers.get("content-length") or "0")
            if length < 0:
                raise ValueError(length)
        except ValueError:
            return 400, {"error": "bad Content-Length"}, False
        if length > self.config.max_body_bytes:
            return 413, {"error": "body too large"}, False
        body = await reader.readexactly(length)
        default = "keep-alive" if version == "HTTP/1.1" else "close"
        keep = headers.get("connection", default).lower() != "close"
        try:
            url = urlsplit(target)
            path = [p for p in url.path.split("/") if p]
            args: dict[str, Any] = {}
            if len(path) > 1:  # every longer route has the run id second
                args, path[1] = {"run_id": path[1]}, "{id}"
            op = _ROUTES.get((method, *path))
            if op is None:
                status = 404 if method in _METHODS else 405
                error = f"no route for {method} {url.path}"
                return status, {"error": error}, keep
            data = json.loads(body) if body else {}
            if not isinstance(data, dict):
                raise ConfigurationError("body must be a JSON object")
            query = parse_qs(url.query)
            args = {**data, **{k: v[-1] for k, v in query.items()}, **args}
            reply = self._op(op, args)
            if not isinstance(reply, dict):
                reply = await reply
            return (202 if op == "submit" else 200), reply, keep
        except Exception as exc:
            status, payload = _error(exc)
            return status, payload, keep

    # -- NDJSON socket ---------------------------------------------------
    async def _handle_ndjson(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async with self._connection(writer):
            tail = bytearray()
            while True:
                data = await reader.read(_READ_SIZE)
                lines, too_long = split_lines(tail, data, self._limit)
                out: list[bytes] = []
                for line in lines:
                    if not line.strip():
                        continue
                    try:
                        args = json.loads(line)
                        if not isinstance(args, dict):
                            raise ConfigurationError("each line must be an object")
                        reply = self._op(args.pop("op", "submit"), args)
                        if not isinstance(reply, dict):
                            # Send what is answered before the wait, so a
                            # pipelining client never waits behind a drain.
                            if out:
                                writer.write(b"".join(out))
                                out.clear()
                            reply = await reply
                        reply = {"ok": True, **reply}
                    except Exception as exc:
                        status, body = _error(exc)
                        reply = {"ok": status < 400, **body}
                    out.append((json.dumps(reply) + "\n").encode())
                if too_long:
                    out.append(b'{"ok": false, "error": "line too long"}\n')
                if out:
                    writer.write(b"".join(out))
                    await writer.drain()
                if too_long or not data:
                    return

    # -- the one op table ------------------------------------------------
    def _op(
        self, op: Any, args: dict[str, Any]
    ) -> dict[str, Any] | Awaitable[dict[str, Any]]:
        """Start one op for either transport: the reply body, or an
        awaitable of it when the op runs on the executor.

        The threading rule: a submission to a live run is validated and
        enqueued on the event loop, and its reply comes back at once.
        Everything that may wait or touch SQLite runs on the executor, a
        new run's first job included, so the loop keeps accepting
        connections while a drain waits.  No lock a submission takes is
        held across SQLite or engine construction, so the inline path
        cannot stall behind a commit.
        """
        state, blocking = self.state, self._blocking
        if op == "submit":
            accepted = state.submit(args, create=False)
            if accepted is not None:
                return accepted
            # With create=True, submit always returns a reply.
            return cast(
                "Awaitable[dict[str, Any]]", blocking(state.submit, args)
            )
        if op == "health":
            return blocking(state.health)
        if op == "runs":
            return blocking(state.runs)
        if op == "run":
            return blocking(state.run_detail, str(args["run_id"]))
        if op in ("result", "drain"):
            # Event.wait raises OverflowError past threading.TIMEOUT_MAX.
            timeout = float(args.get("timeout", self.config.drain_timeout))
            if not 0.0 <= timeout <= threading.TIMEOUT_MAX:
                raise ConfigurationError(
                    f"timeout must be in [0, {threading.TIMEOUT_MAX:g}] "
                    f"seconds, got {timeout!r}"
                )
            return blocking(
                state.run_result,
                str(args["run_id"]),
                drain=op == "drain"
                or parse_flag("drain", args.get("drain"), True),
                timeout=timeout,
            )
        if op == "replay-check":
            return blocking(state.replay_check, str(args["run_id"]))
        if op == "checkpoint":
            return blocking(
                state.checkpoint,
                str(args["run_id"]),
                compact=parse_flag("compact", args.get("compact"), False),
            )
        raise ConfigurationError(f"unknown op {op!r}")

    @staticmethod
    def _blocking(
        func: Callable[..., _T], *args: Any, **kwargs: Any
    ) -> Awaitable[_T]:
        """Run one operation that may wait or touch SQLite on the executor."""
        return asyncio.get_running_loop().run_in_executor(
            None, functools.partial(func, *args, **kwargs)
        )


class ServiceThread:
    """A whole service on a background event loop (tests, benchmarks).

    ``start()`` blocks until both ports are bound, so callers can read
    :attr:`http_port` / :attr:`socket_port` immediately after.
    """

    def __init__(self, state: ServiceState, config: ServiceConfig) -> None:
        self.service = ReproService(state, config)
        self._ready = threading.Event()
        self._failed: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    @property
    def http_port(self) -> int:
        return self.service.http_port

    @property
    def socket_port(self) -> int:
        return self.service.socket_port

    def start(self) -> "ServiceThread":
        if self._thread is not None:
            raise ConfigurationError("service thread already started")
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ConfigurationError("service failed to start within 30 s")
        if self._failed is not None:
            raise ConfigurationError(
                f"service failed to start: {self._failed}"
            )
        return self

    def stop(self, timeout: float = 60.0) -> bool:
        thread = self._thread
        if thread is None:
            return True
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None and loop.is_running():
            loop.call_soon_threadsafe(stop_event.set)
        thread.join(timeout)
        return not thread.is_alive()

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - startup failure
            self._failed = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.service.start()
        self._ready.set()
        await self._stop_event.wait()
        await self.service.stop()
