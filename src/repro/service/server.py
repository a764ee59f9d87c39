"""Asyncio transports: a stdlib HTTP/1.1 endpoint and an NDJSON socket.

No web framework is available in the container, so the HTTP side is a
deliberately small hand-rolled HTTP/1.1 server on ``asyncio.start_server``
— request line, headers, ``Content-Length`` body, keep-alive, JSON in
and out.  The newline-delimited-JSON socket is the fallback (and the
faster path for load generation): one JSON object per line in, one
``{"ok": ...}`` object per line out, over a plain TCP connection.

Both transports delegate every operation to
:class:`~repro.service.api.ServiceState`, under one threading rule:

* a submission to a live run is handled on the event loop — it only
  validates the payload and enqueues the job for the run's bridge
  thread, so no job pays a hop through a pool thread;
* everything that may wait or touch SQLite runs in the default
  executor: the first submission of a run (engine construction and the
  ``register_run`` commit), drain/result, replay-check, runs,
  checkpoint and health — so the loop keeps accepting connections while
  a drain waits;
* no lock that a submission takes is ever held across SQLite or engine
  construction, so the inline path cannot stall behind a commit.

Routes
------
====== ============================ ======================================
GET    ``/healthz``                 liveness + store counters
GET    ``/runs``                    all runs (live and historical)
GET    ``/runs/{id}``               one run's config, stats, event count
GET    ``/runs/{id}/result``        folded result (``?drain=0`` to skip)
POST   ``/jobs``                    submit one job (202 + run/job ids)
POST   ``/runs/{id}/drain``         block until in-flight jobs finish
POST   ``/runs/{id}/replay-check``  cold replay vs live equality
POST   ``/runs/{id}/checkpoint``    snapshot (``?compact=1`` to compact)
====== ============================ ======================================

NDJSON ops mirror the routes: ``submit`` (default), ``health``,
``runs``, ``result``, ``drain``, ``replay-check``, ``checkpoint``.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
from typing import Any, Awaitable, Callable, TypeVar
from urllib.parse import parse_qs, urlsplit

from repro.core.errors import ConfigurationError, StoreUnavailable
from repro.service.api import DrainTimeout, ServiceState
from repro.service.models import ServiceConfig

_T = TypeVar("_T")

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


class _LineTooLong(Exception):
    """A readline exceeded the stream buffer limit (mapped to 413)."""


def _flag(query: dict[str, list[str]], name: str, default: bool) -> bool:
    values = query.get(name)
    if not values:
        return default
    return values[-1] not in ("0", "false", "no")


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
        limit = self.config.max_body_bytes + 1024
        self._http_server = await asyncio.start_server(
            self._handle_http,
            self.config.host,
            self.config.http_port,
            limit=limit,
        )
        self._socket_server = await asyncio.start_server(
            self._handle_ndjson,
            self.config.host,
            self.config.socket_port,
            limit=limit,
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

    # -- HTTP ------------------------------------------------------------
    @staticmethod
    async def _readline(reader: asyncio.StreamReader) -> bytes:
        """One line off the stream; over-limit lines raise typed.

        ``StreamReader.readline`` reports a line longer than the stream
        buffer limit as a bare ``ValueError`` — left alone it would kill
        the handler without a response.  Re-raising as
        :class:`_LineTooLong` lets the request loop answer a clean 413.
        """
        try:
            return await reader.readline()
        except ValueError as exc:
            raise _LineTooLong(str(exc)) from exc

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                request_line = await self._readline(reader)
                if not request_line:
                    break
                parts = request_line.decode("latin-1").split()
                if len(parts) != 3:
                    await self._respond(
                        writer, 400, {"error": "malformed request line"},
                        keep=False,
                    )
                    break
                method, target, version = parts
                headers: dict[str, str] = {}
                while True:
                    line = await self._readline(reader)
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0") or "0")
                    if length < 0:
                        raise ValueError(length)
                except ValueError:
                    await self._respond(
                        writer, 400, {"error": "bad Content-Length"},
                        keep=False,
                    )
                    break
                if length > self.config.max_body_bytes:
                    await self._respond(
                        writer, 413, {"error": "body too large"}, keep=False
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                keep = (
                    headers.get(
                        "connection",
                        "keep-alive" if version == "HTTP/1.1" else "close",
                    ).lower()
                    != "close"
                )
                status, payload = await self._dispatch(method, target, body)
                await self._respond(writer, status, payload, keep=keep)
                if not keep:
                    break
        except _LineTooLong:
            # An oversized request/header line: the rest of the stream
            # is unframed garbage, so answer once and drop the
            # connection instead of dying without a response.
            try:
                await self._respond(
                    writer,
                    413,
                    {"error": "request line exceeds the size limit"},
                    keep=False,
                )
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            ValueError,
        ):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        keep: bool,
    ) -> None:
        body = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        url = urlsplit(target)
        path = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        try:
            call = self._route(method, path, query, body)
            if call is None:
                return 404, {"error": f"no route for {method} {url.path}"}
            status, reply = call
            return status, await reply
        except ConfigurationError as exc:
            return 400, {"error": str(exc)}
        except DrainTimeout as exc:
            return 504, {"error": str(exc), "timeout": True}
        except StoreUnavailable as exc:
            return 503, {"error": str(exc)}
        except json.JSONDecodeError as exc:
            return 400, {"error": f"bad JSON body: {exc}"}
        except (KeyError, TypeError, ValueError) as exc:
            return 400, {"error": f"bad request: {exc}"}

    def _route(
        self,
        method: str,
        path: list[str],
        query: dict[str, list[str]],
        body: bytes,
    ) -> tuple[int, Awaitable[dict[str, Any]]] | None:
        """Map one request to ``(status, reply)``; ``None`` = 404."""
        state = self.state
        blocking = self._blocking
        if method == "GET":
            if path == ["healthz"]:
                return 200, blocking(state.health)
            if path == ["runs"]:
                return 200, blocking(state.runs)
            if len(path) == 2 and path[0] == "runs":
                return 200, blocking(state.run_detail, path[1])
            if len(path) == 3 and path[0] == "runs" and path[2] == "result":
                return 200, blocking(
                    state.run_result,
                    path[1],
                    drain=_flag(query, "drain", True),
                    timeout=self.config.drain_timeout,
                )
            return None
        if method == "POST":
            if path == ["jobs"]:
                data = json.loads(body or b"{}")
                if not isinstance(data, dict):
                    raise ConfigurationError("body must be a JSON object")
                return 202, self._submit(data)
            if len(path) == 3 and path[0] == "runs":
                run_id, action = path[1], path[2]
                if action == "drain":
                    return 200, blocking(
                        state.run_result,
                        run_id,
                        drain=True,
                        timeout=self.config.drain_timeout,
                    )
                if action == "replay-check":
                    return 200, blocking(state.replay_check, run_id)
                if action == "checkpoint":
                    return 200, blocking(
                        state.checkpoint,
                        run_id,
                        compact=_flag(query, "compact", False),
                    )
            return None
        return 405, blocking(lambda: {"error": f"method {method} not allowed"})

    # -- shared by both transports ----------------------------------------
    async def _submit(self, data: dict[str, Any]) -> dict[str, Any]:
        """Submit inline when the job's run is live, else on the executor."""
        accepted = self.state.submit(data, create=False)
        if accepted is None:
            accepted = await self._blocking(self.state.submit, data)
        assert accepted is not None  # create=True always returns a reply
        return accepted

    @staticmethod
    def _blocking(
        func: Callable[..., _T], *args: Any, **kwargs: Any
    ) -> Awaitable[_T]:
        """Run one operation that may wait or touch SQLite on the executor."""
        return asyncio.get_running_loop().run_in_executor(
            None, functools.partial(func, *args, **kwargs)
        )

    # -- NDJSON socket ---------------------------------------------------
    async def _handle_ndjson(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    response: dict[str, Any] = {
                        "ok": False,
                        "error": "line too long",
                    }
                    writer.write((json.dumps(response) + "\n").encode())
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._ndjson_op(line)
                writer.write((json.dumps(response) + "\n").encode())
                await writer.drain()
        except ConnectionError:  # pragma: no cover - client vanished
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    async def _ndjson_op(self, line: bytes) -> dict[str, Any]:
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                return {"ok": False, "error": "each line must be an object"}
            op = data.pop("op", "submit")
            state = self.state
            blocking = self._blocking
            reply: Awaitable[dict[str, Any]]
            if op == "submit":
                reply = self._submit(data)
            elif op == "health":
                reply = blocking(state.health)
            elif op == "runs":
                reply = blocking(state.runs)
            elif op in ("result", "drain"):
                reply = blocking(
                    state.run_result,
                    str(data["run_id"]),
                    drain=bool(data.get("drain", True)),
                    timeout=float(
                        data.get("timeout", self.config.drain_timeout)
                    ),
                )
            elif op == "replay-check":
                reply = blocking(state.replay_check, str(data["run_id"]))
            elif op == "checkpoint":
                reply = blocking(
                    state.checkpoint,
                    str(data["run_id"]),
                    compact=bool(data.get("compact", False)),
                )
            else:
                return {"ok": False, "error": f"unknown op {op!r}"}
            return {"ok": True, **await reply}
        except ConfigurationError as exc:
            return {"ok": False, "error": str(exc)}
        except DrainTimeout as exc:
            return {"ok": False, "error": str(exc), "timeout": True}
        except StoreUnavailable as exc:
            return {"ok": False, "error": str(exc), "unavailable": True}
        except (
            json.JSONDecodeError,
            KeyError,
            TypeError,
            ValueError,
        ) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}


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
