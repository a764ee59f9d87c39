"""``python -m repro.service`` / ``repro-serve``: run the server."""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from repro.core.errors import ConfigurationError
from repro.service.api import ServiceState
from repro.service.event_store import EventStore
from repro.service.models import ServiceConfig
from repro.service.server import ReproService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve registry scheduler policies over HTTP and an NDJSON "
            "socket, persisting every lifecycle event to SQLite."
        ),
    )
    parser.add_argument(
        "--db",
        default="service_events.db",
        help="SQLite event-store path (default: %(default)s)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--http-port",
        type=int,
        default=8176,
        help="HTTP port; 0 picks a free one (default: %(default)s)",
    )
    parser.add_argument(
        "--socket-port",
        type=int,
        default=8177,
        help="NDJSON socket port; 0 picks a free one (default: %(default)s)",
    )
    parser.add_argument(
        "--max-runs",
        type=int,
        default=32,
        help="live run-configuration limit (default: %(default)s)",
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="virtual seconds per wall second (default: %(default)s)",
    )
    return parser


async def _serve(service: ReproService) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)
    await service.start()
    for resumed in service.rehydrated["resumed"]:
        print(
            f"repro-serve: resumed run {resumed['run_id']} "
            f"({resumed['jobs_resumed']} interrupted job(s), "
            f"{resumed['jobs_already_done']} already complete)",
            flush=True,
        )
    print(
        f"repro-serve: http on {service.config.host}:{service.http_port}, "
        f"ndjson on {service.config.host}:{service.socket_port}, "
        f"store at {service.state.store.path}",
        flush=True,
    )
    await stop.wait()
    print("repro-serve: draining live runs ...", flush=True)
    await service.stop()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    store: EventStore | None = None
    try:
        config = ServiceConfig(
            host=args.host,
            http_port=args.http_port,
            socket_port=args.socket_port,
        )
        store = EventStore(args.db)
        state = ServiceState(
            store, max_runs=args.max_runs, time_scale=args.time_scale
        )
        asyncio.run(_serve(ReproService(state, config)))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - signal path
        return 130
    finally:
        if store is not None:
            store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
