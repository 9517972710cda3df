"""Asyncio JSON-lines front end over the supervised worker pool.

``repro serve --workers N --port P`` runs this server: an
:mod:`asyncio` TCP acceptor speaking exactly the JSON-lines request
schema of the stdin service (one JSON object per line in, one per line
out, matched by ``id``), backed by a :class:`~repro.streaming.
supervisor.Supervisor` whose workers all answer from the same sealed
pipeline snapshot.  The pool runs on this server's own event loop: one
thread serves the sockets, routes the requests and supervises the
workers.

Per connection, requests are submitted to the pool the moment their
line arrives (so the pool batches across connections and a slow request
does not block the socket), while responses are written back in arrival
order — the stream a client reads is byte-identical in content and
order to running the same lines through the single-process
``PredictionService``, modulo the wall-clock ``latency_s`` field.

Failure surface (all observable via :class:`ServerStats`):

* overload → structured ``{"id": ..., "error": "overloaded"}`` line
  and a ``shed`` count, never a dropped connection;
* worker crash/hang mid-request → transparent re-dispatch by the
  supervisor (``retried``/``restarts`` count);
* request deadline missed twice → ``{"error": "deadline"}`` line and a
  ``deadline_misses`` count;
* SIGINT/SIGTERM → graceful drain: stop accepting, flush every
  in-flight response, stop the workers and write a final named
  snapshot, so operational state survives the restart.

Control lines (``{"control": ...}``) expose stats, a chaos worker-kill
hook (gated by ``allow_chaos``) and remote shutdown for the load-test
harness.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Union

from repro.errors import ServiceOverloadError, ServingError
from repro.streaming.supervisor import Supervisor, WorkerPoolConfig

__all__ = [
    "ServerConfig",
    "ServerStats",
    "PredictionServer",
]

#: Socket errors a connection's teardown swallows.
_TEARDOWN_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError)


@dataclass(frozen=True)
class ServerConfig:
    """Socket, pool and shutdown policy of the prediction server."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (reported by ``start``).
    port: int = 0
    #: Worker pool sizing and liveness policy.
    pool: WorkerPoolConfig = field(default_factory=WorkerPoolConfig)
    #: Name the drained pipeline is saved back under on shutdown
    #: (``None`` skips the final snapshot).
    final_snapshot: Optional[str] = None
    #: Whether ``{"control": "kill-worker"}`` is honoured.
    allow_chaos: bool = False
    #: Longest a graceful drain may take before forcing shutdown.
    drain_timeout_s: float = 30.0


@dataclass
class ServerStats:
    """Server-level counters merged with the pool's failure counters."""

    connections: int = 0
    #: JSON lines received (requests + control commands).
    lines: int = 0
    #: Lines that were not valid JSON objects.
    bad_lines: int = 0

    def as_dict(self, supervisor: Optional[Supervisor] = None) -> Dict[str, Any]:
        """JSON-ready stats; includes pool counters when given a pool."""
        payload: Dict[str, Any] = {
            "connections": self.connections,
            "lines": self.lines,
            "bad_lines": self.bad_lines,
        }
        if supervisor is not None:
            payload.update(supervisor.stats_dict())
        return payload


class PredictionServer:
    """JSON-lines TCP server over a supervised worker pool."""

    def __init__(
        self, config: Optional[ServerConfig] = None, supervisor: Optional[Supervisor] = None
    ) -> None:
        """Wire the server; :meth:`start` boots pool and socket."""
        self.config = config or ServerConfig()
        self.supervisor = supervisor or Supervisor(self.config.pool)
        self.stats = ServerStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._shutdown_event = asyncio.Event()
        self._shutdown_reason: Optional[str] = None
        self.port: Optional[int] = None
        #: Key of the final snapshot written on drain (None until then).
        self.final_snapshot_key: Optional[str] = None

    async def start(self) -> int:
        """Start workers and socket; returns the bound port."""
        await self.supervisor.start()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.config.host, port=self.config.port
            )
        except OSError:  # the workers ignore signals: they must not outlive this
            await self.supervisor.drain(timeout_s=2.0)
            raise
        self.port = int(self._server.sockets[0].getsockname()[1])
        return self.port

    def request_shutdown(self, reason: str) -> None:
        """Ask the server to drain and stop (idempotent, signal-safe)."""
        if self._shutdown_reason is None:
            self._shutdown_reason = reason
        self._shutdown_event.set()

    async def serve_until_shutdown(self) -> Dict[str, Any]:
        """Serve until a signal or shutdown command; returns final stats.

        Installs SIGINT/SIGTERM handlers on the running loop for the
        lifetime of the call, drains gracefully, writes the final
        snapshot, and leaves the pool stopped.
        """
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, self.request_shutdown, signal.Signals(signum).name
                )
                installed.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                break  # non-main thread or exotic loop: signals stay default
        try:
            await self._shutdown_event.wait()
            return await self.shutdown()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    async def shutdown(self) -> Dict[str, Any]:
        """Graceful drain: flush in-flight work, stop workers, snapshot."""
        from repro.streaming.state import save_snapshot

        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Connection handlers watch the shutdown event: each one stops
        # reading new lines, flushes its already-accepted responses and
        # exits — so waiting on them IS the in-flight flush.
        self._shutdown_event.set()
        if self._conn_tasks:
            await asyncio.wait(
                self._conn_tasks, timeout=self.config.drain_timeout_s
            )
        drain_clean = await self.supervisor.drain(self.config.drain_timeout_s)
        if self.config.final_snapshot and self.supervisor.pipeline is not None:
            self.final_snapshot_key = save_snapshot(
                self.config.final_snapshot, self.supervisor.pipeline
            )
        summary = self.stats.as_dict(self.supervisor)
        summary["drain_clean"] = bool(drain_clean)
        summary["reason"] = self._shutdown_reason or "shutdown"
        summary["final_snapshot_key"] = self.final_snapshot_key
        summary["worker_service_stats"] = {
            str(wid): stats
            for wid, stats in self.supervisor.worker_service_stats().items()
        }
        return summary

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self.stats.connections += 1
        # Responses are queued (as awaitables or ready dicts) in arrival
        # order and written by one writer task, so output order matches
        # input order while the pool works on many lines at once.
        outbox: "asyncio.Queue[Optional[Union[asyncio.Future, Dict[str, Any]]]]" = (
            asyncio.Queue()
        )
        writer_task = asyncio.ensure_future(self._write_loop(writer, outbox))
        try:
            while not self._shutdown_event.is_set():
                read_task = asyncio.ensure_future(reader.readline())
                stop_task = asyncio.ensure_future(self._shutdown_event.wait())
                await asyncio.wait(
                    {read_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
                )
                stop_task.cancel()
                if not read_task.done():
                    # Drain started mid-read: stop accepting new lines;
                    # everything already in the outbox still flushes.
                    read_task.cancel()
                    with contextlib.suppress(*_TEARDOWN_ERRORS):
                        await asyncio.gather(read_task, return_exceptions=True)
                    break
                raw = read_task.result()
                if not raw:
                    break  # client closed its end
                line = raw.strip()
                if not line:
                    continue
                self.stats.lines += 1
                await outbox.put(self._take_line(line))
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            await outbox.put(None)
            with contextlib.suppress(*_TEARDOWN_ERRORS):
                await writer_task
            with contextlib.suppress(*_TEARDOWN_ERRORS):
                writer.close()
                await writer.wait_closed()

    def _take_line(
        self, line: bytes
    ) -> Union["asyncio.Future", Dict[str, Any]]:
        """Turn one input line into a queued response (dict or future)."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            self.stats.bad_lines += 1
            return {"error": f"invalid JSON: {exc}"}
        if not isinstance(payload, dict):
            self.stats.bad_lines += 1
            return {"error": "request must be a JSON object"}
        if "control" in payload:
            return self._handle_control(payload)
        try:
            return self.supervisor.submit(payload)
        except ServiceOverloadError:
            return {"id": payload.get("id"), "error": "overloaded"}
        except ServingError as exc:
            return {"id": payload.get("id"), "error": str(exc)}

    def _handle_control(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one ``{"control": ...}`` command."""
        command = str(payload.get("control"))
        if command == "stats":
            return {"control": "stats", "stats": self.stats.as_dict(self.supervisor)}
        if command == "ping":
            return {"control": "ping", "workers_live": self.supervisor.n_live}
        if command == "kill-worker":
            if not self.config.allow_chaos:
                return {"control": command, "error": "chaos commands are disabled"}
            killed = self.supervisor.kill_worker(payload.get("worker"))
            return {"control": command, "killed": killed}
        if command == "hang-worker":
            if not self.config.allow_chaos:
                return {"control": command, "error": "chaos commands are disabled"}
            hung = self.supervisor.hang_worker(
                float(payload.get("seconds", 10.0)), payload.get("worker")
            )
            return {"control": command, "hung": hung}
        if command == "shutdown":
            self.request_shutdown("control command")
            return {"control": command, "ok": True}
        return {"control": command, "error": f"unknown control command {command!r}"}

    async def _write_loop(
        self,
        writer: asyncio.StreamWriter,
        outbox: "asyncio.Queue[Optional[Union[asyncio.Future, Dict[str, Any]]]]",
    ) -> None:
        """Write responses in arrival order; awaits pool futures inline."""
        while True:
            item = await outbox.get()
            if item is None:
                return
            if isinstance(item, dict):
                response = item
            else:
                try:
                    # The supervisor's own deadline machinery resolves
                    # every future; the outer timeout is a last-resort
                    # guard against a wedged pool.
                    response = await asyncio.wait_for(
                        item, timeout=self.config.pool.request_timeout_s * 4 + 10.0
                    )
                except asyncio.TimeoutError:
                    response = {"error": "server timeout"}
            try:
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                return
