"""Supervised prediction-worker pool, run on the server's event loop.

The robustness core of the multi-worker server
(:mod:`repro.streaming.server`).  A :class:`Supervisor` owns N worker
processes that each restore a :class:`~repro.streaming.service.
PredictionService` from one shared, named pipeline snapshot in the
artifact cache, and routes request payloads to them over each worker's
own pipes, on the server's asyncio loop: no thread, no lock, no polling.
Everything that can go wrong is handled explicitly:

* **Crash and hang detection** — worker slots, heartbeats, the
  liveness deadline and the respawn backoff and budget belong to the
  shared supervision core (:mod:`repro.core.supervise`); a dead worker
  is respawned from the same sealed snapshot, and one that exhausts the
  budget is *downgraded* (permanently removed) while the survivors
  keep serving.  Workers ignore SIGINT/SIGTERM: the server drains them.
* **No lost accepted requests** — requests in flight on a dead worker
  are re-dispatched to the survivors; duplicates from races (a timeout
  retry overtaking a slow first answer) are resolved first-answer-wins.
* **Per-request timeout** — a request that misses its deadline is
  retried once on a *different* worker; a second miss resolves it with
  a structured ``deadline`` error, never a silent hang.
* **Backpressure** — a worker holds at most ``max_queue`` requests; when
  every live worker is full, :meth:`Supervisor.submit` raises the typed
  :class:`~repro.errors.ServiceOverloadError` and counts the shed.

Every worker answers from the same frozen model snapshot, so any two
workers produce byte-identical predictions for the same request — that
is what makes crash re-dispatch and timeout retry *safe*: the client
cannot tell which worker answered.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os
import pickle
import signal
import struct
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.supervise import (
    DYING,
    FAILED,
    LIVE,
    RESTARTING,
    STARTING,
    STOPPED,
    Pool,
    RestartPolicy,
    Slot,
)
from repro.errors import ReproError, ServiceOverloadError, ServingError, SnapshotError

__all__ = [
    "WorkerPoolConfig",
    "PoolStats",
    "Supervisor",
    "worker_main",
]

#: ``multiprocessing.connection.Connection``'s length prefix, so a worker
#: reads the parent's frames with ``recv()``.
_HEADER = struct.Struct("!i")


@dataclass(frozen=True)
class WorkerPoolConfig:
    """Sizing, liveness and retry policy of the worker pool."""

    #: Workers in the pool (the server's ``--workers``).
    n_workers: int = 2
    #: Named pipeline snapshot every worker restores from.
    snapshot_name: str = "serve"
    #: Most requests a single worker may hold (queued + in service).
    max_queue: int = 64
    #: Micro-batch size inside each worker's :class:`PredictionService`.
    max_batch: int = 8
    #: Longest accepted prediction horizon, ticks.
    max_horizon_ticks: int = 672
    #: Heartbeat older than this marks the worker hung; an idle worker
    #: refreshes its heartbeat four times per deadline.
    liveness_deadline_s: float = 3.0
    #: Per-request deadline before the retry/miss machinery engages.
    request_timeout_s: float = 5.0
    #: Respawn attempts per worker slot before permanent downgrade.
    max_restarts: int = 3
    #: First respawn delay; doubles per consecutive restart.
    restart_backoff_s: float = 0.1
    #: How long :meth:`Supervisor.start` waits for the pool to come up.
    start_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ServingError("a worker pool needs at least one worker")
        if self.max_queue < 1 or self.max_batch < 1:
            raise ServingError("max_queue and max_batch must be positive")
        if self.request_timeout_s <= 0:
            raise ServingError("request_timeout_s must be positive")
        self.policy()  # validates the liveness and restart fields

    def policy(self) -> RestartPolicy:
        """The liveness deadline, restart budget and backoff of every slot."""
        return RestartPolicy(self.liveness_deadline_s, self.max_restarts, self.restart_backoff_s)


@dataclass
class PoolStats:
    """Counters over every failure path the pool can take."""

    served: int = 0
    #: Invalid requests answered with a structured error.
    rejected: int = 0
    #: Requests refused because every live worker's queue was full.
    shed: int = 0
    #: Re-dispatches (timeout retry or crash re-dispatch).
    retried: int = 0
    #: Worker respawns performed (crash or hang).
    restarts: int = 0
    #: Requests that missed their deadline on two different workers.
    deadline_misses: int = 0
    #: Requests failed because no worker could ever take them.
    failed: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict form for reports and the stats control command."""
        return asdict(self)


def worker_main(
    worker_id: int,
    snapshot_name: str,
    requests: Any,
    responses: Any,
    heartbeat: Any,
    config: WorkerPoolConfig,
) -> None:
    """One worker process: restore the snapshot, answer until told to stop.

    Protocol (over the incarnation's own two pipes):

    * in  — ``("req", seq, payload)``, ``("hang", seconds)`` and
      ``("die",)`` (chaos hooks), ``("stop",)``;
    * out — ``("ready", wid)``, ``("ok", seq, wid, payload)``,
      ``("err", seq, wid, message)``, ``("fatal", wid, message)``,
      ``("bye", wid, stats)``.

    The worker is deliberately boring: all retry/respawn intelligence
    lives in the supervisor, so a worker can die at *any* line of this
    function without losing an accepted request.  It exits when the
    parent's end of its request pipe closes.
    """
    # Imports happen here (not at module top) so a spawned worker pays
    # them once, and so the module stays importable without a model.
    from repro.streaming.service import PredictionService, ServiceConfig, build_request
    from repro.streaming.state import load_snapshot

    try:
        pipeline = load_snapshot(snapshot_name, required=True)
    except SnapshotError as exc:
        responses.send(("fatal", worker_id, str(exc)))
        return
    service = PredictionService(
        pipeline,
        ServiceConfig(
            max_queue=config.max_queue,
            max_batch=config.max_batch,
            max_horizon_ticks=config.max_horizon_ticks,
        ),
    )
    held_inputs = pipeline.estimator.last_inputs()
    # A worker only answers, so its buffered state never changes.
    buffered_history = pipeline.estimator.history() is not None
    heartbeat.value = time.monotonic()
    responses.send(("ready", worker_id))

    stopping = False
    while not stopping:
        heartbeat.value = time.monotonic()
        try:
            if not requests.poll(config.liveness_deadline_s / 4):  # beat 4x a deadline
                continue
            # Micro-batch: greedily gather whatever else is already sent.
            batch = [requests.recv()]
            while len(batch) < config.max_batch and requests.poll():
                batch.append(requests.recv())
        except EOFError:
            return  # the parent closed its end: nobody is left to answer
        pending: List[tuple] = []
        for item in batch:
            kind = item[0]
            if kind == "die":
                # Chaos: what it answered is in its own pipe already; the
                # supervisor re-dispatches the rest of this batch.
                os.kill(os.getpid(), signal.SIGKILL)
            elif kind == "stop":
                stopping = True
            elif kind == "hang":
                time.sleep(float(item[1]))  # chaos: stall the heartbeat
            elif kind == "req":
                pending.append(item)
        seqs: List[int] = []
        for _, seq, payload in pending:
            try:
                request = build_request(
                    payload,
                    held_inputs,
                    str(payload.get("id", f"req-{seq}")),
                    service.config.max_horizon_ticks,
                    buffered_history,
                )
                service.submit(request)
                seqs.append(seq)
            except (ReproError, ValueError, TypeError) as exc:
                responses.send(("err", seq, worker_id, str(exc)))
        # The batch holds at most max_batch requests: one drain answers all.
        for seq, response in zip(seqs, service.drain()):
            responses.send(("ok", seq, worker_id, response.to_payload()))
    responses.send(("bye", worker_id, service.stats.as_dict()))


class _Link:
    """The parent's ends of one worker incarnation's two pipes.

    A request is framed as ``Connection.send`` frames it and written
    without blocking (a blocking write could deadlock with a worker that
    is blocked writing answers): what the pipe does not take waits in
    ``outbox`` until the loop finds it writable.  A response is read
    whole once its first bytes are in, as the worker writes it at once.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, ctx: Any) -> None:
        worker_requests, self.requests = ctx.Pipe(duplex=False)
        self.responses, worker_responses = ctx.Pipe(duplex=False)
        #: The worker's ends; the parent closes its copies once it started.
        self.child_ends = (worker_requests, worker_responses)
        self.loop, self.outbox = loop, bytearray()
        os.set_blocking(self.requests.fileno(), False)

    def send(self, message: tuple) -> None:
        if not self.requests.closed:
            body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            self.outbox += _HEADER.pack(len(body)) + body
            self._flush()

    def _flush(self) -> None:
        fd = self.requests.fileno()
        try:
            del self.outbox[: os.write(fd, self.outbox)]
        except BlockingIOError:
            pass
        except OSError:  # the worker is gone; its sentinel reports that
            self.outbox.clear()
        if self.outbox:
            self.loop.add_writer(fd, self._flush)
        else:
            self.loop.remove_writer(fd)

    def close(self) -> None:
        if not self.requests.closed:
            self.loop.remove_writer(self.requests.fileno())
            self.loop.remove_reader(self.responses.fileno())
            for conn in (self.requests, self.responses, *self.child_ends):
                conn.close()


@dataclass
class _Inflight:
    """One accepted request and where it currently lives."""

    seq: int
    payload: Dict[str, Any]
    future: "asyncio.Future[Dict[str, Any]]"
    worker_id: int = -1
    #: Dispatch count (1 = first attempt).
    attempts: int = 0
    deadline: float = 0.0
    #: Whether a deadline-driven retry already happened.
    retried_on_timeout: bool = False


class Supervisor:
    """Owns the worker pool; every method runs on one asyncio loop.

    :meth:`submit` returns an :class:`asyncio.Future` that resolves to a
    JSON-serializable response payload.
    """

    def __init__(self, config: Optional[WorkerPoolConfig] = None) -> None:
        """Create an un-started pool; :meth:`start` boots the workers."""
        self.config = config or WorkerPoolConfig()
        self.stats = PoolStats()
        n = self.config.n_workers
        self._pool = Pool(n, self.config.policy(), worker_main, self._worker_args)
        self._slots = self._pool.slots
        #: Per worker: its current incarnation's pipes, the seqs
        #: dispatched to it, the sheds it contributed to (its queue was
        #: full when a submit was refused) and its final ServiceStats.
        self._links: List[Optional[_Link]] = [None] * n
        self._held: List[set] = [set() for _ in range(n)]
        self._shed = [0] * n
        self._final_stats: Dict[int, Dict[str, Any]] = {}
        self._inflight: Dict[int, _Inflight] = {}
        #: Requests waiting for *any* worker to come back.
        self._parked: List[_Inflight] = []
        self._seqs = itertools.count(1)
        self._route = itertools.count(0)
        self._accepting = False
        self._fatal: Optional[str] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The one timer, and the moment it is set for.
        self._timer: Optional[asyncio.TimerHandle] = None
        self._due = math.inf
        #: Resolved after the next loop event, for :meth:`_until`.
        self._waiter: Optional[asyncio.Future] = None
        self.pipeline = None  # the supervisor's own restored copy

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Restore the snapshot, spawn the workers, wait until live."""
        from repro.streaming.state import load_snapshot

        self._loop = asyncio.get_running_loop()
        # The supervisor restores its own copy first: it validates the
        # snapshot before any worker boots, and it is what the server
        # writes back as the final snapshot on graceful drain.
        self.pipeline = load_snapshot(self.config.snapshot_name, required=True)
        now = time.monotonic()
        for slot in self._slots:
            self._pool.spawn(slot, now)
            self._started(slot)
        self._accepting = True
        self._arm(now)
        up = await self._until(
            lambda: self._fatal is not None or all(slot.state == LIVE for slot in self._slots),
            self.config.start_timeout_s,
        )
        if self._fatal is not None or not up:
            await self.drain(timeout_s=2.0)
            raise ServingError(
                f"worker pool failed to start: {self._fatal}" if up
                else f"worker pool did not come up within {self.config.start_timeout_s:g}s"
            )

    def _worker_args(self, slot: Slot) -> tuple:
        """Arguments of one worker incarnation; each gets its own pipes."""
        link = self._links[slot.sid] = _Link(self._loop, self._pool.ctx)
        name = self.config.snapshot_name
        return (slot.sid, name, *link.child_ends, slot.heartbeat, self.config)

    def _started(self, slot: Slot) -> None:
        """Put a just-spawned incarnation on the loop.  The parent drops its
        copies of the child's pipe ends, so the child's death reads as EOF."""
        link = self._links[slot.sid]
        for conn in link.child_ends:
            conn.close()
        self._loop.add_reader(link.responses.fileno(), self._on_readable, link)
        self._loop.add_reader(slot.process.sentinel, self._on_exit, slot.process, link)

    # -- loop edges: the only places that read the clock -------------------

    def _on_readable(self, link: _Link) -> None:
        now = time.monotonic()
        try:
            while link.responses.poll():
                self._on_message(link.responses.recv(), now)
        except (EOFError, OSError):  # the worker is gone
            self._loop.remove_reader(link.responses.fileno())
        self._wake()

    def _on_exit(self, process: Any, link: _Link) -> None:
        """A worker process ended: read its last words, reap it, judge it."""
        self._loop.remove_reader(process.sentinel)
        self._on_readable(link)
        process.join()  # its sentinel is ready, so this returns at once
        self._tick()
        link.close()

    def _tick(self) -> None:
        """The timer: liveness and respawns, request deadlines, unparking."""
        now = time.monotonic()
        for slot, event in self._pool.check(now):
            if event == "respawned":
                self.stats.restarts += 1
                self._started(slot)
            else:
                self._orphan(slot, event, now)
        self._check_deadlines(now)
        self._unpark(now)
        self._arm(now)
        self._wake()

    def _arm(self, now: float, due: Optional[float] = None) -> None:
        """Set the one timer for ``due``, by default the next request
        deadline or slot decision."""
        if due is None:
            wake = self._pool.wake_after(now)
            due = min([entry.deadline for entry in self._inflight.values()]
                      + ([] if wake is None else [now + wake]), default=math.inf)
        if self._timer is not None:
            self._timer.cancel()
        self._timer, self._due = None, due
        if due < math.inf:
            self._timer = self._loop.call_later(max(0.0, due - now), self._tick)

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    async def _until(self, done: Callable[[], bool], timeout_s: float) -> bool:
        """Whether ``done()`` holds within ``timeout_s``, judged after each loop event."""
        deadline = self._loop.time() + timeout_s
        while not done():
            left = deadline - self._loop.time()
            if left <= 0:
                return False
            self._waiter = self._loop.create_future()
            await asyncio.wait((self._waiter,), timeout=left)
        return True

    # -- submission --------------------------------------------------------

    @property
    def n_live(self) -> int:
        """Workers currently accepting requests."""
        return sum(1 for slot in self._slots if slot.state == LIVE)

    def worker_states(self) -> Dict[int, str]:
        """Worker id → lifecycle state (for the stats command)."""
        return {slot.sid: slot.state for slot in self._slots}

    def submit(self, payload: Dict[str, Any]) -> "asyncio.Future[Dict[str, Any]]":
        """Accept one request payload; resolves to a response payload.

        Raises :class:`ServiceOverloadError` when every live worker's
        queue is full (the caller sheds), and :class:`ServingError` when
        the pool is draining or has no workers left at all.
        """
        if not self._accepting:
            raise ServingError("the worker pool is draining")
        if all(slot.state == FAILED for slot in self._slots):
            raise ServingError("every worker has permanently failed")
        entry = _Inflight(next(self._seqs), payload, self._loop.create_future())
        slot = self._pick_slot(exclude=None)
        if slot is not None:
            self._dispatch(entry, slot, time.monotonic())
            return entry.future
        if any(slot_.state in (DYING, RESTARTING) for slot_ in self._slots) and not any(
            slot_.state == LIVE for slot_ in self._slots
        ):
            # Nobody live right now but somebody is coming back: park
            # rather than shed, so a mid-restart burst is not lost.
            # Parking is bounded by the pool's total queue budget.
            if len(self._parked) < self.config.n_workers * self.config.max_queue:
                self._parked.append(entry)
                return entry.future
        self.stats.shed += 1
        for slot_ in self._slots:
            if slot_.state == LIVE:
                self._shed[slot_.sid] += 1
        raise ServiceOverloadError("every live worker's request queue is full")

    def _pick_slot(self, exclude: Optional[int]) -> Optional[Slot]:
        """Round-robin over live workers with queue headroom."""
        candidates = [
            slot
            for slot in self._slots
            if slot.state == LIVE
            and slot.sid != exclude
            and len(self._held[slot.sid]) < self.config.max_queue
        ]
        if not candidates:
            # A retry that cannot avoid its own worker beats dropping.
            if exclude is not None:
                return self._pick_slot(exclude=None)
            return None
        turn = next(self._route)
        return candidates[turn % len(candidates)]

    def _dispatch(self, entry: _Inflight, slot: Slot, now: float) -> None:
        """Hand one inflight entry to a slot."""
        entry.worker_id = slot.sid
        entry.attempts += 1
        entry.deadline = now + self.config.request_timeout_s
        self._inflight[entry.seq] = entry
        self._held[slot.sid].add(entry.seq)
        self._links[slot.sid].send(("req", entry.seq, entry.payload))
        if entry.deadline < self._due:
            self._arm(now, entry.deadline)

    # -- chaos hooks -------------------------------------------------------

    def kill_worker(self, worker_id: Optional[int] = None) -> Optional[int]:
        """Make one live worker SIGKILL itself (fault injection); its id.

        It dies when it reads the message, and its unanswered requests are
        re-dispatched like any crash's.  It reads DYING until its respawn
        is ready: no request is routed to it.
        """
        return self._inject(("die",), worker_id, DYING)

    def hang_worker(self, seconds_s: float, worker_id: Optional[int] = None) -> Optional[int]:
        """Make one live worker sleep (fault injection); returns its id."""
        return self._inject(("hang", float(seconds_s)), worker_id, LIVE)

    def _inject(self, message: tuple, worker_id: Optional[int], state: str) -> Optional[int]:
        """Send a chaos message to one live worker, set its state; its id."""
        live = [slot for slot in self._slots if slot.state == LIVE]
        if not live:
            return None
        if worker_id is not None:
            live = [slot for slot in live if slot.sid == worker_id] or live
        target = live[next(self._route) % len(live)]
        self._links[target.sid].send(message)
        target.state = state
        return target.sid

    # -- routing on events -------------------------------------------------

    def _on_message(self, message: tuple, now: float) -> None:
        kind = message[0]
        if kind == "ready":
            slot = self._slots[message[1]]
            if slot.state == STARTING:
                slot.state = LIVE
            self._unpark(now)
        elif kind == "fatal":
            self._fatal = str(message[2])
            self._slots[message[1]].state = FAILED
        elif kind == "bye":
            self._final_stats[message[1]] = message[2]
            self._slots[message[1]].state = STOPPED
        else:  # "ok" or "err"
            _, seq, _, body = message
            entry = self._inflight.pop(seq, None)
            if entry is None:
                return  # duplicate answer after a retry: first wins
            self._held[entry.worker_id].discard(seq)
            if kind == "ok":
                self.stats.served += 1
            else:
                self.stats.rejected += 1
                body = {"id": entry.payload.get("id"), "error": str(body)}
            _resolve(entry, body)
            if self._parked:  # the answer freed a place
                self._unpark(now)

    def _orphan(self, slot: Slot, cause: str, now: float) -> None:
        """Re-dispatch a dead worker's requests to the survivors."""
        held = self._held[slot.sid]
        orphans = [self._inflight.pop(seq) for seq in sorted(held) if seq in self._inflight]
        held.clear()
        for entry in orphans:
            self._redispatch(entry, slot.sid, cause, now)

    def _check_deadlines(self, now: float) -> None:
        for entry in [entry for entry in self._inflight.values() if now >= entry.deadline]:
            del self._inflight[entry.seq]
            self._held[entry.worker_id].discard(entry.seq)
            if entry.retried_on_timeout:
                self.stats.deadline_misses += 1
                _resolve(entry, {"id": entry.payload.get("id"), "error": "deadline"})
            else:
                entry.retried_on_timeout = True
                self._redispatch(entry, entry.worker_id, "timeout", now)

    def _redispatch(self, entry: _Inflight, exclude: int, cause: str, now: float) -> None:
        """Give an orphaned/timed-out request to a different worker."""
        slot = self._pick_slot(exclude=exclude)
        if slot is not None:
            self.stats.retried += 1
            self._dispatch(entry, slot, now)
        elif any(slot_.state in (STARTING, DYING, RESTARTING) for slot_ in self._slots):
            self._parked.append(entry)
        else:
            self._fail(entry, cause)

    def _fail(self, entry: _Inflight, cause: str) -> None:
        self.stats.failed += 1
        _resolve(entry, {"id": entry.payload.get("id"), "error": f"no worker available ({cause})"})

    def _unpark(self, now: float) -> None:
        """Move the parked list onto whatever workers are live now; fail
        it once no worker can ever come back."""
        parked, self._parked = self._parked, []
        exhausted = all(slot.state == FAILED for slot in self._slots)
        for entry in parked:
            slot = self._pick_slot(exclude=None)
            if slot is not None:
                if entry.attempts > 0:
                    self.stats.retried += 1
                self._dispatch(entry, slot, now)
            elif exhausted:
                self._fail(entry, "exhausted")
            else:
                self._parked.append(entry)

    # -- drain -------------------------------------------------------------

    def pending(self) -> int:
        """Requests accepted but not yet resolved."""
        return len(self._inflight) + len(self._parked)

    async def drain(self, timeout_s: float = 30.0) -> bool:
        """Stop accepting, finish in-flight work, stop the workers.

        Returns ``True`` when every accepted request resolved before the
        timeout, as soon as the last one does.  Each worker is then told
        to stop, and any not gone when the time is up is killed.  The
        pool is unusable afterwards.
        """
        self._accepting = False
        deadline = self._loop.time() + timeout_s
        clean = await self._until(lambda: not self.pending(), timeout_s)
        self._pool.stop()
        for slot in self._slots:
            if slot.state in (STARTING, LIVE):
                self._links[slot.sid].send(("stop",))
        await self._until(
            lambda: not any(slot.alive() for slot in self._slots),
            max(2.0, deadline - self._loop.time()),
        )
        self._pool.close(0.0)
        self._arm(0.0, math.inf)
        for slot, link in zip(self._slots, self._links):
            if slot.process is not None:
                self._loop.remove_reader(slot.process.sentinel)
            if link is not None:
                link.close()
        leftovers = [*self._inflight.values(), *self._parked]
        self._inflight, self._parked = {}, []
        for entry in leftovers:
            _resolve(entry, {"id": entry.payload.get("id"), "error": "draining"})
        return clean and not leftovers

    def worker_service_stats(self) -> Dict[int, Dict[str, Any]]:
        """Per-worker ServiceStats reported at clean worker exit."""
        return {wid: dict(stats) for wid, stats in self._final_stats.items()}

    def per_worker_stats(self) -> Dict[int, Dict[str, Any]]:
        """Per worker: state, requests held (``queue_depth``, at most
        ``max_queue``), performed respawns and sheds — the load signals a
        worker-autoscaler needs."""
        return {
            slot.sid: {
                "state": slot.state,
                "queue_depth": len(self._held[slot.sid]),
                "restarts": slot.restarts,
                "shed": self._shed[slot.sid],
            }
            for slot in self._slots
        }

    def stats_dict(self) -> Dict[str, Any]:
        """Pool counters plus per-worker states, JSON-ready."""
        return {
            **self.stats.as_dict(),
            "workers": {str(wid): state for wid, state in self.worker_states().items()},
            "per_worker": {str(wid): stats for wid, stats in self.per_worker_stats().items()},
            "pending": self.pending(),
        }


def _resolve(entry: _Inflight, body: Dict[str, Any]) -> None:
    """Answer one accepted request, unless its caller gave up on it."""
    if not entry.future.done():
        entry.future.set_result(body)
