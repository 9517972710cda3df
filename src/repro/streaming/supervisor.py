"""Supervised prediction-worker pool: processes, heartbeats, respawns.

The robustness core of the multi-worker server
(:mod:`repro.streaming.server`).  A :class:`Supervisor` owns N worker
processes that each restore a :class:`~repro.streaming.service.
PredictionService` from one shared, named pipeline snapshot in the
artifact cache, and routes request payloads to them over bounded
per-worker queues.  Everything that can go wrong is handled explicitly:

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
* **Backpressure** — per-worker queues are bounded; when every live
  worker is full, :meth:`Supervisor.submit` raises the typed
  :class:`~repro.errors.ServiceOverloadError` and counts the shed.

Every worker answers from the same frozen model snapshot, so any two
workers produce byte-identical predictions for the same request — that
is what makes crash re-dispatch and timeout retry *safe*: the client
cannot tell which worker answered.
"""

from __future__ import annotations

import itertools
import queue as queue_mod
import threading
import time
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

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
    die,
)
from repro.errors import ReproError, ServiceOverloadError, ServingError, SnapshotError

__all__ = [
    "WorkerPoolConfig",
    "PoolStats",
    "Supervisor",
    "worker_main",
]

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
    #: Worker loop poll period — also the heartbeat refresh cadence.
    poll_interval_s: float = 0.05
    #: Heartbeat older than this marks the worker hung.
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
    request_queue: Any,
    response_queue: Any,
    heartbeat: Any,
    config: WorkerPoolConfig,
) -> None:
    """One worker process: restore the snapshot, answer until told to stop.

    Protocol (over the two queues):

    * in  — ``("req", seq, payload)``, ``("hang", seconds)`` and
      ``("die",)`` (chaos hooks), ``("stop",)``;
    * out — ``("ready", wid)``, ``("ok", seq, wid, payload)``,
      ``("err", seq, wid, message)``, ``("fatal", wid, message)``,
      ``("bye", wid, stats)``.

    The worker is deliberately boring: all retry/respawn intelligence
    lives in the supervisor, so a worker can die at *any* line of this
    function without losing an accepted request.
    """
    # Imports happen here (not at module top) so a spawned worker pays
    # them once, and so the module stays importable without a model.
    from repro.streaming.service import PredictionService, ServiceConfig, build_request
    from repro.streaming.state import load_snapshot

    try:
        pipeline = load_snapshot(snapshot_name, required=True)
    except SnapshotError as exc:
        response_queue.put(("fatal", worker_id, str(exc)))
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
    response_queue.put(("ready", worker_id))

    stopping = False
    while not stopping:
        heartbeat.value = time.monotonic()
        try:
            message = request_queue.get(timeout=config.poll_interval_s)
        except queue_mod.Empty:
            continue
        # Micro-batch: greedily gather whatever else is already queued.
        batch = [message]
        while len(batch) < config.max_batch:
            try:
                batch.append(request_queue.get_nowait())
            except queue_mod.Empty:
                break
        requests: List[tuple] = []
        for item in batch:
            kind = item[0]
            if kind == "die":
                # Chaos: flush what was answered, then SIGKILL; the rest
                # of this batch is re-dispatched by the supervisor.
                die(response_queue)
            elif kind == "stop":
                stopping = True
            elif kind == "hang":
                time.sleep(float(item[1]))  # chaos: stall the heartbeat
            elif kind == "req":
                requests.append(item)
        seqs: List[int] = []
        for _, seq, payload in requests:
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
                response_queue.put(("err", seq, worker_id, str(exc)))
        answered = 0
        while answered < len(seqs):
            responses = service.drain()
            if not responses:
                break
            for response in responses:
                seq = seqs[answered]
                answered += 1
                response_queue.put(("ok", seq, worker_id, response.to_payload()))
    response_queue.put(("bye", worker_id, service.stats.as_dict()))


@dataclass
class _Inflight:
    """One accepted request and where it currently lives."""

    seq: int
    payload: Dict[str, Any]
    future: "Future[Dict[str, Any]]"
    worker_id: int
    #: Dispatch count (1 = first attempt).
    attempts: int
    deadline: float
    #: Whether a deadline-driven retry already happened.
    retried_on_timeout: bool = False


class Supervisor:
    """Owns the worker pool; thread-safe; usable with or without asyncio.

    :meth:`submit` returns a :class:`concurrent.futures.Future` that
    resolves to a JSON-serializable response payload — the asyncio
    front end wraps it with :func:`asyncio.wrap_future`, tests simply
    call ``future.result()``.
    """

    def __init__(self, config: Optional[WorkerPoolConfig] = None) -> None:
        """Create an un-started pool; :meth:`start` boots the workers."""
        self.config = config or WorkerPoolConfig()
        self.stats = PoolStats()
        n = self.config.n_workers
        self._pool = Pool(n, self.config.policy(), worker_main, self._worker_args)
        self._slots = self._pool.slots
        self._response_queue: Optional[Any] = None
        #: Per worker: its current incarnation's request queue, the seqs
        #: dispatched to it, the sheds it contributed to (its queue was
        #: full when a submit was refused) and its final ServiceStats.
        self._queues: List[Any] = [None] * n
        self._held: List[set] = [set() for _ in range(n)]
        self._shed = [0] * n
        self._final_stats: Dict[int, Dict[str, Any]] = {}
        self._inflight: Dict[int, _Inflight] = {}
        #: Requests waiting for *any* worker to come back.
        self._parked: List[_Inflight] = []
        self._lock = threading.Lock()
        self._seqs = itertools.count(1)
        self._route = itertools.count(0)
        self._stop_event = threading.Event()
        self._accepting = False
        self._fatal: Optional[str] = None
        self._collector: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None
        self.pipeline = None  # the supervisor's own restored copy

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Restore the snapshot, spawn the workers, wait until live."""
        from repro.streaming.state import load_snapshot

        # The supervisor restores its own copy first: it validates the
        # snapshot before any worker boots, and it is what the server
        # writes back as the final snapshot on graceful drain.
        self.pipeline = load_snapshot(self.config.snapshot_name, required=True)
        self._response_queue = self._pool.ctx.Queue()
        now = time.monotonic()
        for slot in self._slots:
            self._pool.spawn(slot, now)
        self._accepting = True
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-serve-collector", daemon=True
        )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-serve-monitor", daemon=True
        )
        self._collector.start()
        self._monitor.start()
        deadline = time.monotonic() + self.config.start_timeout_s
        while time.monotonic() < deadline:
            if self._fatal is not None:
                self.shutdown(timeout_s=2.0)
                raise ServingError(f"worker pool failed to start: {self._fatal}")
            with self._lock:
                if all(slot.state == LIVE for slot in self._slots):
                    return
            time.sleep(0.01)
        self.shutdown(timeout_s=2.0)
        raise ServingError(
            f"worker pool did not come up within {self.config.start_timeout_s:g}s"
        )

    def _worker_args(self, slot: Slot) -> tuple:
        """Arguments of one worker incarnation; each gets a fresh queue."""
        queue = self._queues[slot.sid] = self._pool.ctx.Queue()
        config = self.config
        return (slot.sid, config.snapshot_name, queue, self._response_queue, slot.heartbeat, config)

    # -- submission --------------------------------------------------------

    @property
    def n_live(self) -> int:
        """Workers currently accepting requests."""
        with self._lock:
            return sum(1 for slot in self._slots if slot.state == LIVE)

    def worker_states(self) -> Dict[int, str]:
        """Worker id → lifecycle state (for the stats command)."""
        with self._lock:
            return {slot.sid: slot.state for slot in self._slots}

    def submit(self, payload: Dict[str, Any]) -> "Future[Dict[str, Any]]":
        """Accept one request payload; resolves to a response payload.

        Raises :class:`ServiceOverloadError` when every live worker's
        bounded queue is full (the caller sheds), and
        :class:`ServingError` when the pool has no workers left at all.
        """
        if not self._accepting:
            raise ServingError("the worker pool is draining")
        future: "Future[Dict[str, Any]]" = Future()
        with self._lock:
            if all(slot.state == FAILED for slot in self._slots):
                raise ServingError("every worker has permanently failed")
            seq = next(self._seqs)
            entry = _Inflight(
                seq=seq,
                payload=payload,
                future=future,
                worker_id=-1,
                attempts=0,
                deadline=0.0,
            )
            slot = self._pick_slot(exclude=None)
            if slot is None:
                if any(slot_.state in (DYING, RESTARTING) for slot_ in self._slots) and not any(
                    slot_.state == LIVE for slot_ in self._slots
                ):
                    # Nobody live right now but somebody is coming back:
                    # park rather than shed, so a mid-restart burst is
                    # not lost.  Parking is bounded by the pool's total
                    # queue budget.
                    if len(self._parked) < self.config.n_workers * self.config.max_queue:
                        self._parked.append(entry)
                        return future
                self.stats.shed += 1
                for slot_ in self._slots:
                    if slot_.state == LIVE:
                        self._shed[slot_.sid] += 1
                raise ServiceOverloadError(
                    "every live worker's request queue is full"
                )
            self._dispatch(entry, slot)
        return future

    def _pick_slot(self, exclude: Optional[int]) -> Optional[Slot]:
        """Round-robin over live workers with queue headroom (lock held)."""
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

    def _dispatch(self, entry: _Inflight, slot: Slot) -> None:
        """Hand one inflight entry to a slot (lock held)."""
        entry.worker_id = slot.sid
        entry.attempts += 1
        entry.deadline = time.monotonic() + self.config.request_timeout_s
        self._inflight[entry.seq] = entry
        self._held[slot.sid].add(entry.seq)
        self._queues[slot.sid].put(("req", entry.seq, entry.payload))

    # -- chaos hooks -------------------------------------------------------

    def kill_worker(self, worker_id: Optional[int] = None) -> Optional[int]:
        """Make one live worker SIGKILL itself (fault injection); its id.

        The worker dies when it reads the message, after flushing the
        answers it already sent, so it never dies holding the shared
        response queue's write lock; its unanswered requests are
        re-dispatched like any crash's.  From now on it is DYING: no
        request is routed to it, and it reads live again only once its
        respawn is ready.
        """
        return self._inject(("die",), worker_id, DYING)

    def hang_worker(self, seconds_s: float, worker_id: Optional[int] = None) -> Optional[int]:
        """Make one live worker sleep (fault injection); returns its id."""
        return self._inject(("hang", float(seconds_s)), worker_id, LIVE)

    def _inject(self, message: tuple, worker_id: Optional[int], state: str) -> Optional[int]:
        """Queue a chaos message for one live worker, set its state; its id."""
        with self._lock:
            live = [slot for slot in self._slots if slot.state == LIVE]
            if not live:
                return None
            if worker_id is not None:
                live = [slot for slot in live if slot.sid == worker_id] or live
            target = live[next(self._route) % len(live)]
            self._queues[target.sid].put(message)
            target.state = state
        return target.sid

    # -- background threads ------------------------------------------------

    def _collect_loop(self) -> None:
        """Drain worker responses; resolve futures first-answer-wins."""
        while not self._stop_event.is_set():
            try:
                message = self._response_queue.get(timeout=0.05)
            except queue_mod.Empty:
                continue
            self._handle_message(message)
        # Final sweep so late answers still land during shutdown.
        while True:
            try:
                message = self._response_queue.get_nowait()
            except queue_mod.Empty:
                break
            self._handle_message(message)

    def _handle_message(self, message: tuple) -> None:
        kind = message[0]
        if kind == "ready":
            with self._lock:
                slot = self._slots[message[1]]
                if slot.state == STARTING:
                    slot.state = LIVE
                self._unpark_locked()
            return
        if kind == "fatal":
            self._fatal = str(message[2])
            with self._lock:
                self._slots[message[1]].state = FAILED
            return
        if kind == "bye":
            with self._lock:
                self._final_stats[message[1]] = message[2]
                self._slots[message[1]].state = STOPPED
            return
        if kind in ("ok", "err"):
            _, seq, worker_id, body = message
            with self._lock:
                entry = self._inflight.pop(seq, None)
                for held in self._held:
                    held.discard(seq)
                if entry is None:
                    return  # duplicate answer after a retry: first wins
                if kind == "ok":
                    self.stats.served += 1
                else:
                    self.stats.rejected += 1
                    body = {"id": entry.payload.get("id"), "error": str(body)}
            entry.future.set_result(body)

    def _monitor_loop(self) -> None:
        """Liveness, deadlines and respawns, every poll interval."""
        while not self._stop_event.is_set():
            time.sleep(self.config.poll_interval_s)
            now = time.monotonic()
            with self._lock:
                for slot, event in self._pool.check(now):
                    if event == "respawned":
                        self.stats.restarts += 1
                    else:
                        self._orphan_locked(slot, cause=event)
                self._check_deadlines_locked(now)
                self._unpark_locked()

    def _orphan_locked(self, slot: Slot, cause: str) -> None:
        """Re-dispatch a dead worker's requests to the survivors."""
        held = self._held[slot.sid]
        orphans = [self._inflight.pop(seq) for seq in sorted(held) if seq in self._inflight]
        held.clear()
        self._queues[slot.sid].cancel_join_thread()
        for entry in orphans:
            self._redispatch_locked(entry, exclude=slot.sid, cause=cause)

    def _check_deadlines_locked(self, now: float) -> None:
        for seq in list(self._inflight):
            entry = self._inflight[seq]
            if now < entry.deadline:
                continue
            del self._inflight[seq]
            for held in self._held:
                held.discard(seq)
            if entry.retried_on_timeout:
                self.stats.deadline_misses += 1
                entry.future.set_result(
                    {"id": entry.payload.get("id"), "error": "deadline"}
                )
            else:
                entry.retried_on_timeout = True
                self._redispatch_locked(entry, exclude=entry.worker_id, cause="timeout")

    def _redispatch_locked(self, entry: _Inflight, exclude: int, cause: str) -> None:
        """Give an orphaned/timed-out request to a different worker."""
        slot = self._pick_slot(exclude=exclude)
        if slot is None:
            if any(slot_.state in (STARTING, DYING, RESTARTING) for slot_ in self._slots):
                self._parked.append(entry)
                return
            self.stats.failed += 1
            entry.future.set_result(
                {"id": entry.payload.get("id"), "error": f"no worker available ({cause})"}
            )
            return
        self.stats.retried += 1
        self._dispatch(entry, slot)

    def _unpark_locked(self) -> None:
        """Drain the parked list onto whatever workers are live now."""
        still_parked: List[_Inflight] = []
        for entry in self._parked:
            slot = self._pick_slot(exclude=None)
            if slot is None:
                still_parked.append(entry)
            else:
                if entry.attempts > 0:
                    self.stats.retried += 1
                self._dispatch(entry, slot)
        self._parked = still_parked

    # -- drain -------------------------------------------------------------

    def pending(self) -> int:
        """Requests accepted but not yet resolved."""
        with self._lock:
            return len(self._inflight) + len(self._parked)

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Stop accepting, finish in-flight work, stop the workers.

        Returns ``True`` when every accepted request resolved before the
        timeout.  The pool is unusable afterwards.
        """
        self._accepting = False
        deadline = time.monotonic() + timeout_s
        while self.pending() and time.monotonic() < deadline:
            time.sleep(0.02)
        clean = self.pending() == 0
        self.shutdown(timeout_s=max(2.0, deadline - time.monotonic()))
        with self._lock:
            leftovers = list(self._inflight.values()) + self._parked
            self._inflight.clear()
            self._parked = []
        for entry in leftovers:
            clean = False
            if not entry.future.done():
                entry.future.set_result(
                    {"id": entry.payload.get("id"), "error": "draining"}
                )
        return clean

    def shutdown(self, timeout_s: float = 5.0) -> None:
        """Stop workers and background threads (idempotent, no draining)."""
        with self._lock:
            # Under the lock, so no slot respawns after missing its stop.
            self._pool.stop()
            for slot in self._slots:
                if slot.state in (STARTING, LIVE) and self._queues[slot.sid] is not None:
                    self._queues[slot.sid].put(("stop",))
        self._pool.close(timeout_s)
        self._stop_event.set()
        for thread in (self._collector, self._monitor):
            if thread is not None and thread.is_alive():
                thread.join(timeout=2.0)
        self._collector = None
        self._monitor = None

    def worker_service_stats(self) -> Dict[int, Dict[str, Any]]:
        """Per-worker ServiceStats reported at clean worker exit."""
        with self._lock:
            return {wid: dict(stats) for wid, stats in self._final_stats.items()}

    def per_worker_stats(self) -> Dict[int, Dict[str, Any]]:
        """Per-worker operational signals: state, queue depth, failures.

        ``queue_depth`` is the worker's current in-flight count against
        its bounded queue; ``restarts``/``shed`` are that slot's own
        performed respawns and saturation counters.  Together these are
        the per-worker load signals a worker-autoscaler needs.
        """
        with self._lock:
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
        payload: Dict[str, Any] = dict(self.stats.as_dict())
        payload["workers"] = {
            str(wid): state for wid, state in self.worker_states().items()
        }
        payload["per_worker"] = {
            str(wid): stats for wid, stats in self.per_worker_stats().items()
        }
        payload["pending"] = self.pending()
        return payload
