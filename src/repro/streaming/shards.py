"""Shared-nothing shard runner: K processes consuming the partitioned bus.

The execution layer of the ingestion subsystem.  An
:class:`~repro.streaming.partition.IngestPlan` routes every building's
partition to one of K shard processes by stable hash
(:func:`~repro.streaming.partition.shard_of`); each shard owns its
partitions end to end — producers, bus, pipelines, record logs and
snapshots — so no tick ever crosses a process boundary (shared-nothing).

Inside one shard (:func:`shard_main`):

* the producers are either one batched
  :class:`~repro.simulation.fleet.FleetSimulator` pass over the shard's
  buildings feeding each building's own
  :class:`~repro.streaming.ingest.LiveSensing` (the default — the fleet
  chunks are bit-identical to the solo simulator's by the fleet parity
  guarantee), or per-building solo sources merged by the seeded
  :func:`~repro.streaming.bus.interleave`;
* ticks pass through the bounded :class:`~repro.streaming.bus.EventBus`
  partition; a full queue *blocks* the producer, which drains the
  partition's consumer inline until the offer lands (backpressure, not
  loss);
* each partition's consumer is a full gate→RLS→drift
  :class:`~repro.streaming.pipeline.OnlinePipeline` appending canonical
  :func:`~repro.streaming.partition.record_line` bytes to the
  partition's log, resealing its snapshot every
  ``snapshot_every_ticks`` (log flushed *before* every seal, so the log
  is never behind the snapshot).

The supervising parent (:func:`run_ingest`) reuses the serving pool's
robustness idioms (:mod:`repro.streaming.supervisor`): monotonic
heartbeats with a liveness deadline, crash/hang respawn with exponential
backoff and a bounded restart budget, and a graceful SIGINT/SIGTERM
drain that has every shard finish its buffered ticks and reseal every
partition snapshot before exiting.  A respawned shard resumes from its
partitions' snapshots: the pipeline's own ``summary.n_ticks`` *is* the
resume index (exactly one record line per processed tick), so the shard
truncates each log to that many lines, replays the deterministic
producers from the seed, and skips ticks already processed —
exactly-once records without any write-ahead machinery.

Determinism contract: a completed sharded run's per-building record
logs are byte-identical to :func:`run_serial`'s (no bus, no shards, no
snapshots), under any shard count, any interleaving, any crash/respawn
schedule and any graceful-stop/resume split — checked by
:func:`verify_parity` and gated in ``benchmarks/bench_ingest.py``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue as queue_mod
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

from repro import rng as rng_mod
from repro.errors import ReproError, StreamingError
from repro.streaming.bus import EventBus, interleave
from repro.streaming.ingest import StreamTick
from repro.streaming.partition import (
    IngestPlan,
    PartitionSpec,
    record_line,
    run_partition_serial,
)
from repro.streaming.shutdown import GracefulShutdown

__all__ = [
    "ShardRunnerOptions",
    "IngestReport",
    "shard_main",
    "run_ingest",
    "run_serial",
    "verify_parity",
]

#: Shard lifecycle states (parent-side bookkeeping).
STARTING = "starting"
LIVE = "live"
RESTARTING = "restarting"
DONE = "done"


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _truncate_records(path: Path, n_lines: int) -> None:
    """Cut a partition log to exactly ``n_lines`` complete records.

    A crash can leave the log ahead of the snapshot (ticks processed
    after the last seal) or end it mid-line (killed mid-write); both are
    repaired here.  The log can never be *behind* the snapshot — every
    seal flushes the log first — so fewer complete lines than the
    snapshot expects means the log was tampered with, and resuming
    would silently desynchronize records from state.
    """
    if not path.exists():
        if n_lines:
            raise StreamingError(
                f"record log {path} is missing but its snapshot holds "
                f"{n_lines} ticks; refusing to resume"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"")
        return
    lines = [
        line for line in path.read_bytes().splitlines(keepends=True)
        if line.endswith(b"\n")
    ]
    if len(lines) < n_lines:
        raise StreamingError(
            f"record log {path} holds {len(lines)} complete records but its "
            f"snapshot expects {n_lines}; refusing to resume"
        )
    path.write_bytes(b"".join(lines[:n_lines]))


class _PartitionRun:
    """Worker-side state of one partition: pipeline, log and snapshot."""

    #: Called after every periodic seal; only the chaos hook sets it.
    on_seal: Optional[Callable[[], None]] = None

    def __init__(
        self, spec: PartitionSpec, namespace: str, out_dir: Path, resume: bool
    ) -> None:
        from repro.streaming.state import load_snapshot

        self.spec = spec
        self.snapshot_name = spec.snapshot_name(namespace)
        self.path = Path(out_dir) / spec.records_name
        self.source = spec.source()
        self.sensing = self.source.sensing()
        pipeline = load_snapshot(self.snapshot_name) if resume else None
        if pipeline is not None and tuple(pipeline.sensor_ids) != tuple(
            self.source.sensor_ids
        ):
            pipeline = None  # foreign layout: never resume across deployments
        if pipeline is None:
            self.pipeline = spec.pipeline(self.source)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.handle = self.path.open("wb")
            # Seal the empty state before the first tick, so a crash at
            # any later point finds a consistent (snapshot, log) pair.
            self.seal()
        else:
            self.pipeline = pipeline
            _truncate_records(self.path, pipeline.summary.n_ticks)
            self.handle = self.path.open("ab")
        #: Source ticks already processed by an earlier incarnation.
        self.skip = self.pipeline.summary.n_ticks

    def process(self, tick: StreamTick, seal_every: int) -> None:
        """Run one consumed tick through the pipeline, log its record."""
        self.handle.write(record_line(self.pipeline.process(tick)))
        if self.pipeline.summary.n_ticks % seal_every == 0:
            self.seal()
            if self.on_seal is not None:
                self.on_seal()

    def seal(self) -> None:
        """Flush the log, then reseal the snapshot (in that order)."""
        from repro.streaming.state import save_snapshot

        self.handle.flush()
        if save_snapshot(self.snapshot_name, self.pipeline) is None:
            raise StreamingError(
                f"cannot seal partition snapshot {self.snapshot_name!r}: "
                "the artifact cache is disabled (REPRO_CACHE=off)"
            )

    def close(self) -> None:
        self.seal()
        self.handle.close()


def _shard_ticks(
    plan: IngestPlan,
    shard_id: int,
    specs: Tuple[PartitionSpec, ...],
    runs: Dict[str, _PartitionRun],
) -> Iterator[Tuple[str, StreamTick]]:
    """This shard's producer side: ``(topic, tick)`` in arrival order."""
    if not specs:
        return
    if plan.batched:
        from repro.simulation.fleet import FleetSimulator

        fleet = FleetSimulator([spec.building for spec in specs])
        # Every fleet member shares dt, so every source resolves the
        # same chunk size; the fleet pass must use it explicitly (its
        # own default is the whole trace in one chunk).
        chunk_steps = runs[specs[0].topic].source.chunk_steps
        # Round-robin one chunk per cohort per round.  The flattened
        # fleet iterator is cohort-major, which would stream one whole
        # building before the next whenever geometries differ; zip is
        # safe because the shared days/dt give every cohort the same
        # chunk count.  Each building still sees its own chunks in
        # order, so per-building records are untouched.
        iters = [cohort.iter_chunks(chunk_steps) for cohort in fleet.cohorts]
        for chunk_round in zip(*iters):
            for cohort, chunk in zip(fleet.cohorts, chunk_round):
                for j, slot in enumerate(cohort.slots):
                    topic = specs[slot].topic
                    for tick in runs[topic].sensing.ticks(chunk.building(j)):
                        yield topic, tick
    else:
        streams = {spec.topic: iter(runs[spec.topic].source) for spec in specs}
        seed = rng_mod.spawn_seeds(plan.seed, "shard-interleave", shard_id + 1)[
            shard_id
        ]
        yield from interleave(streams, seed=seed)


def shard_main(
    shard_id: int,
    plan: IngestPlan,
    out_dir: str,
    resume: bool,
    heartbeat: Any,
    result_queue: Any,
    stop_event: Any,
    halt_after_seals: Optional[int] = None,
) -> None:
    """One shard process: produce, buffer, consume, snapshot, report.

    Protocol (over ``result_queue``):

    * ``("ready", shard_id, n_partitions)`` — partitions restored/fresh,
      about to stream;
    * ``("done", shard_id, stats)`` — every partition drained and
      resealed; ``stats["completed"]`` says whether the sources were
      exhausted (False after a graceful stop);
    * ``("fatal", shard_id, message)`` — unrecoverable setup/run error;
    * ``("halted", shard_id)`` — chaos hook: with ``halt_after_seals``
      set, the shard has resealed that many partition snapshots and now
      waits for the parent's SIGKILL (or a stop).

    Shutdown signals are ignored here: the *parent* owns signal policy
    and coordinates a drain through ``stop_event``, so a terminal ^C
    cannot kill a shard mid-snapshot.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    from repro.core.artifacts import default_cache

    if not default_cache().enabled:
        result_queue.put(
            (
                "fatal",
                shard_id,
                "the artifact cache is disabled (REPRO_CACHE=off); "
                "sharded ingest needs it for partition snapshots",
            )
        )
        return
    try:
        specs = plan.assignment().get(shard_id, ())
        namespace = plan.namespace()
        runs: Dict[str, _PartitionRun] = {}
        for spec in specs:
            heartbeat.value = time.monotonic()
            runs[spec.topic] = _PartitionRun(spec, namespace, Path(out_dir), resume)
    except ReproError as exc:
        result_queue.put(("fatal", shard_id, str(exc)))
        return
    if halt_after_seals is not None:
        seals = itertools.count(1)

        def halt() -> None:
            if next(seals) == halt_after_seals:
                result_queue.put(("halted", shard_id))
                stop_event.wait()

        for run in runs.values():
            run.on_seal = halt
    result_queue.put(("ready", shard_id, len(runs)))
    heartbeat.value = time.monotonic()

    bus = EventBus(plan.bus)
    stopped = False
    try:
        for topic, tick in _shard_ticks(plan, shard_id, specs, runs):
            heartbeat.value = time.monotonic()
            if stop_event.is_set():
                stopped = True
                break
            run = runs[topic]
            if tick.index < run.skip:
                continue  # replayed prefix of a resumed partition
            partition = bus.partition(topic)
            while not partition.offer(tick):
                # Backpressure: a refused offer means the queue is full,
                # so draining one tick always makes room — the inline
                # producer/consumer pair cannot deadlock.
                run.process(partition.poll(), plan.snapshot_every_ticks)
        # Drain whatever the bus still buffers (all of it on a graceful
        # stop), then reseal every partition.
        for topic, run in runs.items():
            partition = bus.partition(topic)
            while True:
                queued = partition.poll()
                if queued is None:
                    break
                run.process(queued, plan.snapshot_every_ticks)
                heartbeat.value = time.monotonic()
        for run in runs.values():
            run.close()
    except ReproError as exc:
        result_queue.put(("fatal", shard_id, str(exc)))
        return
    stats = {
        "completed": not stopped,
        "partitions": {
            topic: {
                "n_ticks": runs[topic].pipeline.summary.n_ticks,
                **bus.partition(topic).stats.as_dict(),
            }
            for topic in sorted(runs)
        },
    }
    result_queue.put(("done", shard_id, stats))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardRunnerOptions:
    """Supervision policy of one :func:`run_ingest` call."""

    #: Resume partitions from pre-existing snapshots (a respawn always
    #: resumes regardless of this flag — it only governs the first boot).
    resume: bool = False
    #: Chaos hook: SIGKILL the first shard that owns partitions once it
    #: has resealed this many partition snapshots (progress, not time).
    kill_shard_after_seals: Optional[int] = None
    #: Heartbeat older than this marks a shard hung (killed + respawned).
    liveness_deadline_s: float = 30.0
    #: Respawn attempts per shard before the run is declared failed.
    max_restarts: int = 3
    #: First respawn delay; doubles per consecutive restart.
    restart_backoff_s: float = 0.5
    #: ``multiprocessing`` start method (spawn is fork-safe everywhere).
    start_method: str = "spawn"

    def __post_init__(self) -> None:
        if self.liveness_deadline_s <= 0:
            raise StreamingError("liveness_deadline_s must be positive")
        if self.max_restarts < 0:
            raise StreamingError("max_restarts must be non-negative")
        if self.restart_backoff_s <= 0:
            raise StreamingError("restart_backoff_s must be positive")
        if self.kill_shard_after_seals is not None and self.kill_shard_after_seals < 1:
            raise StreamingError("kill_shard_after_seals must be >= 1")


@dataclass
class IngestReport:
    """Outcome of one sharded ingest run."""

    n_shards: int
    topics: Tuple[str, ...]
    #: Ticks processed across all partitions (cumulative over respawns).
    ticks: int
    elapsed_s: float
    #: Whether every shard exhausted its sources (False after a drain).
    completed: bool
    #: Whether a requested stop ended with every shard resealed.
    drain_clean: bool
    #: Whether a stop was requested at all.
    interrupted: bool
    restarts: int
    #: Chaos-killed shard id, when the kill hook fired.
    killed_shard: Optional[int]
    #: Final per-shard stats (partition traffic + pipeline tick counts).
    shards: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def ticks_per_s(self) -> float:
        """Sustained throughput over the run's wall clock."""
        return self.ticks / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form for the CLI and the benchmark."""
        return {
            "n_shards": self.n_shards,
            "topics": list(self.topics),
            "ticks": self.ticks,
            "elapsed_s": self.elapsed_s,
            "ticks_per_s": self.ticks_per_s,
            "completed": self.completed,
            "drain_clean": self.drain_clean,
            "interrupted": self.interrupted,
            "restarts": self.restarts,
            "killed_shard": self.killed_shard,
            "shards": {str(sid): stats for sid, stats in sorted(self.shards.items())},
        }


class _ShardSlot:
    """Parent-side bookkeeping for one shard slot."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.state = STARTING
        self.process: Optional[Any] = None
        self.heartbeat: Optional[Any] = None
        self.restarts = 0
        self.respawn_at: Optional[float] = None
        self.dead_since: Optional[float] = None
        self.stats: Optional[Dict[str, Any]] = None

    @property
    def done(self) -> bool:
        return self.state == DONE

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


def run_ingest(
    plan: IngestPlan,
    out_dir: Union[str, Path],
    options: Optional[ShardRunnerOptions] = None,
) -> IngestReport:
    """Run ``plan`` under supervised shard processes; returns the report.

    Raises :class:`~repro.errors.StreamingError` when a shard reports a
    fatal error or exhausts its restart budget.  SIGINT/SIGTERM trigger
    a graceful drain: every shard finishes its buffered ticks, reseals
    every partition snapshot, and the report comes back with
    ``interrupted=True`` — a later call with ``resume=True`` continues
    from exactly that state.
    """
    options = options or ShardRunnerOptions()
    from repro.core.artifacts import default_cache

    if not default_cache().enabled:
        raise StreamingError(
            "sharded ingest needs the artifact cache for partition snapshots "
            "(REPRO_CACHE=off)"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    topics = tuple(spec.topic for spec in plan.partitions())

    ctx = multiprocessing.get_context(options.start_method)
    result_queue = ctx.Queue()
    stop_event = ctx.Event()
    slots = {shard_id: _ShardSlot(shard_id) for shard_id in range(plan.n_shards)}
    chaos_target = None
    if options.kill_shard_after_seals is not None:
        chaos_target = next(
            (sid for sid, specs in sorted(plan.assignment().items()) if specs), None
        )

    def spawn(slot: _ShardSlot, resume: bool, halt_after_seals: Optional[int] = None) -> None:
        slot.heartbeat = ctx.Value("d", time.monotonic())
        slot.dead_since = None
        slot.respawn_at = None
        slot.state = STARTING
        slot.process = ctx.Process(
            target=shard_main,
            args=(
                slot.shard_id,
                plan,
                str(out),
                resume,
                slot.heartbeat,
                result_queue,
                stop_event,
                halt_after_seals,
            ),
            name=f"repro-ingest-shard-{slot.shard_id}",
            daemon=True,
        )
        slot.process.start()

    def kill_all() -> None:
        for slot in slots.values():
            if slot.alive():
                slot.process.kill()
                slot.process.join(timeout=2.0)

    started = time.monotonic()
    killed_shard: Optional[int] = None
    restarts_total = 0
    stop_signalled = False

    with GracefulShutdown() as stop:
        for slot in slots.values():
            halt = options.kill_shard_after_seals if slot.shard_id == chaos_target else None
            spawn(slot, options.resume, halt)
        while not all(slot.done for slot in slots.values()):
            if stop.triggered and not stop_signalled:
                stop_event.set()
                stop_signalled = True
            # Drain every pending worker message before judging liveness,
            # so a shard that finished a moment ago is not read as a crash.
            while True:
                try:
                    message = result_queue.get(timeout=0.05)
                except queue_mod.Empty:
                    break
                kind, shard_id = message[0], message[1]
                slot = slots[shard_id]
                if kind == "ready":
                    if slot.state == STARTING:
                        slot.state = LIVE
                elif kind == "done":
                    slot.state = DONE
                    slot.stats = message[2]
                elif kind == "halted":
                    # Chaos: the shard stopped at its trigger point.
                    slot.process.kill()
                    killed_shard = shard_id
                elif kind == "fatal":
                    kill_all()
                    raise StreamingError(
                        f"ingest shard {shard_id} failed: {message[2]}"
                    )
            now = time.monotonic()
            for slot in slots.values():
                if slot.done:
                    continue
                if slot.respawn_at is not None:
                    if now >= slot.respawn_at:
                        restarts_total += 1
                        spawn(slot, resume=True)
                    continue
                hung = (
                    slot.state == LIVE
                    and slot.heartbeat is not None
                    and now - slot.heartbeat.value > options.liveness_deadline_s
                )
                if slot.alive() and not hung:
                    slot.dead_since = None
                    continue
                if hung and slot.alive():
                    slot.process.kill()
                elif not hung:
                    # A dead process may still have its "done" in flight
                    # through the queue's feeder pipe: grant a short
                    # grace before treating the exit as a crash.
                    if slot.dead_since is None:
                        slot.dead_since = now
                        continue
                    if now - slot.dead_since < 1.0:
                        continue
                if slot.restarts >= options.max_restarts:
                    kill_all()
                    raise StreamingError(
                        f"ingest shard {slot.shard_id} exceeded its restart "
                        f"budget ({options.max_restarts})"
                    )
                slot.restarts += 1
                slot.state = RESTARTING
                slot.dead_since = None
                slot.respawn_at = now + options.restart_backoff_s * (
                    2 ** (slot.restarts - 1)
                )

    elapsed = time.monotonic() - started
    for slot in slots.values():
        if slot.process is not None:
            slot.process.join(timeout=5.0)
    shards_stats = {
        slot.shard_id: slot.stats for slot in slots.values() if slot.stats is not None
    }
    completed = all(stats.get("completed") for stats in shards_stats.values())
    ticks = sum(
        partition["n_ticks"]
        for stats in shards_stats.values()
        for partition in stats.get("partitions", {}).values()
    )
    return IngestReport(
        n_shards=plan.n_shards,
        topics=topics,
        ticks=ticks,
        elapsed_s=elapsed,
        completed=completed,
        drain_clean=not stop_signalled or all(s.done for s in slots.values()),
        interrupted=stop_signalled,
        restarts=restarts_total,
        killed_shard=killed_shard,
        shards=shards_stats,
    )


# ---------------------------------------------------------------------------
# Serial reference + parity
# ---------------------------------------------------------------------------


def run_serial(plan: IngestPlan, out_dir: Union[str, Path]) -> Dict[str, int]:
    """Run every partition serially (the reference); topic → tick count.

    No bus, no shards, no snapshots — the plain single-pipeline runs the
    sharded record logs are held byte-identical to.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    counts: Dict[str, int] = {}
    for spec in plan.partitions():
        pipeline = run_partition_serial(spec, out / spec.records_name)
        counts[spec.topic] = pipeline.summary.n_ticks
    return counts


def verify_parity(
    sharded_dir: Union[str, Path],
    serial_dir: Union[str, Path],
    topics: Tuple[str, ...],
) -> Tuple[str, ...]:
    """Topics whose sharded and serial record logs differ (empty = parity).

    The comparison is raw bytes — not parsed-then-compared — because the
    contract is *byte* identity of the canonical record lines.
    """
    mismatched = []
    for topic in topics:
        name = f"{topic}.records.jsonl"
        sharded = Path(sharded_dir) / name
        serial = Path(serial_dir) / name
        if (
            not sharded.exists()
            or not serial.exists()
            or sharded.read_bytes() != serial.read_bytes()
        ):
            mismatched.append(topic)
    return tuple(mismatched)
