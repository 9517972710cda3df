"""Shared-nothing shard runner: K processes consuming the partitioned bus.

The execution layer of the ingestion subsystem.  An
:class:`~repro.streaming.partition.IngestPlan` routes every building's
partition to one of K shard processes by stable hash
(:func:`~repro.streaming.partition.shard_of`); each shard owns its
partitions end to end — producers, bus, pipelines, record logs and
snapshots — so no tick ever crosses a process boundary (shared-nothing).

Inside one shard (:func:`shard_main`):

* the producer is one batched
  :class:`~repro.simulation.fleet.FleetSimulator` pass over the shard's
  buildings feeding each building's own
  :class:`~repro.streaming.ingest.LiveSensing` (the fleet chunks are
  bit-identical to the solo simulator's by the fleet parity guarantee);
* ticks pass through the bounded :class:`~repro.streaming.bus.EventBus`
  partition; a full queue *blocks* the producer, which drains the
  partition's consumer inline until the offer lands (backpressure, not
  loss);
* each partition's consumer is a full gate→RLS→drift
  :class:`~repro.streaming.pipeline.OnlinePipeline` appending canonical
  :func:`~repro.streaming.partition.record_line` bytes to the
  partition's log, resealing its snapshot every
  ``snapshot_every_ticks`` and once more on close if ticks arrived
  since (log flushed *before* every seal, so the log is never behind
  the snapshot).  A partition never rewrites a snapshot or a log that
  has not changed.

The supervising parent (:func:`run_ingest`) runs its shards on the
supervision core the serving pool uses too (:mod:`repro.core.supervise`):
monotonic heartbeats with a liveness deadline, crash/hang respawn with
exponential backoff and a bounded restart budget, and shards that ignore
SIGINT/SIGTERM.  The parent owns the signals: a graceful drain has every
shard finish its buffered ticks and reseal every partition snapshot
before exiting.  A respawned shard resumes from its
partitions' snapshots: the pipeline's own ``summary.n_ticks`` *is* the
resume index (exactly one record line per processed tick), so the shard
cuts each log to that many lines (if it holds more), replays the
deterministic producers from the seed, and skips ticks already
processed — exactly-once records without any write-ahead machinery.

Determinism contract: a completed sharded run's per-building record
logs are byte-identical to :func:`run_serial`'s (no bus, no shards, no
snapshots), under any shard count, any interleaving, any crash/respawn
schedule and any graceful-stop/resume split — checked by
:func:`verify_parity` and gated in ``benchmarks/bench_ingest.py``.
"""

from __future__ import annotations

import itertools
import queue as queue_mod
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

from repro.core.supervise import LIVE, SPAWN, STARTING, STOPPED, Pool, RestartPolicy, Slot, die
from repro.errors import ReproError, StreamingError
from repro.streaming.bus import EventBus
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

_NO_CACHE = "sharded ingest needs the artifact cache for partition snapshots (REPRO_CACHE=off)"

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
    would silently desynchronize records from state.  A log that
    already holds exactly ``n_lines`` records is left untouched: a
    rewrite would cost an ext4 data flush for nothing.
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
    data = path.read_bytes()
    lines = [line for line in data.splitlines(keepends=True) if line.endswith(b"\n")]
    if len(lines) < n_lines:
        raise StreamingError(
            f"record log {path} holds {len(lines)} complete records but its "
            f"snapshot expects {n_lines}; refusing to resume"
        )
    kept = b"".join(lines[:n_lines])
    if kept != data:
        path.write_bytes(kept)


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
            # A new file, not an old one truncated in place: ext4 flushes
            # a truncated-then-rewritten file's data when it is closed.
            self.path.unlink(missing_ok=True)
            self.handle = self.path.open("wb")
            # Seal the empty state before the first tick, so a crash at
            # any later point finds a consistent (snapshot, log) pair.
            self.seal()
        else:
            self.pipeline = pipeline
            #: Pipeline tick count at the last seal (or restore).
            self.sealed_ticks = pipeline.summary.n_ticks
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
        self.sealed_ticks = self.pipeline.summary.n_ticks

    def close(self) -> None:
        """Reseal if ticks arrived since the last seal, then close the log."""
        if self.pipeline.summary.n_ticks != self.sealed_ticks:
            self.seal()
        self.handle.close()


def _shard_ticks(
    specs: Tuple[PartitionSpec, ...],
    runs: Dict[str, _PartitionRun],
) -> Iterator[Tuple[str, StreamTick]]:
    """This shard's producer side: ``(topic, tick)`` in arrival order."""
    if not specs:
        return
    from repro.simulation.fleet import FleetSimulator

    fleet = FleetSimulator([spec.building for spec in specs])
    # Every fleet member shares dt, so every source resolves the
    # same chunk size; the fleet pass must use it explicitly (its
    # own default is the whole trace in one chunk).
    chunk_steps = runs[specs[0].topic].source.chunk_steps
    # Round-robin one chunk per cohort per round.  A generated fleet
    # is one cohort, but buildings whose sub-step count, zone grid or
    # diffuser count differ are not, and the flattened fleet iterator
    # is cohort-major: it would stream one whole building before the
    # next.  zip is safe because the shared days/dt give every cohort
    # the same chunk count.  Each building still sees its own chunks in
    # order, so per-building records are untouched.
    iters = [cohort.iter_chunks(chunk_steps) for cohort in fleet.cohorts]
    for chunk_round in zip(*iters):
        for cohort, chunk in zip(fleet.cohorts, chunk_round):
            for j, slot in enumerate(cohort.slots):
                topic = specs[slot].topic
                for tick in runs[topic].sensing.ticks(chunk.building(j)):
                    yield topic, tick


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
      set, the shard has resealed that many partition snapshots; it
      SIGKILLs itself right after this message.

    A supervised shard ignores shutdown signals (the supervision core's
    child bootstrap): the *parent* owns signal policy and coordinates a
    drain through ``stop_event``, so a terminal ^C cannot kill a shard
    mid-snapshot.
    """
    from repro.core.artifacts import default_cache

    if not default_cache().enabled:
        result_queue.put(("fatal", shard_id, _NO_CACHE))
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
                die(result_queue)

        for run in runs.values():
            run.on_seal = halt
    result_queue.put(("ready", shard_id, len(runs)))
    heartbeat.value = time.monotonic()

    bus = EventBus(plan.bus)
    stopped = False
    try:
        for topic, tick in _shard_ticks(specs, runs):
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

    def __post_init__(self) -> None:
        self.policy()  # validates the liveness and restart fields
        if self.kill_shard_after_seals is not None and self.kill_shard_after_seals < 1:
            raise StreamingError("kill_shard_after_seals must be >= 1")

    def policy(self) -> RestartPolicy:
        """The liveness deadline, restart budget and backoff of every shard."""
        return RestartPolicy(self.liveness_deadline_s, self.max_restarts, self.restart_backoff_s)


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
    #: Shard respawns performed.
    restarts: int
    #: Chaos-killed shard id, when the kill hook fired.
    killed_shard: Optional[int]
    #: Final per-shard stats (partition traffic + pipeline tick counts).
    shards: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def ticks_per_s(self) -> float:
        """Sustained throughput over the run's wall clock."""
        return self.ticks / self.elapsed_s if self.elapsed_s > 0 else 0.0


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
        raise StreamingError(_NO_CACHE)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    topics = tuple(spec.topic for spec in plan.partitions())

    result_queue = SPAWN.Queue()
    stop_event = SPAWN.Event()
    # The chaos hook's target: the first shard that owns partitions.
    chaos_target = next((sid for sid, specs in sorted(plan.assignment().items()) if specs), None)

    def shard_args(slot: Slot) -> tuple:
        # A respawn always resumes; only a first incarnation can halt.
        first = slot.restarts == 0
        halt = options.kill_shard_after_seals if first and slot.sid == chaos_target else None
        resume = options.resume or not first
        return (slot.sid, plan, str(out), resume, slot.heartbeat, result_queue, stop_event, halt)

    pool = Pool(plan.n_shards, options.policy(), shard_main, shard_args)
    started = time.monotonic()
    killed_shard: Optional[int] = None
    shards_stats: Dict[int, Dict[str, Any]] = {}
    stop_signalled = False

    with GracefulShutdown() as stop:
        for slot in pool.slots:
            pool.spawn(slot, started)
        while not all(slot.state == STOPPED for slot in pool.slots):
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
                slot = pool.slots[shard_id]
                if kind == "ready":
                    if slot.state == STARTING:
                        slot.state = LIVE
                elif kind == "done":
                    slot.state = STOPPED
                    shards_stats[shard_id] = message[2]
                elif kind == "halted":
                    # Chaos: the shard SIGKILLs itself at its trigger
                    # point; the liveness pass below respawns it.
                    killed_shard = shard_id
                elif kind == "fatal":
                    pool.close(0.0)
                    raise StreamingError(f"ingest shard {shard_id} failed: {message[2]}")
            for slot, event in pool.check(time.monotonic()):
                if event == "exhausted":
                    pool.close(0.0)
                    raise StreamingError(
                        f"ingest shard {slot.sid} exceeded its restart "
                        f"budget ({options.max_restarts})"
                    )

    elapsed = time.monotonic() - started
    pool.close(5.0)
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
        # The loop above only ends once every shard reported done.
        drain_clean=True,
        interrupted=stop_signalled,
        restarts=sum(slot.restarts for slot in pool.slots),
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
