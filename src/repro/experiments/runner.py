"""Cost-aware experiment runner: cached renders, hardened failures.

The paper defines 16+ independent tables/figures; running them serially
dominates the wall-clock of ``repro report`` once the trace itself is
cached.  This runner attacks that cost three times over:

* **Persistent render cache.**  Each experiment's rendered text is a
  deterministic function of (experiment id, synthetic-trace
  configuration, package code), so it is stored in the
  content-addressed artifact cache (:mod:`repro.core.artifacts`) keyed
  by exactly those three things — a repeat report skips not only trace
  generation but the experiments themselves.  The key mixes in
  :func:`repro.core.artifacts.source_digest`, so editing any module
  invalidates cached renders immediately.
* **Process parallelism.**  Every cache miss is one task of the
  :mod:`repro.experiments.graph` (its id is the experiment id), run in
  its own forked child, at most ``--jobs N`` at a time.  A cold trace
  is the graph's context task in a first wave, beside the tasks that
  declare they do not need it (``ext-fleet``); the parent then loads
  the trace before the remaining tasks fork, so each child's
  :func:`get_context` is a cheap in-memory read.
* **Cost-aware scheduling.**  Observed per-task wall-clock persists
  through the artifact cache (:mod:`repro.experiments.costs`); each
  wave starts its longest tasks first (LPT), which shrinks the makespan
  whenever task costs are uneven.  With no persisted costs — or
  ``schedule="registry"`` — dispatch falls back to registry order.

All three layers preserve determinism: results always come back in the
requested order and each task renders in the child exactly the text a
serial run renders, so a ``--jobs 4 --schedule cost`` report is
byte-identical to a ``--jobs 1 --schedule registry`` report, warm or
cold, whatever order the tasks actually finished in.

On top of that sits **graceful degradation**
(:func:`run_experiments_detailed`), per experiment: failures are
caught per task, recorded as :class:`ExperimentFailure` entries, and
sibling experiments keep running:

* a raising task is recorded (library :class:`ReproError`\\ s are
  deterministic, so they are not retried);
* every task child is a slot of :class:`repro.core.supervise.Pool` on
  the ``fork`` context.  Any other exception, a crashed child
  (segfault, OOM-kill, ``os._exit``) and a child past its **per-task
  timeout** (``RunnerOptions.timeout_s``, or ``REPRO_RUNNER_TIMEOUT_S``:
  the slot's liveness deadline) are the slot's crash or hang, and the
  **bounded retry** is its respawn on the core's doubling backoff from
  0.25 s.  A task makes ``1 + respawns`` attempts; siblings never
  notice;
* a failed context task is regenerated inline by the parent; only if
  that fails too does every experiment that needs the trace record
  ``shared trace generation failed``.

The returned :class:`RunReport` carries the successful renders (still
byte-identical to a clean serial run) plus the machine-readable failure
inventory the CLI turns into a report "failed experiments" section and
a partial-failure exit code.  Only successful renders enter the render
cache.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import sys
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import rng as rng_mod
from repro.core.artifacts import artifact_key, default_cache, fingerprint, source_digest
from repro.core.supervise import (
    LIVE,
    RESTARTING,
    STOPPED,
    Pool,
    RestartPolicy,
    Slot,
)
from repro.errors import (
    ExperimentError,
    ExperimentTimeoutError,
    ReproError,
    WorkerCrashError,
)
from repro.experiments.context import DEFAULT_DAYS, get_context
from repro.experiments.costs import CostModel
from repro.experiments.graph import (
    CONTEXT_TASK_ID,
    Task,
    build_graph,
    build_plans,
)

__all__ = [
    "ExperimentFailure",
    "RunReport",
    "RunnerOptions",
    "SCHEDULE_MODES",
    "resolve_ids",
    "run_experiments",
    "run_experiments_detailed",
    "schedule_tasks",
]

#: Environment override for the per-task timeout, seconds.
ENV_TIMEOUT = "REPRO_RUNNER_TIMEOUT_S"
#: Environment override for the transient-failure retry budget.
ENV_RETRIES = "REPRO_RUNNER_RETRIES"
#: Task children fork, so they read the parent's loaded trace and registry.
FORK = multiprocessing.get_context("fork")

#: Valid ``schedule`` arguments: cost-aware LPT or registry order.
SCHEDULE_MODES = ("cost", "registry")


@dataclass(frozen=True)
class RunnerOptions:
    """Failure-handling knobs of the experiment runner."""

    #: Per-task wall-clock budget, seconds (``None`` = unbounded).
    timeout_s: Optional[float] = None
    #: Re-runs granted to a task that crashed, hung or raised a non-library error.
    retries: int = 1

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ExperimentError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.retries < 0:
            raise ExperimentError(f"retries must be non-negative, got {self.retries}")

    def policy(self) -> RestartPolicy:
        """The per-task deadline, retry budget and 0.25 s backoff of every task child."""
        deadline = math.inf if self.timeout_s is None else self.timeout_s
        return RestartPolicy(deadline, self.retries, backoff_s=0.25)

    @staticmethod
    def from_env() -> "RunnerOptions":
        """Options with ``REPRO_RUNNER_TIMEOUT_S``/``_RETRIES`` applied."""
        timeout_raw = os.environ.get(ENV_TIMEOUT, "").strip()
        retries_raw = os.environ.get(ENV_RETRIES, "").strip()
        try:
            timeout = float(timeout_raw) if timeout_raw else None
            retries = int(retries_raw) if retries_raw else 1
        except ValueError as exc:
            raise ExperimentError(f"bad {ENV_TIMEOUT}/{ENV_RETRIES} value: {exc}") from None
        return RunnerOptions(timeout_s=timeout, retries=retries)


@dataclass(frozen=True)
class ExperimentFailure:
    """One experiment's terminal failure, machine-readable."""

    experiment_id: str
    error_type: str
    message: str
    attempts: int

    def describe(self) -> str:
        """One-line human rendering for report failure sections."""
        note = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return f"{self.experiment_id}: {self.error_type}{note}: {self.message}"


@dataclass
class RunReport:
    """Outcome of a (possibly partially failed) experiment batch."""

    #: Successful ``(experiment_id, rendered_text)`` pairs, in request
    #: order; each text is byte-identical to a clean serial run's.
    results: List[Tuple[str, str]] = field(default_factory=list)
    #: Terminal failures, one per failed experiment, in request order.
    failures: List[ExperimentFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render_failures(self) -> str:
        """The report's "failed experiments" section (empty string if none)."""
        if not self.failures:
            return ""
        lines = [f"== FAILED experiments ({len(self.failures)}) =="]
        for failure in self.failures:
            lines.append(f"  {failure.describe()}")
        lines.append("note: all other experiments completed; results above are unaffected")
        return "\n".join(lines)


def resolve_ids(requested: Sequence[str]) -> List[str]:
    """Validate experiment ids, expanding ``"all"`` to the registry order.

    Unknown ids raise with the full list of valid registry ids;
    requesting the same id twice (directly, or via overlapping ``all``)
    is rejected rather than silently rendering it twice.
    """
    from repro.experiments import EXPERIMENTS

    ids: List[str] = []
    for experiment_id in requested:
        if experiment_id == "all":
            ids.extend(EXPERIMENTS)
        elif experiment_id in EXPERIMENTS:
            ids.append(experiment_id)
        else:
            raise ExperimentError(
                f"unknown experiment {experiment_id!r}; available: {list(EXPERIMENTS)}"
            )
    duplicates = [i for i, count in Counter(ids).items() if count > 1]
    if duplicates:
        raise ExperimentError(
            f"duplicate experiment ids requested: {duplicates}; each id may appear once"
        )
    return ids


def schedule_tasks(
    tasks: Sequence[Task],
    costs: Optional[CostModel],
    schedule: str = "cost",
) -> List[Task]:
    """Order one wave of ready tasks for dispatch.

    ``"registry"`` keeps the given (registry/plan insertion) order.
    ``"cost"`` applies longest-processing-time: tasks with *no*
    persisted estimate go first (they are unknowns — starting them
    early both bounds the surprise and observes their cost for next
    time), then known tasks by descending cost; insertion order breaks
    ties, so the schedule is deterministic.  If the model knows none of
    the given tasks, the wave cold-starts in registry order.
    """
    ordered = list(tasks)
    if schedule == "registry" or costs is None:
        return ordered
    if not any(costs.cost_of(task.task_id) is not None for task in ordered):
        return ordered

    def sort_key(pair: Tuple[int, Task]):
        index, task = pair
        cost = costs.cost_of(task.task_id)
        if cost is None:
            return (0, 0.0, index)
        return (1, -cost, index)

    return [task for _, task in sorted(enumerate(ordered), key=sort_key)]


def _synth_config(days: float, seed: int):
    """The synthetic-trace configuration behind ``get_context(days, seed)``."""
    from repro.data.synth import SynthConfig
    from repro.simulation.simulator import SimulationConfig

    return SynthConfig(simulation=SimulationConfig(days=days, seed=seed), seed=seed)


def _trace_is_cold(days: float, seed: int) -> bool:
    """Whether the artifact cache is on but does not hold the trace yet.

    Only then is it worth generating the trace in a forked child: the
    cache carries the result back to the parent.
    """
    cache = default_cache()
    return cache.enabled and not cache.contains(_synth_config(days, seed).artifact_key())


def _render_key(experiment_id: str, days: float, seed: int) -> str:
    """Artifact key of one experiment's rendered text.

    Covers the full synthetic-trace configuration (via the same
    ``SynthConfig`` fingerprint the trace artifact uses) plus the
    package source digest, so a render can never outlive either the
    data or the code that produced it.
    """
    return artifact_key(
        f"experiment-render:{experiment_id}",
        {"config": fingerprint(_synth_config(days, seed)), "source": source_digest()},
    )


def _execute_task(task_id: str, days: float, seed: int) -> Tuple[object, float]:
    """Rebuild one task from its id, run and time it.

    Tasks are rebuilt from ``task_id`` *inside* the child rather than
    pickled across the process boundary: task construction is cheap
    and pure, the registry entry it runs may have been monkeypatched
    with an unpicklable closure, and under the ``fork`` start method
    the child sees exactly the parent's registry state either way.
    """
    from repro.experiments.graph import build_plan, run_context_task

    if task_id == CONTEXT_TASK_ID:
        # The graph's own task belongs to no experiment.
        run = run_context_task
    else:
        run = build_plan(task_id, days=days, seed=seed).execute
    start_s = time.perf_counter()
    value = run(days, seed)
    return value, time.perf_counter() - start_s


def _task_main(task_id: str, days: float, seed: int, conn) -> None:
    """Task child: send ``("ok", value, seconds)`` or ``(kind, error_type,
    message)``.  A library error (``"error"``) is final; any other exception
    (``"retry"``) then exits 1, so the pool reads it as a crash."""
    # The runner drains nothing on SIGTERM: it ends a child with its parent.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        value, seconds = _execute_task(task_id, days, seed)
    except Exception as exc:  # the error must cross the process boundary
        kind = "error" if isinstance(exc, ReproError) else "retry"
        conn.send((kind, type(exc).__name__, str(exc)))
        if kind == "retry":
            sys.exit(1)
        return
    conn.send(("ok", value, seconds))


def _failure(task: Task, error: Tuple[str, str], attempts: int) -> ExperimentFailure:
    """An :class:`ExperimentFailure` record for one task's ``(type, message)``."""
    return ExperimentFailure(task.experiment_id, error[0], error[1], attempts)


def _death_error(task: Task, slot: Slot, policy: RestartPolicy, now: float) -> Tuple[str, str]:
    """Why a child died without sending an error: past its deadline, or crashed."""
    if now - slot.heartbeat.value > policy.liveness_deadline_s:
        return (
            ExperimentTimeoutError.__name__,
            f"task {task.task_id!r} exceeded the {policy.liveness_deadline_s:g} s timeout",
        )
    return (
        WorkerCrashError.__name__,
        f"worker for task {task.task_id!r} died "
        f"(exit code {slot.process.exitcode}) before reporting a result",
    )


def _run_wave_serial(
    wave: Sequence[Task],
    days: float,
    seed: int,
    policy: RestartPolicy,
    values: Dict[str, object],
    task_seconds: Dict[str, float],
    failed: Dict[str, ExperimentFailure],
) -> None:
    """In-process execution with per-task failure capture.

    A library error is final; a task that raised anything else is
    retried in forked children while the retry budget lasts.
    """
    retry: List[Task] = []
    for task in wave:
        try:
            outcome = _execute_task(task.task_id, days, seed)
        except Exception as exc:  # noqa: BLE001 - recorded, never aborts the batch
            if isinstance(exc, ReproError) or policy.max_restarts == 0:
                failed[task.task_id] = _failure(task, (type(exc).__name__, str(exc)), 1)
            else:
                retry.append(task)
            continue
        values[task.task_id], task_seconds[task.task_id] = outcome
    if retry:
        _run_wave_forked(retry, days, seed, 1, policy, values, task_seconds, failed, retrying=True)


def _run_wave_forked(
    wave: Sequence[Task],
    days: float,
    seed: int,
    jobs: int,
    policy: RestartPolicy,
    values: Dict[str, object],
    task_seconds: Dict[str, float],
    failed: Dict[str, ExperimentFailure],
    retrying: bool = False,
) -> None:
    """Run each task of ``wave`` in its own forked :class:`Pool` slot.

    ``wave`` arrives scheduled: slots start in its order, at most ``jobs``
    at a time, and each child reports on its own pipe.  A child that sends
    a result or a library error is done.  One that exits 1 after sending
    any other exception, dies without a word, or runs past the policy's
    deadline is a ``Pool.check`` crash or hang and is respawned on the
    backoff until ``exhausted``, so a task makes ``1 + respawns`` attempts.
    ``retrying`` tasks already failed once in-process: their first child
    waits out the first backoff, like a respawn.
    """
    readers: Dict[int, Any] = {}
    writers: Dict[int, Any] = {}

    def args(slot: Slot) -> tuple:
        readers[slot.sid], writers[slot.sid] = FORK.Pipe(duplex=False)
        task = wave[slot.sid]
        return (task.task_id, days, seed, writers[slot.sid])

    def started(slot: Slot) -> None:
        writers.pop(slot.sid).close()  # the child holds the only writer
        slot.state = LIVE  # judged against the deadline from now on

    def drop(sid: int) -> None:
        reader = readers.pop(sid, None)
        if reader is not None:
            reader.close()

    pool = Pool(len(wave), policy, _task_main, args, ctx=FORK)
    waiting = deque(pool.slots)
    running: Dict[int, Slot] = {}
    # The exception a running child sent before its exit-1 crash.
    sent: Dict[int, Tuple[str, str]] = {}
    try:
        while waiting or running:
            now = time.monotonic()
            while waiting and len(running) < jobs:
                slot = waiting.popleft()
                running[slot.sid] = slot
                if retrying:
                    slot.state, slot.respawn_at = RESTARTING, now + policy.delay(1)
                else:
                    pool.spawn(slot, now)
                    started(slot)
            wakers = list(readers.values()) + [
                slot.process.sentinel
                for slot in running.values()
                if slot.state == LIVE and slot.dead_since is None
            ]
            wait(wakers, pool.wake_after(now, running.values()))
            # Every readable pipe first, so a child that reported and
            # exited is never judged a crash.
            for sid in [sid for sid, reader in readers.items() if reader.poll()]:
                try:
                    kind, *payload = readers[sid].recv()
                except EOFError:  # died without a word: check() reports it
                    drop(sid)
                    continue
                if kind == "retry":
                    sent[sid] = tuple(payload)
                    continue
                drop(sid)
                slot, task = running.pop(sid), wave[sid]
                slot.state = STOPPED
                if kind == "ok":
                    values[task.task_id], task_seconds[task.task_id] = payload
                else:
                    failed[task.task_id] = _failure(task, tuple(payload), 1 + slot.restarts)
            now = time.monotonic()
            for slot, event in pool.check(now):
                if event == "respawned":
                    started(slot)
                    continue
                drop(slot.sid)
                error = sent.pop(slot.sid, None)
                if event == "exhausted":
                    task = wave[slot.sid]
                    error = error or _death_error(task, slot, policy, now)
                    failed[task.task_id] = _failure(task, error, 1 + slot.restarts)
                    del running[slot.sid]
    finally:
        # Children ignore SIGINT: on any way out, kill what still runs.
        pool.close(0.0)
        for conn in [*readers.values(), *writers.values()]:
            conn.close()


def run_experiments_detailed(
    ids: Sequence[str],
    days: float = DEFAULT_DAYS,
    seed: int = rng_mod.DEFAULT_SEED,
    jobs: Optional[int] = None,
    options: Optional[RunnerOptions] = None,
    schedule: str = "cost",
) -> RunReport:
    """Run experiments as scheduled tasks with per-experiment isolation.

    Every requested experiment is attempted; failures are recorded in
    the returned :class:`RunReport` instead of aborting the batch, so a
    report can render every surviving result alongside a failures
    section.  See :class:`RunnerOptions` for the timeout/retry knobs and
    :func:`schedule_tasks` for the ``schedule`` modes.
    """
    n_jobs = 1 if jobs is None else int(jobs)
    if n_jobs < 1:
        raise ExperimentError(f"jobs must be a positive integer, got {jobs!r}")
    if schedule not in SCHEDULE_MODES:
        raise ExperimentError(
            f"schedule must be one of {list(SCHEDULE_MODES)}, got {schedule!r}"
        )
    options = options or RunnerOptions()
    policy = options.policy()
    ids = resolve_ids(ids)

    cache = default_cache()
    rendered: Dict[str, str] = {}
    failures: Dict[str, ExperimentFailure] = {}
    if cache.enabled:
        for experiment_id in ids:
            hit = cache.load(_render_key(experiment_id, days, seed))
            if isinstance(hit, str):
                rendered[experiment_id] = hit
    pending = [i for i in ids if i not in rendered]

    if pending:
        graph = build_graph(build_plans(pending, days=days, seed=seed).values())
        costs = CostModel.load(days)
        values: Dict[str, object] = {}
        task_seconds: Dict[str, float] = {}

        def run_wave(wave: Sequence[Task]) -> None:
            if not wave:
                return
            ordered = schedule_tasks(wave, costs, schedule)
            if n_jobs == 1 and options.timeout_s is None:
                _run_wave_serial(ordered, days, seed, policy, values, task_seconds, failures)
            else:
                # With jobs > 1 even a single task runs in a child, so a
                # crashing task cannot take down the parent; a timeout
                # needs a child to kill.
                _run_wave_forked(
                    ordered, days, seed, n_jobs, policy, values, task_seconds, failures
                )

        # Only if some pending task reads the shared trace: a cold trace
        # on a multi-core run is generated by the graph's context task in
        # a first wave, beside the context-free tasks.  The parent then
        # loads it before the next wave forks, or regenerates it inline
        # (resuming from any sealed chunks).  If even that fails, every
        # experiment that needs it fails for that one reason: recorded,
        # not raised.
        if any(task.deps for task in graph):
            if n_jobs > 1 and _trace_is_cold(days, seed):
                run_wave([task for task in graph if not task.deps])
            failures.pop(CONTEXT_TASK_ID, None)
            try:
                start_s = time.perf_counter()
                get_context(days=days, seed=seed)
                task_seconds.setdefault(CONTEXT_TASK_ID, time.perf_counter() - start_s)
            except Exception as exc:  # noqa: BLE001 - one record per casualty
                error = (type(exc).__name__, f"shared trace generation failed: {exc}")
                for task in graph:
                    if task.deps:
                        failures[task.task_id] = _failure(task, error, attempts=1)
        run_wave(
            [
                task
                for task in graph
                if task.task_id != CONTEXT_TASK_ID
                and task.task_id not in values
                and task.task_id not in failures
            ]
        )

        for task_id, seconds in task_seconds.items():
            costs.observe(task_id, seconds)
        costs.save()

        for experiment_id in pending:
            if experiment_id in values:
                rendered[experiment_id] = str(values[experiment_id])
                cache.store(_render_key(experiment_id, days, seed), rendered[experiment_id])

    return RunReport(
        results=[(i, rendered[i]) for i in ids if i in rendered],
        failures=[failures[i] for i in ids if i in failures],
    )


def run_experiments(
    ids: Sequence[str],
    days: float = DEFAULT_DAYS,
    seed: int = rng_mod.DEFAULT_SEED,
    jobs: Optional[int] = None,
) -> List[Tuple[str, str]]:
    """Run experiments (possibly in parallel) and return rendered results.

    Parameters
    ----------
    ids:
        Experiment ids from the registry; ``"all"`` expands to every
        registered experiment in registry order.
    days, seed:
        Synthetic-trace parameters, as for :func:`get_context`.
    jobs:
        Child processes for cache misses.  ``None``/``1`` runs
        serially in-process; ``N > 1`` runs each task in a forked
        child, at most ``N`` at a time.

    Returns
    -------
    ``[(experiment_id, rendered_text), ...]`` in the order of ``ids``
    (after ``"all"`` expansion) regardless of cache state, schedule or
    completion order, so reports are reproducible under any
    parallelism.

    Every experiment is attempted even when some fail (failures no
    longer abort the batch mid-flight); if any did fail, an
    :class:`ExperimentError` summarizing all of them is raised after
    the rest completed.  Callers that want the partial results should
    use :func:`run_experiments_detailed`.
    """
    report = run_experiments_detailed(ids, days=days, seed=seed, jobs=jobs)
    if report.failures:
        details = "; ".join(f.describe() for f in report.failures)
        raise ExperimentError(
            f"{len(report.failures)} experiment task(s) failed: {details}"
        )
    return report.results
