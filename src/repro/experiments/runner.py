"""Cost-aware task-graph experiment runner: cached renders, hardened failures.

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
* **Task-graph parallelism.**  Cache misses expand into their
  :class:`~repro.experiments.graph.ExperimentPlan` shards — the
  dominant experiments (``table1``, ``robustness``, ``ext-fleet``)
  split into per-cell tasks — and fan out over a
  :class:`concurrent.futures.ProcessPoolExecutor` (``--jobs N`` on the
  CLI) in dependency waves.  A cold trace is the graph's context task
  in the first wave, beside the tasks that declare they do not need it;
  the parent then loads the trace before the next wave forks, so each
  worker's :func:`get_context` is a cheap in-memory read.
* **Cost-aware scheduling.**  Observed per-task wall-clock persists
  through the artifact cache (:mod:`repro.experiments.costs`); each
  wave starts its longest tasks first (LPT), which shrinks the makespan
  whenever task costs are uneven.  With no persisted costs — or
  ``schedule="registry"`` — dispatch falls back to registry order.

All three layers preserve determinism: results always come back in the
requested order and shard results reduce into exactly the text a
monolithic serial run renders, so a ``--jobs 4 --schedule cost`` report
is byte-identical to a ``--jobs 1 --schedule registry`` report, warm or
cold, whatever order the shards actually finished in.

On top of that sits **graceful degradation**
(:func:`run_experiments_detailed`), now per *task*: one failing shard
can no longer abort a whole experiment, let alone the report.
Failures are caught per task, recorded as :class:`ExperimentFailure`
entries, and sibling shards keep running — the experiment's reduce
renders the surviving cells with the failed ones marked, so one
poisoned shard degrades one table cell:

* a raising task is recorded (library :class:`ReproError`\\ s are
  deterministic, so they are not retried);
* an unexpected exception gets a **bounded retry with backoff**,
  re-run in an *isolated* single-shot subprocess;
* a **worker crash** (``BrokenProcessPool`` — segfault, OOM-kill,
  ``os._exit``) downgrades the affected tasks to the same isolated
  serial retry instead of killing the report;
* an optional **per-task timeout** (``RunnerOptions.timeout_s``, or
  ``REPRO_RUNNER_TIMEOUT_S``) bounds each isolated run and watchdogs
  the pool;
* a task whose *dependency* failed is failed immediately (recorded,
  never run) instead of deadlocking the wave loop.

The returned :class:`RunReport` carries the successful renders (still
byte-identical to a clean serial run) plus the machine-readable failure
inventory the CLI turns into a report "failed experiments" section and
a partial-failure exit code.  Degraded renders — an experiment with at
least one failed shard — are returned but *not* stored in the render
cache, so a transient shard failure is never replayed from cache.
"""

from __future__ import annotations

import concurrent.futures
import math
import multiprocessing
import os
import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import rng as rng_mod
from repro.core.artifacts import artifact_key, default_cache, fingerprint, source_digest
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
#: Environment override for the retry backoff base, seconds.
ENV_BACKOFF = "REPRO_RUNNER_BACKOFF_S"

#: Valid ``schedule`` arguments: cost-aware LPT or registry order.
SCHEDULE_MODES = ("cost", "registry")


@dataclass(frozen=True)
class RunnerOptions:
    """Failure-handling knobs of the experiment runner."""

    #: Per-task wall-clock budget, seconds (``None`` = unbounded).
    timeout_s: Optional[float] = None
    #: Isolated re-runs granted to transiently failing tasks.
    retries: int = 1
    #: Base sleep between retry attempts, seconds (linear backoff).
    backoff_s: float = 0.25

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ExperimentError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.retries < 0:
            raise ExperimentError(f"retries must be non-negative, got {self.retries}")
        if self.backoff_s < 0:
            raise ExperimentError(f"backoff_s must be non-negative, got {self.backoff_s}")

    @staticmethod
    def from_env() -> "RunnerOptions":
        """Options with ``REPRO_RUNNER_TIMEOUT_S``/``_RETRIES``/``_BACKOFF_S`` applied."""
        timeout_raw = os.environ.get(ENV_TIMEOUT, "").strip()
        retries_raw = os.environ.get(ENV_RETRIES, "").strip()
        backoff_raw = os.environ.get(ENV_BACKOFF, "").strip()
        try:
            timeout = float(timeout_raw) if timeout_raw else None
            retries = int(retries_raw) if retries_raw else 1
            backoff = float(backoff_raw) if backoff_raw else 0.25
        except ValueError as exc:
            raise ExperimentError(
                f"bad {ENV_TIMEOUT}/{ENV_RETRIES}/{ENV_BACKOFF} value: {exc}"
            ) from None
        return RunnerOptions(timeout_s=timeout, retries=retries, backoff_s=backoff)


@dataclass(frozen=True)
class ExperimentFailure:
    """One task's terminal failure, machine-readable.

    ``task_id`` equals ``experiment_id`` for unsplit experiments, so
    their failure lines render exactly as they did before the task
    refactor; shard failures carry their ``<experiment>/<cell>`` id.
    """

    experiment_id: str
    error_type: str
    message: str
    attempts: int
    task_id: Optional[str] = None

    def describe(self) -> str:
        """One-line human rendering for report failure sections."""
        label = self.task_id or self.experiment_id
        note = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return f"{label}: {self.error_type}{note}: {self.message}"


@dataclass
class RunReport:
    """Outcome of a (possibly partially failed) experiment batch."""

    #: Successful ``(experiment_id, rendered_text)`` pairs, in request
    #: order; each text is byte-identical to a clean serial run's.
    results: List[Tuple[str, str]] = field(default_factory=list)
    #: Terminal failures, in request order (per task for split
    #: experiments — an experiment may appear in ``results`` with a
    #: degraded render *and* here with its failed shards).
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

    Only then is it worth generating the trace in a pool worker: the
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


def _execute_task(
    experiment_id: str, task_id: str, days: float, seed: int
) -> Tuple[object, float]:
    """Worker entry: rebuild one task from its ids, run and time it.

    Tasks are rebuilt from ``(experiment_id, task_id)`` *inside* the
    worker rather than pickled across the process boundary: plan
    construction is cheap and pure, the task's ``fn`` may be a
    registry entry that was monkeypatched with an unpicklable closure,
    and under the ``fork`` start method the child sees exactly the
    parent's registry state either way.
    """
    from repro.experiments.graph import build_plan, run_context_task

    if task_id == CONTEXT_TASK_ID:
        # The graph's own task belongs to no experiment's plan.
        run = run_context_task
    else:
        run = build_plan(experiment_id, days=days, seed=seed).shard(task_id).execute
    start_s = time.perf_counter()
    value = run(days, seed)
    return value, time.perf_counter() - start_s


def _subprocess_task(
    queue, experiment_id: str, task_id: str, days: float, seed: int
) -> None:
    """Isolated-subprocess entry: run one task and ship the outcome back."""
    try:
        value, seconds = _execute_task(experiment_id, task_id, days, seed)
        queue.put(("ok", value, seconds))
    except Exception as exc:  # the error must cross the process boundary
        queue.put(("error", type(exc).__name__, str(exc)))


def _run_isolated(
    experiment_id: str, task_id: str, days: float, seed: int, timeout_s: Optional[float]
) -> Tuple[object, float]:
    """Run one task in a dedicated subprocess; ``(value, seconds)``.

    Crash isolation and timeout enforcement in one place: a dying child
    becomes :class:`WorkerCrashError`, a child that outlives
    ``timeout_s`` is terminated and becomes
    :class:`ExperimentTimeoutError`, and an exception inside the child
    is re-raised here (library errors by their original type, so the
    caller's deterministic/transient classification still works).
    """
    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        mp_context = multiprocessing.get_context()
    queue = mp_context.Queue()
    process = mp_context.Process(
        target=_subprocess_task,
        args=(queue, experiment_id, task_id, days, seed),
        daemon=True,
    )
    process.start()
    process.join(timeout_s)
    if process.is_alive():
        process.terminate()
        process.join(5.0)
        raise ExperimentTimeoutError(
            f"task {task_id!r} exceeded the {timeout_s:g} s timeout"
        )
    try:
        outcome = queue.get(timeout=5.0)
    except Exception:
        raise WorkerCrashError(
            f"worker for task {task_id!r} died "
            f"(exit code {process.exitcode}) before reporting a result"
        ) from None
    if outcome[0] == "ok":
        return outcome[1], outcome[2]
    error_name, message = outcome[1], outcome[2]
    import repro.errors as errors_mod

    error_cls = getattr(errors_mod, error_name, None)
    if isinstance(error_cls, type) and issubclass(error_cls, ReproError):
        raise error_cls(message)
    raise RuntimeError(f"{error_name}: {message}")


def _is_deterministic(exc: BaseException) -> bool:
    """Whether retrying ``exc`` is pointless.

    Library errors (:class:`ReproError`) are deterministic properties of
    the configuration — the same inputs will fail the same way — except
    for the runner's own timeout/crash markers, which may well be
    transient (load spikes, OOM kills) and deserve their retry budget.
    """
    if isinstance(exc, (ExperimentTimeoutError, WorkerCrashError)):
        return False
    return isinstance(exc, ReproError)


def _failure(task: Task, error: BaseException, attempts: int) -> ExperimentFailure:
    """An :class:`ExperimentFailure` record for one task's error."""
    return ExperimentFailure(
        experiment_id=task.experiment_id,
        error_type=type(error).__name__,
        message=str(error),
        attempts=attempts,
        task_id=task.task_id,
    )


def _attempt_retries(
    task: Task,
    days: float,
    seed: int,
    options: RunnerOptions,
    first_error: BaseException,
    attempts_used: int,
) -> Tuple[Optional[Tuple[object, float]], Optional[ExperimentFailure]]:
    """Isolated re-runs after a transient failure; ``(outcome, failure)``."""
    error: BaseException = first_error
    attempts = attempts_used
    while not _is_deterministic(error) and attempts - attempts_used < options.retries:
        if options.backoff_s:
            time.sleep(options.backoff_s * (attempts - attempts_used + 1))
        attempts += 1
        try:
            outcome = _run_isolated(
                task.experiment_id, task.task_id, days, seed, options.timeout_s
            )
            return outcome, None
        except Exception as exc:  # noqa: BLE001 - every failure becomes a record
            error = exc
    return None, _failure(task, error, attempts)


def _record(
    task: Task,
    outcome: Tuple[object, float],
    values: Dict[str, object],
    task_seconds: Dict[str, float],
) -> None:
    """File one task's successful ``(value, seconds)`` outcome."""
    values[task.task_id] = outcome[0]
    task_seconds[task.task_id] = outcome[1]


def _run_wave_serial(
    wave: Sequence[Task],
    days: float,
    seed: int,
    options: RunnerOptions,
    values: Dict[str, object],
    task_seconds: Dict[str, float],
    failed: Dict[str, ExperimentFailure],
) -> None:
    """In-process serial execution with per-task failure capture.

    With a timeout configured, each task runs in an isolated subprocess
    instead (an in-process run cannot be interrupted).
    """
    for task in wave:
        try:
            if options.timeout_s is not None:
                outcome = _run_isolated(
                    task.experiment_id, task.task_id, days, seed, options.timeout_s
                )
            else:
                start_s = time.perf_counter()
                value = task.execute(days, seed)
                outcome = (value, time.perf_counter() - start_s)
            _record(task, outcome, values, task_seconds)
        except Exception as exc:  # noqa: BLE001 - recorded, never aborts the batch
            outcome, failure = _attempt_retries(
                task, days, seed, options, exc, attempts_used=1
            )
            if outcome is not None:
                _record(task, outcome, values, task_seconds)
            elif failure is not None:
                failed[task.task_id] = failure


def _terminate_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Best-effort kill of a pool's workers (used after a watchdog trip)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, ValueError):  # already dead / already closed
            pass


def _run_wave_parallel(
    wave: Sequence[Task],
    days: float,
    seed: int,
    n_jobs: int,
    options: RunnerOptions,
    values: Dict[str, object],
    task_seconds: Dict[str, float],
    failed: Dict[str, ExperimentFailure],
) -> None:
    """Pool fan-out of one wave with per-future capture and downgrades.

    ``wave`` arrives already scheduled; submission order is dispatch
    order, so LPT actually starts the long tasks first.
    """
    n_workers = min(n_jobs, len(wave))
    # The watchdog bounds the whole wave: each worker slot processes at
    # most ceil(wave / workers) tasks back to back.
    watchdog: Optional[float] = None
    if options.timeout_s is not None:
        watchdog = options.timeout_s * math.ceil(len(wave) / n_workers) + 5.0

    by_task = {task.task_id: task for task in wave}
    retry_errors: Dict[str, BaseException] = {}
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=n_workers)
    watchdog_tripped = False
    try:
        futures = {
            pool.submit(
                _execute_task, task.experiment_id, task.task_id, days, seed
            ): task.task_id
            for task in wave
        }
        try:
            for future in concurrent.futures.as_completed(futures, timeout=watchdog):
                task_id = futures[future]
                task = by_task[task_id]
                try:
                    _record(task, future.result(), values, task_seconds)
                except BrokenProcessPool:
                    # The crash poisons every in-flight future; all of
                    # them downgrade to the isolated serial path.
                    retry_errors[task_id] = WorkerCrashError(
                        f"worker pool broke while running {task_id!r}"
                    )
                except ReproError as exc:
                    failed[task_id] = _failure(task, exc, attempts=1)
                except Exception as exc:  # noqa: BLE001 - downgraded to retry
                    retry_errors[task_id] = exc
        except concurrent.futures.TimeoutError:
            watchdog_tripped = True
            for future, task_id in futures.items():
                if future.done() or task_id in values:
                    continue
                task = by_task[task_id]
                if future.cancel():
                    # Never started: give it an isolated serial run.
                    retry_errors[task_id] = WorkerCrashError(
                        f"{task_id!r} was still queued when the pool watchdog fired"
                    )
                else:
                    failed[task_id] = ExperimentFailure(
                        experiment_id=task.experiment_id,
                        error_type=ExperimentTimeoutError.__name__,
                        message=(
                            f"still running when the pool watchdog fired "
                            f"after {watchdog:g} s"
                        ),
                        attempts=1,
                        task_id=task_id,
                    )
            _terminate_pool(pool)
    finally:
        pool.shutdown(wait=not watchdog_tripped, cancel_futures=True)

    # Crash/transient downgrades: isolated serial re-runs, in wave
    # order so the downgrade path stays deterministic.
    for task in wave:
        if task.task_id not in retry_errors:
            continue
        if task.task_id == CONTEXT_TASK_ID:
            # No isolated re-run: the parent regenerates the trace inline.
            failed[task.task_id] = _failure(task, retry_errors[task.task_id], attempts=1)
            continue
        try:
            outcome = _run_isolated(
                task.experiment_id, task.task_id, days, seed, options.timeout_s
            )
            _record(task, outcome, values, task_seconds)
        except Exception as exc:  # noqa: BLE001 - recorded below
            outcome, failure = _attempt_retries(
                task, days, seed, options, exc, attempts_used=2
            )
            if outcome is not None:
                _record(task, outcome, values, task_seconds)
            elif failure is not None:
                failed[task.task_id] = failure


def run_experiments_detailed(
    ids: Sequence[str],
    days: float = DEFAULT_DAYS,
    seed: int = rng_mod.DEFAULT_SEED,
    jobs: Optional[int] = None,
    options: Optional[RunnerOptions] = None,
    schedule: str = "cost",
) -> RunReport:
    """Run experiments as a scheduled task graph with per-task isolation.

    Every requested experiment is attempted; failures are recorded in
    the returned :class:`RunReport` instead of aborting the batch, so a
    report can render every surviving result alongside a failures
    section.  Split experiments degrade per shard: surviving cells
    render, failed cells are marked.  See :class:`RunnerOptions` for
    the timeout/retry knobs and :func:`schedule_tasks` for the
    ``schedule`` modes.
    """
    n_jobs = 1 if jobs is None else int(jobs)
    if n_jobs < 1:
        raise ExperimentError(f"jobs must be a positive integer, got {jobs!r}")
    if schedule not in SCHEDULE_MODES:
        raise ExperimentError(
            f"schedule must be one of {list(SCHEDULE_MODES)}, got {schedule!r}"
        )
    options = options or RunnerOptions()
    ids = resolve_ids(ids)

    cache = default_cache()
    rendered: Dict[str, str] = {}
    failures_by_exp: Dict[str, List[ExperimentFailure]] = {}
    if cache.enabled:
        for experiment_id in ids:
            hit = cache.load(_render_key(experiment_id, days, seed))
            if isinstance(hit, str):
                rendered[experiment_id] = hit
    pending = [i for i in ids if i not in rendered]

    if pending:
        plans = build_plans(pending, days=days, seed=seed)
        graph = build_graph(plans.values())
        costs = CostModel.load(days)

        values: Dict[str, object] = {}
        task_seconds: Dict[str, float] = {}
        task_failures: Dict[str, ExperimentFailure] = {}
        # A cold trace on a multi-core run is generated by the graph's
        # context task in the first pool wave, next to the tasks that do
        # not need it.  Otherwise it is settled up front: the parent
        # warms it inline before any task runs.
        done = set() if n_jobs > 1 and _trace_is_cold(days, seed) else {CONTEXT_TASK_ID}
        context = None

        # Wave execution: each pass dispatches every task whose
        # dependencies are settled.  A task behind a failed dependency
        # is failed in place, so the loop always makes progress.
        while True:
            settled = done | set(task_failures)
            if context is None and CONTEXT_TASK_ID in settled:
                # Load the pooled task's artifact into the parent before
                # the next wave forks, or regenerate inline after it
                # failed (resuming from any sealed chunks).  If even that
                # fails, every pending experiment fails for that one
                # reason — recorded, not raised.
                task_failures.pop(CONTEXT_TASK_ID, None)
                try:
                    start_s = time.perf_counter()
                    context = get_context(days=days, seed=seed)
                    task_seconds.setdefault(CONTEXT_TASK_ID, time.perf_counter() - start_s)
                except Exception as exc:  # noqa: BLE001 - one record per casualty
                    for experiment_id in pending:
                        failures_by_exp[experiment_id] = [
                            ExperimentFailure(
                                experiment_id=experiment_id,
                                error_type=type(exc).__name__,
                                message=f"shared trace generation failed: {exc}",
                                attempts=1,
                                task_id=experiment_id,
                            )
                        ]
                    pending = []
                    break
                done.add(CONTEXT_TASK_ID)
                settled.add(CONTEXT_TASK_ID)
            wave = [
                task
                for task in graph.tasks
                if task.task_id not in settled
                and all(dep in settled for dep in task.deps)
            ]
            if not wave:
                break
            runnable: List[Task] = []
            for task in wave:
                failed_dep = next(
                    (dep for dep in task.deps if dep in task_failures), None
                )
                if failed_dep is not None:
                    task_failures[task.task_id] = ExperimentFailure(
                        experiment_id=task.experiment_id,
                        error_type=ExperimentError.__name__,
                        message=f"dependency task {failed_dep!r} failed",
                        attempts=1,
                        task_id=task.task_id,
                    )
                else:
                    runnable.append(task)
            if runnable:
                ordered = schedule_tasks(runnable, costs, schedule)
                if n_jobs == 1:
                    _run_wave_serial(
                        ordered, days, seed, options, values, task_seconds, task_failures
                    )
                else:
                    # With jobs > 1 even a single task goes through a
                    # worker process, so a crashing task cannot take
                    # down the parent (crash isolation is part of the
                    # jobs > 1 contract).
                    _run_wave_parallel(
                        ordered,
                        days,
                        seed,
                        n_jobs,
                        options,
                        values,
                        task_seconds,
                        task_failures,
                    )
            done.update(tid for tid in values if tid not in done)

        for task_id, seconds in task_seconds.items():
            costs.observe(task_id, seconds)
        costs.save()

        # Reduce phase, in request order.  Each experiment folds its
        # surviving shards into a render; only *clean* renders (no
        # failed shard) enter the render cache — a degraded render is
        # transient state that must not be replayed on the next run.
        for experiment_id in pending:
            plan = plans[experiment_id]
            shard_values = {
                tid: values[tid] for tid in plan.task_ids if tid in values
            }
            exp_failures = [
                task_failures[tid] for tid in plan.task_ids if tid in task_failures
            ]
            if exp_failures:
                failures_by_exp[experiment_id] = exp_failures
            if not shard_values:
                continue
            try:
                text = plan.reduce_fn(context, shard_values).render()
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                failures_by_exp.setdefault(experiment_id, []).append(
                    ExperimentFailure(
                        experiment_id=experiment_id,
                        error_type=type(exc).__name__,
                        message=f"reduce failed: {exc}",
                        attempts=1,
                        task_id=experiment_id,
                    )
                )
                continue
            rendered[experiment_id] = text
            if not exp_failures:
                default_cache().store(_render_key(experiment_id, days, seed), text)

    return RunReport(
        results=[(i, rendered[i]) for i in ids if i in rendered],
        failures=[f for i in ids for f in failures_by_exp.get(i, [])],
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
        Worker processes for cache misses.  ``None``/``1`` runs
        serially in-process; ``N > 1`` fans out over
        ``min(N, ready tasks)`` processes.

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
