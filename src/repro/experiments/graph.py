"""Task-graph decomposition of the experiment layer.

The registry used to be a flat map of opaque ``run()`` callables, so
the runner's only unit of scheduling was a whole experiment — and the
cold ``repro report`` critical path was dominated by a few expensive
monoliths (``table1``'s four identification cells, ``robustness``'s
severity sweep, ``ext-fleet``'s per-building fits) that ``--jobs``
could not split.  This module turns each experiment into an explicit
**plan** of schedulable :class:`Task` units joined by a deterministic
reduce:

* a :class:`Task` is one shard of work — picklable (module-level ``fn``
  plus plain-data ``params``), so it can run in a pool worker or an
  isolated subprocess exactly like a monolithic experiment used to;
* an :class:`ExperimentPlan` bundles an experiment's shard tasks with
  the ``reduce`` that folds their partial results back into the *exact*
  :class:`~repro.experiments.base.ExperimentResult` the monolithic
  ``run()`` produces — byte-identical renders, serial or parallel, any
  shard execution order;
* a :class:`TaskGraph` holds every plan's tasks plus one shared
  **context-warming task** (:data:`CONTEXT_TASK_ID`) that feeds every
  task declaring ``needs_context``, with explicit dependency edges
  (e.g. ``ext-fleet``'s building fits depend on its fleet-trace warm
  task, which itself never reads the context).

Experiment modules opt into sharding by exposing two hooks::

    tasks(days, seed)            -> List[Task]   # deterministic
    reduce_tasks(context, shards) -> ExperimentResult

``shards`` maps ``task_id`` to that shard's return value; a task that
failed is simply **absent**, and the reduce renders a degraded cell in
its place — one poisoned shard costs one experiment cell, not the whole
experiment.  Modules without the hooks get a single-task plan wrapping
their ``run()``, so the scheduler in :mod:`repro.experiments.runner`
sees a uniform graph either way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Tuple

from repro import rng as rng_mod
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.experiments.context import DEFAULT_DAYS, ExperimentContext, get_context

__all__ = [
    "CONTEXT_TASK_ID",
    "ExperimentPlan",
    "Task",
    "TaskGraph",
    "build_graph",
    "build_plan",
    "build_plans",
    "reduce_monolithic",
    "run_context_task",
    "run_monolithic",
]

#: Id of the shared context-warming task every shard depends on.
CONTEXT_TASK_ID = "context"


@dataclass(frozen=True)
class Task:
    """One schedulable unit of experiment work.

    ``fn(days, seed, **dict(params))`` must be a **module-level**
    function returning a picklable partial result: tasks cross process
    boundaries both through the worker pool and through the isolated
    retry subprocess.  ``params`` is a tuple of ``(name, value)`` pairs
    (plain data only) so the task itself stays hashable and picklable.
    """

    #: Globally unique id; shards use ``"<experiment>/<cell>"``.
    task_id: str
    #: The experiment this task belongs to (registry id).
    experiment_id: str
    #: Module-level callable ``fn(days, seed, **params)``.
    fn: Callable[..., Any]
    #: Extra keyword arguments, as hashable ``(name, value)`` pairs.
    params: Tuple[Tuple[str, Any], ...] = ()
    #: Ids of tasks that must complete before this one may start.
    deps: Tuple[str, ...] = ()
    #: Whether ``fn`` reads the shared context; ``build_graph`` makes
    #: only such tasks wait for :data:`CONTEXT_TASK_ID`.
    needs_context: bool = True

    def execute(self, days: float, seed: int) -> Any:
        """Run the shard in-process and return its partial result."""
        return self.fn(days, seed, **dict(self.params))

    def with_deps(self, deps: Tuple[str, ...]) -> "Task":
        """A copy of this task with ``deps`` replaced."""
        return dataclasses.replace(self, deps=deps)


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment's shard tasks plus their deterministic reduce.

    ``reduce_fn(context, shards)`` receives the successful shards only
    (``task_id -> value``) and must return the experiment's
    :class:`ExperimentResult`; with every shard present the render is
    byte-identical to the monolithic ``run()``.
    """

    experiment_id: str
    shards: Tuple[Task, ...]
    reduce_fn: Callable[[ExperimentContext, Mapping[str, Any]], ExperimentResult]

    def __post_init__(self) -> None:
        if not self.shards:
            raise ExperimentError(
                f"experiment {self.experiment_id!r} produced an empty task plan"
            )
        seen: Dict[str, bool] = {}
        for task in self.shards:
            if task.experiment_id != self.experiment_id:
                raise ExperimentError(
                    f"task {task.task_id!r} claims experiment "
                    f"{task.experiment_id!r} inside the {self.experiment_id!r} plan"
                )
            if task.task_id in seen:
                raise ExperimentError(
                    f"experiment {self.experiment_id!r} declares duplicate "
                    f"task id {task.task_id!r}"
                )
            seen[task.task_id] = True

    @property
    def task_ids(self) -> Tuple[str, ...]:
        return tuple(task.task_id for task in self.shards)

    def shard(self, task_id: str) -> Task:
        """The shard with ``task_id`` (raises for unknown ids)."""
        for task in self.shards:
            if task.task_id == task_id:
                return task
        raise ExperimentError(
            f"experiment {self.experiment_id!r} has no task {task_id!r}"
        )


class TaskGraph:
    """Insertion-ordered task collection with explicit dependencies."""

    def __init__(self) -> None:
        self._tasks: Dict[str, Task] = {}

    def add(self, task: Task) -> None:
        if task.task_id in self._tasks:
            raise ExperimentError(f"duplicate task id {task.task_id!r} in graph")
        self._tasks[task.task_id] = task

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def task(self, task_id: str) -> Task:
        return self._tasks[task_id]

    @property
    def tasks(self) -> Tuple[Task, ...]:
        """Every task, in insertion (registry) order."""
        return tuple(self._tasks.values())

    def validate(self) -> None:
        """Reject unknown dependencies and dependency cycles."""
        for task in self._tasks.values():
            for dep in task.deps:
                if dep not in self._tasks:
                    raise ExperimentError(
                        f"task {task.task_id!r} depends on unknown task {dep!r}"
                    )
        # Kahn's algorithm: anything left over sits on a cycle.
        remaining = {tid: set(task.deps) for tid, task in self._tasks.items()}
        while True:
            ready = [tid for tid, deps in remaining.items() if not deps]
            if not ready:
                break
            for tid in ready:
                del remaining[tid]
            for deps in remaining.values():
                deps.difference_update(ready)
        if remaining:
            cyclic = ", ".join(sorted(remaining))
            raise ExperimentError(f"task graph has a dependency cycle through: {cyclic}")

    def ready(self, done: Iterable[str]) -> List[Task]:
        """Unfinished tasks whose dependencies are all in ``done``.

        Returned in insertion order; the scheduler reorders them by
        cost, never this method.
        """
        settled = set(done)
        return [
            task
            for task in self._tasks.values()
            if task.task_id not in settled
            and all(dep in settled for dep in task.deps)
        ]


def run_context_task(days: float, seed: int) -> bool:
    """The shared context-warming task: generate/load the trace once."""
    get_context(days=days, seed=seed)
    return True


def run_monolithic(days: float, seed: int, experiment_id: str) -> ExperimentResult:
    """Single-task fallback: run an unsplit experiment end to end.

    The registry lookup happens *here*, inside the (possibly forked)
    worker, so monkeypatched registry entries behave exactly as they
    did under the pre-graph runner.
    """
    from repro.experiments import EXPERIMENTS

    context = get_context(days=days, seed=seed)
    return EXPERIMENTS[experiment_id].run(context=context)


def reduce_monolithic(
    context: ExperimentContext, shards: Mapping[str, Any]
) -> ExperimentResult:
    """Identity reduce for single-task plans."""
    (result,) = shards.values()
    return result


def build_plan(
    experiment_id: str,
    days: float = DEFAULT_DAYS,
    seed: int = rng_mod.DEFAULT_SEED,
) -> ExperimentPlan:
    """The :class:`ExperimentPlan` for one registry id.

    Modules exposing ``tasks``/``reduce_tasks`` get their declared
    decomposition; everything else gets a single
    :func:`run_monolithic` task whose id *is* the experiment id.
    Plans are pure functions of ``(experiment_id, days, seed)`` so a
    worker process can rebuild an identical plan from those three
    values alone.
    """
    from repro.experiments import EXPERIMENTS

    if experiment_id not in EXPERIMENTS:
        raise ExperimentError(f"unknown experiment {experiment_id!r}")
    entry = EXPERIMENTS[experiment_id]
    tasks_hook = getattr(entry, "tasks", None)
    reduce_hook = getattr(entry, "reduce_tasks", None)
    if tasks_hook is None or reduce_hook is None:
        task = Task(
            task_id=experiment_id,
            experiment_id=experiment_id,
            fn=run_monolithic,
            params=(("experiment_id", experiment_id),),
        )
        return ExperimentPlan(
            experiment_id=experiment_id, shards=(task,), reduce_fn=reduce_monolithic
        )
    return ExperimentPlan(
        experiment_id=experiment_id,
        shards=tuple(tasks_hook(days=days, seed=seed)),
        reduce_fn=reduce_hook,
    )


def build_plans(
    ids: Iterable[str],
    days: float = DEFAULT_DAYS,
    seed: int = rng_mod.DEFAULT_SEED,
) -> Dict[str, ExperimentPlan]:
    """Plans for ``ids``, keyed by experiment id, in request order."""
    return {
        experiment_id: build_plan(experiment_id, days=days, seed=seed)
        for experiment_id in ids
    }


def build_graph(plans: Iterable[ExperimentPlan]) -> TaskGraph:
    """Assemble the full task graph behind a batch of plans.

    One shared :data:`CONTEXT_TASK_ID` task is inserted first and added
    to the dependencies of every shard that ``needs_context``
    (deduplicated, context first), so the trace is warmed exactly once
    and every experiment — split or not — observes the identical cached
    context.  Context-free shards (``ext-fleet``'s fleet warm-up) are
    ready alongside the context task and can run while it integrates.
    """
    graph = TaskGraph()
    graph.add(
        Task(
            task_id=CONTEXT_TASK_ID,
            experiment_id=CONTEXT_TASK_ID,
            fn=run_context_task,
        )
    )
    for plan in plans:
        for task in plan.shards:
            if task.needs_context:
                task = task.with_deps(tuple(dict.fromkeys((CONTEXT_TASK_ID,) + task.deps)))
            graph.add(task)
    graph.validate()
    return graph
