"""Task graph of the experiment layer.

Every registry experiment is exactly one schedulable :class:`Task`
whose id is the experiment id.  The graph adds one shared
**context-warming task** (:data:`CONTEXT_TASK_ID`) that generates or
loads the paper trace once; every experiment task depends on it except
those whose registry entry declares ``NEEDS_CONTEXT = False`` (today
``ext-fleet``, which integrates its own fleet from the seed alone).  A
context-free task is ready beside the context task, so on a cold
multi-core run it runs while the trace integrates.

The context is the only dependency a task can have, so the graph has
no cycles or unknown dependencies to reject.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Tuple

from repro import rng as rng_mod
from repro.errors import ExperimentError
from repro.experiments.context import DEFAULT_DAYS, get_context

__all__ = [
    "CONTEXT_TASK_ID",
    "Task",
    "TaskGraph",
    "build_graph",
    "build_plan",
    "build_plans",
    "needs_context",
    "run_context_task",
    "run_experiment",
]

#: Id of the shared context-warming task.
CONTEXT_TASK_ID = "context"


@dataclass(frozen=True)
class Task:
    """One schedulable unit of experiment work.

    ``fn(days, seed, **dict(params))`` must be a **module-level**
    function returning a picklable result: a forked task child sends it
    back to the parent over a pipe.  ``params`` is a tuple of ``(name,
    value)`` pairs (plain data only) so the task itself stays hashable
    and picklable.
    """

    #: Globally unique id: the experiment id, or :data:`CONTEXT_TASK_ID`.
    task_id: str
    #: The experiment this task belongs to (registry id).
    experiment_id: str
    #: Module-level callable ``fn(days, seed, **params)``.
    fn: Callable[..., Any]
    #: Extra keyword arguments, as hashable ``(name, value)`` pairs.
    params: Tuple[Tuple[str, Any], ...] = ()
    #: Ids of tasks that must complete first: the context task or none.
    deps: Tuple[str, ...] = ()

    def execute(self, days: float, seed: int) -> Any:
        """Run the task in-process and return its result."""
        return self.fn(days, seed, **dict(self.params))


class TaskGraph:
    """Insertion-ordered task collection."""

    def __init__(self) -> None:
        self._tasks: Dict[str, Task] = {}

    def add(self, task: Task) -> None:
        if task.task_id in self._tasks:
            raise ExperimentError(f"duplicate task id {task.task_id!r} in graph")
        self._tasks[task.task_id] = task

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def task(self, task_id: str) -> Task:
        return self._tasks[task_id]

    @property
    def tasks(self) -> Tuple[Task, ...]:
        """Every task, in insertion (registry) order."""
        return tuple(self._tasks.values())


def needs_context(entry: Any) -> bool:
    """Whether a registry entry's ``run`` reads the shared context."""
    return getattr(entry, "NEEDS_CONTEXT", True)


def run_context_task(days: float, seed: int) -> bool:
    """The shared context-warming task: generate/load the trace once."""
    get_context(days=days, seed=seed)
    return True


def run_experiment(days: float, seed: int, experiment_id: str) -> str:
    """Run one registry experiment end to end and return its rendered text.

    The registry lookup happens *here*, inside the (possibly forked)
    task child, so monkeypatched registry entries behave exactly as in
    the parent.  A context-free entry gets only the seed and never
    touches the trace.  Rendering in the task sends the child's text,
    not its result object, back over the pipe.
    """
    from repro.experiments import EXPERIMENTS

    entry = EXPERIMENTS[experiment_id]
    if not needs_context(entry):
        return entry.run(seed=seed).render()
    return entry.run(context=get_context(days=days, seed=seed)).render()


def build_plan(
    experiment_id: str,
    days: float = DEFAULT_DAYS,
    seed: int = rng_mod.DEFAULT_SEED,
) -> Task:
    """The single :class:`Task` of one registry id.

    Plans are pure functions of ``(experiment_id, days, seed)`` so a
    task child can rebuild an identical task from those three values
    alone.
    """
    from repro.experiments import EXPERIMENTS

    if experiment_id not in EXPERIMENTS:
        raise ExperimentError(f"unknown experiment {experiment_id!r}")
    return Task(
        task_id=experiment_id,
        experiment_id=experiment_id,
        fn=run_experiment,
        params=(("experiment_id", experiment_id),),
        deps=(CONTEXT_TASK_ID,) if needs_context(EXPERIMENTS[experiment_id]) else (),
    )


def build_plans(
    ids: Iterable[str],
    days: float = DEFAULT_DAYS,
    seed: int = rng_mod.DEFAULT_SEED,
) -> Dict[str, Task]:
    """Tasks for ``ids``, keyed by experiment id, in request order."""
    return {
        experiment_id: build_plan(experiment_id, days=days, seed=seed)
        for experiment_id in ids
    }


def build_graph(tasks: Iterable[Task]) -> TaskGraph:
    """The task graph behind a batch of experiment tasks.

    The shared :data:`CONTEXT_TASK_ID` task is inserted first, so the
    trace is warmed exactly once and every experiment observes the
    identical cached context.
    """
    graph = TaskGraph()
    graph.add(Task(task_id=CONTEXT_TASK_ID, experiment_id=CONTEXT_TASK_ID, fn=run_context_task))
    for task in tasks:
        graph.add(task)
    return graph
