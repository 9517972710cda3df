"""Tests for the experiment task graph, cost model and scheduler."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import DataError, ExperimentError
from repro.experiments import EXPERIMENTS
from repro.experiments.costs import CostModel, costs_enabled, costs_key
from repro.experiments.graph import (
    CONTEXT_TASK_ID,
    Task,
    TaskGraph,
    build_graph,
    build_plan,
    build_plans,
)
from repro.experiments.runner import run_experiments_detailed, schedule_tasks


def _noop(days, seed):
    return None


def _task(task_id, experiment_id="exp"):
    return Task(task_id=task_id, experiment_id=experiment_id, fn=_noop)


class TestTaskGraph:
    def test_duplicate_task_id_rejected(self):
        graph = TaskGraph()
        graph.add(_task("a"))
        with pytest.raises(ExperimentError, match="duplicate"):
            graph.add(_task("a"))

    def test_build_graph_threads_context_dependency(self):
        plans = build_plans(["fig2", "ext-fleet"], days=7.0)
        graph = build_graph(plans.values())
        assert [task.task_id for task in graph.tasks] == [CONTEXT_TASK_ID, "fig2", "ext-fleet"]
        assert graph.task("fig2").deps == (CONTEXT_TASK_ID,)
        # The fleet never reads the paper trace, so it is ready beside
        # the context task and can run while the trace integrates.
        assert graph.task("ext-fleet").deps == ()
        assert graph.task(CONTEXT_TASK_ID).deps == ()


class TestExperimentPlan:
    def test_unsplit_experiment_gets_monolithic_plan(self):
        task = build_plan("fig2", days=7.0)
        assert (task.task_id, task.experiment_id) == ("fig2", "fig2")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError, match="fig99"):
            build_plan("fig99", days=7.0)

    def test_tasks_are_picklable(self):
        for experiment_id in EXPERIMENTS:
            task = build_plan(experiment_id, days=7.0)
            assert pickle.loads(pickle.dumps(task)) == task


class TestContextFreeTask:
    """``ext-fleet`` never waits for, nor reads, the shared trace."""

    def test_ext_fleet_runs_with_the_context_unavailable(
        self, week_output, tmp_path, monkeypatch
    ):
        from repro import rng
        from repro.experiments import context as context_mod
        from repro.experiments import graph as graph_mod
        from repro.experiments import runner as runner_mod

        reference = EXPERIMENTS["ext-fleet"].run(context=context_mod.get_context(days=7.0))
        task = build_plan("ext-fleet", days=7.0)
        assert task.deps == ()

        def _unavailable(*args, **kwargs):
            raise DataError("the shared context is unavailable")

        for module in (context_mod, graph_mod, runner_mod):
            monkeypatch.setattr(module, "get_context", _unavailable)
        assert task.execute(7.0, rng.DEFAULT_SEED) == reference.render()

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        report = run_experiments_detailed(["ext-fleet", "fig2"], days=7.0)
        assert report.results == [("ext-fleet", reference.render())]
        (failure,) = report.failures
        assert failure.experiment_id == "fig2"
        assert failure.message.startswith("shared trace generation failed: ")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_runner_never_warms_the_context_for_context_free_tasks(
        self, jobs, week_output, tmp_path, monkeypatch
    ):
        from repro.experiments import runner as runner_mod

        calls = []

        def _counted(*args, **kwargs):
            calls.append(args or kwargs)
            raise DataError("the shared context was warmed")

        monkeypatch.setattr(runner_mod, "get_context", _counted)
        waves = []
        original = runner_mod._run_wave_forked

        def _spy(wave, *args, **kwargs):
            waves.append([task.task_id for task in wave])
            return original(wave, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "_run_wave_forked", _spy)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        report = run_experiments_detailed(["ext-fleet"], days=7.0, jobs=jobs)
        assert report.ok
        assert calls == []
        assert waves == ([["ext-fleet"]] if jobs > 1 else [])


class TestCostModel:
    @pytest.fixture(autouse=True)
    def _isolated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "costs"))
        monkeypatch.delenv("REPRO_COSTS", raising=False)

    def test_ewma_observation(self):
        model = CostModel(days=7.0)
        model.observe("t", 4.0)
        assert model.cost_of("t") == 4.0
        model.observe("t", 8.0)
        assert model.cost_of("t") == pytest.approx(6.0)  # alpha = 0.5
        assert model.samples["t"] == 2

    def test_round_trip_through_cache(self):
        model = CostModel(days=7.0)
        model.observe("table1", 2.5)
        model.save()
        loaded = CostModel.load(7.0)
        assert loaded.cost_of("table1") == 2.5
        # Keyed per protocol length: other day counts stay cold.
        assert not CostModel.load(98.0).known()

    def test_costs_off_switch(self, monkeypatch):
        model = CostModel(days=7.0)
        model.observe("t", 1.0)
        monkeypatch.setenv("REPRO_COSTS", "off")
        assert not costs_enabled()
        model.save()
        monkeypatch.delenv("REPRO_COSTS")
        assert not CostModel.load(7.0).known()

    def test_corrupt_payload_degrades_to_empty(self):
        from repro.core.artifacts import default_cache

        default_cache().store(costs_key(7.0), ["not", "a", "cost", "table"])
        assert not CostModel.load(7.0).known()

    def test_table_sorted_most_expensive_first(self):
        model = CostModel(days=7.0)
        model.observe("cheap", 1.0)
        model.observe("dear", 9.0)
        model.observe("mid", 5.0)
        assert [row[0] for row in model.table()] == ["dear", "mid", "cheap"]


class TestScheduler:
    def _tasks(self, *ids):
        return [_task(i) for i in ids]

    def test_lpt_orders_by_descending_cost(self):
        tasks = self._tasks("a", "b", "c")
        costs = CostModel(days=7.0, ewma_s={"a": 1.0, "b": 9.0, "c": 5.0})
        assert [t.task_id for t in schedule_tasks(tasks, costs, "cost")] == [
            "b",
            "c",
            "a",
        ]

    def test_unknown_cost_tasks_lead_the_wave(self):
        tasks = self._tasks("a", "b", "c")
        costs = CostModel(days=7.0, ewma_s={"a": 1.0, "c": 5.0})
        assert [t.task_id for t in schedule_tasks(tasks, costs, "cost")] == [
            "b",
            "c",
            "a",
        ]

    def test_cold_start_falls_back_to_registry_order(self):
        tasks = self._tasks("a", "b", "c")
        assert schedule_tasks(tasks, CostModel(days=7.0), "cost") == tasks
        assert schedule_tasks(tasks, None, "cost") == tasks

    def test_registry_mode_ignores_costs(self):
        tasks = self._tasks("a", "b")
        costs = CostModel(days=7.0, ewma_s={"a": 1.0, "b": 9.0})
        assert schedule_tasks(tasks, costs, "registry") == tasks

    def test_bad_schedule_mode_rejected(self):
        with pytest.raises(ExperimentError, match="schedule"):
            run_experiments_detailed(["fig2"], days=7.0, schedule="fastest")


class TestScheduledRunsStayByteIdentical:
    """The byte-parity contract across schedules, jobs and cost tables."""

    @pytest.fixture(autouse=True)
    def _warm(self, week_output):
        """Run against the session-cached 7-day trace."""

    def test_cost_schedule_with_synthetic_costs_matches_registry(
        self, tmp_path, monkeypatch
    ):
        ids = ["table1", "fig2", "fig3"]
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "registry"))
        registry = run_experiments_detailed(
            ids, days=7.0, jobs=1, schedule="registry"
        ).results

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cost"))
        # A deliberately adversarial cost table: make the scheduler run
        # everything in reverse registry order.
        model = CostModel(days=7.0)
        for rank, task_id in enumerate(["table1", "fig2", "fig3"]):
            model.observe(task_id, float(rank + 1))
        model.save()
        cost = run_experiments_detailed(
            ids, days=7.0, jobs=2, schedule="cost"
        ).results
        assert cost == registry

    def test_cold_run_populates_the_cost_model(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        report = run_experiments_detailed(["table1", "fig2"], days=7.0)
        assert report.ok
        model = CostModel.load(7.0)
        observed = set(model.ewma_s)
        assert observed == {CONTEXT_TASK_ID, "table1", "fig2"}
