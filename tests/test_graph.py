"""Tests for the experiment task graph, cost model and scheduler."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import DataError, ExperimentError
from repro.experiments import EXPERIMENTS, SHARDED_EXPERIMENTS
from repro.experiments.context import get_context
from repro.experiments.costs import CostModel, costs_enabled, costs_key
from repro.experiments.graph import (
    CONTEXT_TASK_ID,
    ExperimentPlan,
    Task,
    TaskGraph,
    build_graph,
    build_plan,
    build_plans,
    reduce_monolithic,
)
from repro.experiments.runner import run_experiments_detailed, schedule_tasks


def _noop(days, seed):
    return None


def _task(task_id, experiment_id="exp", deps=()):
    return Task(task_id=task_id, experiment_id=experiment_id, fn=_noop, deps=deps)


class TestTaskGraph:
    def test_duplicate_task_id_rejected(self):
        graph = TaskGraph()
        graph.add(_task("a"))
        with pytest.raises(ExperimentError, match="duplicate"):
            graph.add(_task("a"))

    def test_unknown_dependency_rejected(self):
        graph = TaskGraph()
        graph.add(_task("a", deps=("ghost",)))
        with pytest.raises(ExperimentError, match="ghost"):
            graph.validate()

    def test_cycle_rejected(self):
        graph = TaskGraph()
        graph.add(_task("a", deps=("b",)))
        graph.add(_task("b", deps=("a",)))
        with pytest.raises(ExperimentError, match="cycle"):
            graph.validate()

    def test_ready_respects_dependencies_and_insertion_order(self):
        graph = TaskGraph()
        graph.add(_task("a"))
        graph.add(_task("b", deps=("a",)))
        graph.add(_task("c"))
        assert [t.task_id for t in graph.ready([])] == ["a", "c"]
        assert [t.task_id for t in graph.ready(["a", "c"])] == ["b"]

    def test_build_graph_threads_context_dependency(self):
        plans = build_plans(["fig2", "ext-fleet"], days=7.0)
        graph = build_graph(plans.values())
        assert CONTEXT_TASK_ID in graph
        # Every task but the context-free fleet warm-up waits for the context.
        for task in graph.tasks:
            if task.task_id in (CONTEXT_TASK_ID, "ext-fleet/warm"):
                assert task.deps == ()
            else:
                assert CONTEXT_TASK_ID in task.deps
        assert not graph.task("ext-fleet/warm").needs_context
        # ext-fleet buildings wait for both the context and the warm task.
        for index in range(8):
            deps = graph.task(f"ext-fleet/building-{index}").deps
            assert set(deps) == {CONTEXT_TASK_ID, "ext-fleet/warm"}
        # The warm-up is ready alongside the context task, so it can run
        # while the trace integrates.
        assert [t.task_id for t in graph.ready([])] == [CONTEXT_TASK_ID, "ext-fleet/warm"]


class TestExperimentPlan:
    def test_empty_plan_rejected(self):
        with pytest.raises(ExperimentError, match="empty"):
            ExperimentPlan(experiment_id="exp", shards=(), reduce_fn=reduce_monolithic)

    def test_foreign_experiment_id_rejected(self):
        with pytest.raises(ExperimentError, match="claims experiment"):
            ExperimentPlan(
                experiment_id="exp",
                shards=(_task("t", experiment_id="other"),),
                reduce_fn=reduce_monolithic,
            )

    def test_unsplit_experiment_gets_monolithic_plan(self):
        plan = build_plan("fig2", days=7.0)
        assert plan.task_ids == ("fig2",)
        assert plan.shards[0].experiment_id == "fig2"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError, match="fig99"):
            build_plan("fig99", days=7.0)

    def test_dominant_experiments_are_sharded(self):
        assert set(SHARDED_EXPERIMENTS) == {"table1", "robustness", "ext-fleet"}
        assert len(build_plan("table1", days=7.0).shards) == 4
        assert len(build_plan("robustness", days=7.0).shards) == 5
        assert len(build_plan("ext-fleet", days=7.0).shards) == 9

    def test_tasks_are_picklable(self):
        for experiment_id in SHARDED_EXPERIMENTS:
            for task in build_plan(experiment_id, days=7.0).shards:
                assert pickle.loads(pickle.dumps(task)).task_id == task.task_id


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
        model.observe("table1/occupied-1", 2.5)
        model.save()
        loaded = CostModel.load(7.0)
        assert loaded.cost_of("table1/occupied-1") == 2.5
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


class TestShardedParity:
    """Sharded execution reduces to the exact monolithic render."""

    @pytest.fixture(autouse=True)
    def _warm(self, week_output):
        """Run against the session-cached 7-day trace."""

    @pytest.mark.parametrize("experiment_id", sorted(SHARDED_EXPERIMENTS))
    def test_reduce_matches_monolithic_render(self, experiment_id):
        days = 7.0
        ctx = get_context(days=days)
        seed = ctx.seed
        plan = build_plan(experiment_id, days=days, seed=seed)
        # Execute shards in *reverse* plan order (dependencies permitting)
        # to prove the reduce does not depend on completion order.
        shards = {}
        remaining = list(reversed(plan.shards))
        while remaining:
            progressed = False
            for task in list(remaining):
                if all(d in shards or d not in plan.task_ids for d in task.deps):
                    shards[task.task_id] = task.execute(days, seed)
                    remaining.remove(task)
                    progressed = True
            assert progressed, "plan dependencies are not satisfiable"
        monolithic = EXPERIMENTS[experiment_id].run(context=ctx).render()
        assert plan.reduce_fn(ctx, shards).render() == monolithic


class TestShardFailureIsolation:
    """One poisoned shard degrades one cell, never the experiment."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self, week_output, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_poisoned_cell_leaves_siblings_rendered(self, monkeypatch):
        import repro.experiments.table1 as table1_mod

        original = table1_mod.run_cell

        def _poisoned(days, seed, mode_name, order):
            if (mode_name, order) == ("occupied", 2):
                raise DataError("injected shard failure")
            return original(days, seed, mode_name, order)

        monkeypatch.setattr(table1_mod, "run_cell", _poisoned)
        report = run_experiments_detailed(["table1", "fig2"], days=7.0)

        (failure,) = report.failures
        assert failure.experiment_id == "table1"
        assert failure.task_id == "table1/occupied-2"
        assert failure.error_type == "DataError"
        assert "table1/occupied-2" in failure.describe()

        survived = dict(report.results)
        assert set(survived) == {"table1", "fig2"}
        degraded = survived["table1"]
        assert "FAILED" in degraded
        assert "cell occupied/order 2 failed" in degraded
        # Sibling cells still carry real measurements.
        assert "unoccupied" in degraded

    def test_degraded_render_is_not_cached(self, monkeypatch):
        import repro.experiments.table1 as table1_mod

        from repro.core.artifacts import default_cache
        from repro.experiments.runner import _render_key

        def _boom(days, seed, mode_name, order):
            raise DataError("injected shard failure")

        monkeypatch.setattr(table1_mod, "run_cell", _boom)
        report = run_experiments_detailed(["table1"], days=7.0)
        assert not report.ok
        assert not default_cache().contains(_render_key("table1", 7.0, get_context(days=7.0).seed))

    def test_all_shards_failed_drops_the_experiment(self, monkeypatch):
        import repro.experiments.table1 as table1_mod

        def _boom(days, seed, mode_name, order):
            raise DataError("injected shard failure")

        monkeypatch.setattr(table1_mod, "run_cell", _boom)
        report = run_experiments_detailed(["table1"], days=7.0)
        assert report.results == []
        assert len(report.failures) == 4  # one entry per cell


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
        for rank, task_id in enumerate(
            ["table1/occupied-1", "table1/occupied-2", "table1/unoccupied-1",
             "table1/unoccupied-2", "fig2", "fig3"]
        ):
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
        assert CONTEXT_TASK_ID in observed
        assert "fig2" in observed
        assert {"table1/occupied-1", "table1/occupied-2"} <= observed
