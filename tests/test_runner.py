"""Tests for the process-parallel experiment runner."""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import DataError, ExperimentError
from repro.experiments import EXPERIMENTS
from repro.experiments import context as context_mod
from repro.experiments import graph as graph_mod
from repro.experiments import runner as runner_mod
from repro.experiments.graph import CONTEXT_TASK_ID
from repro.experiments.runner import (
    RunnerOptions,
    resolve_ids,
    run_experiments,
    run_experiments_detailed,
)

#: A cheap, representative subset for parallel-equivalence checks.
SUBSET = ["table1", "fig2", "fig3", "fig6"]


class TestResolveIds:
    def test_all_expands_in_registry_order(self):
        assert resolve_ids(["all"]) == list(EXPERIMENTS)

    def test_explicit_ids_pass_through(self):
        assert resolve_ids(SUBSET) == SUBSET

    def test_unknown_id_raises(self):
        with pytest.raises(ExperimentError, match="fig99"):
            resolve_ids(["fig2", "fig99"])

    def test_unknown_id_lists_valid_ids(self):
        with pytest.raises(ExperimentError, match="table1"):
            resolve_ids(["fig99"])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ExperimentError, match="duplicate"):
            resolve_ids(["fig2", "fig3", "fig2"])


class TestRunExperiments:
    @pytest.fixture(autouse=True)
    def _warm(self, week_output):
        """Run against the session-cached 7-day trace."""

    def test_serial_results_are_ordered_and_rendered(self):
        results = run_experiments(SUBSET, days=7.0)
        assert [experiment_id for experiment_id, _ in results] == SUBSET
        for experiment_id, rendered in results:
            assert rendered.startswith(f"== {experiment_id}:")

    def test_parallel_is_byte_identical_to_serial(self, tmp_path, monkeypatch):
        # Fresh cache dir per run so both paths genuinely compute the
        # renders (a shared dir would let the parallel run trivially
        # replay the serial run's cached output).
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = run_experiments(SUBSET, days=7.0, jobs=1)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        parallel = run_experiments(SUBSET, days=7.0, jobs=2)
        assert parallel == serial

    def test_single_id_ignores_jobs(self):
        (result,) = run_experiments(["fig2"], days=7.0, jobs=8)
        assert result[0] == "fig2"

    def test_bad_jobs_rejected(self):
        with pytest.raises(ExperimentError, match="jobs"):
            run_experiments(["fig2"], days=7.0, jobs=0)


class TestRenderCache:
    @pytest.fixture(autouse=True)
    def _warm(self, week_output, tmp_path, monkeypatch):
        """Isolated cache dir per test, 7-day trace pre-generated."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_warm_run_replays_render_without_executing(self, monkeypatch):
        (first,) = run_experiments(["fig2"], days=7.0)

        def _boom(*args, **kwargs):
            raise AssertionError("experiment re-ran despite a cached render")

        monkeypatch.setattr(EXPERIMENTS["fig2"], "run", _boom)
        (second,) = run_experiments(["fig2"], days=7.0)
        assert second == first

    def test_source_change_invalidates_render(self, monkeypatch):
        run_experiments(["fig2"], days=7.0)
        monkeypatch.setattr(
            "repro.experiments.runner.source_digest", lambda: "different-code"
        )
        executed = []
        original = EXPERIMENTS["fig2"].run

        def _spy(*args, **kwargs):
            executed.append(True)
            return original(*args, **kwargs)

        monkeypatch.setattr(EXPERIMENTS["fig2"], "run", _spy)
        run_experiments(["fig2"], days=7.0)
        assert executed

    def test_cache_off_recomputes(self, monkeypatch):
        run_experiments(["fig2"], days=7.0)
        monkeypatch.setenv("REPRO_CACHE", "off")
        executed = []
        original = EXPERIMENTS["fig2"].run

        def _spy(*args, **kwargs):
            executed.append(True)
            return original(*args, **kwargs)

        monkeypatch.setattr(EXPERIMENTS["fig2"], "run", _spy)
        run_experiments(["fig2"], days=7.0)
        assert executed


class _FakeResult:
    """Minimal stand-in for an ExperimentResult."""

    def __init__(self, text: str):
        self._text = text

    def render(self) -> str:
        return self._text


class TestRunnerOptions:
    def test_validation(self):
        with pytest.raises(ExperimentError, match="timeout_s"):
            RunnerOptions(timeout_s=0.0)
        with pytest.raises(ExperimentError, match="retries"):
            RunnerOptions(retries=-1)
        with pytest.raises(ExperimentError, match="backoff_s"):
            RunnerOptions(backoff_s=-0.1)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_TIMEOUT_S", "12.5")
        monkeypatch.setenv("REPRO_RUNNER_RETRIES", "3")
        options = RunnerOptions.from_env()
        assert options.timeout_s == 12.5
        assert options.retries == 3

    def test_from_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNNER_TIMEOUT_S", raising=False)
        monkeypatch.delenv("REPRO_RUNNER_RETRIES", raising=False)
        options = RunnerOptions.from_env()
        assert options.timeout_s is None
        assert options.retries == 1

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_TIMEOUT_S", "soon")
        with pytest.raises(ExperimentError, match="REPRO_RUNNER_TIMEOUT_S"):
            RunnerOptions.from_env()

    def test_from_env_reads_backoff(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_BACKOFF_S", "0.75")
        assert RunnerOptions.from_env().backoff_s == 0.75

    def test_from_env_rejects_garbage_backoff(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_BACKOFF_S", "a while")
        with pytest.raises(ExperimentError, match="REPRO_RUNNER_BACKOFF_S"):
            RunnerOptions.from_env()


class TestFailureIsolation:
    """One failing experiment never takes down the batch."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self, week_output, tmp_path, monkeypatch):
        """Isolated cache dir so renders really execute (and fail)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_serial_repro_error_recorded_not_raised(self, monkeypatch):
        def _boom(context=None):
            raise DataError("injected deterministic failure")

        monkeypatch.setattr(EXPERIMENTS["fig3"], "run", _boom)
        report = run_experiments_detailed(["fig2", "fig3"], days=7.0)
        assert [i for i, _ in report.results] == ["fig2"]
        assert not report.ok
        (failure,) = report.failures
        assert failure.experiment_id == "fig3"
        assert failure.error_type == "DataError"
        assert failure.attempts == 1  # deterministic: no retry burned
        assert "injected deterministic failure" in failure.message
        assert "fig3" in report.render_failures()

    def test_parallel_failure_leaves_others_byte_identical(self, monkeypatch):
        ids = ["table1", "fig2", "fig3"]
        serial = dict(run_experiments_detailed(ids, days=7.0).results)

        def _boom(context=None):
            raise DataError("injected")

        monkeypatch.setenv("REPRO_CACHE_DIR", os.environ["REPRO_CACHE_DIR"] + "-b")
        monkeypatch.setattr(EXPERIMENTS["fig2"], "run", _boom)
        report = run_experiments_detailed(ids, days=7.0, jobs=4)
        assert [f.experiment_id for f in report.failures] == ["fig2"]
        survived = dict(report.results)
        assert set(survived) == {"table1", "fig3"}
        for experiment_id, text in survived.items():
            assert text == serial[experiment_id]

    def test_worker_crash_downgraded_and_recorded(self, monkeypatch):
        def _die(context=None):
            os._exit(3)

        monkeypatch.setattr(EXPERIMENTS["fig3"], "run", _die)
        report = run_experiments_detailed(
            ["fig2", "fig3"],
            days=7.0,
            jobs=2,
            options=RunnerOptions(retries=1, backoff_s=0.01),
        )
        assert [i for i, _ in report.results] == ["fig2"]
        (failure,) = report.failures
        assert failure.experiment_id == "fig3"
        assert failure.error_type == "WorkerCrashError"
        assert failure.attempts > 1  # pool attempt + isolated retries

    def test_transient_failure_recovers_on_retry(self, monkeypatch):
        calls = {"n": 0}

        def _flaky(context=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient glitch")
            return _FakeResult("== fig3: recovered ==")

        monkeypatch.setattr(EXPERIMENTS["fig3"], "run", _flaky)
        report = run_experiments_detailed(
            ["fig3"], days=7.0, options=RunnerOptions(retries=1, backoff_s=0.01)
        )
        assert report.ok
        assert report.results == [("fig3", "== fig3: recovered ==")]

    def test_retry_budget_exhausts_to_failure(self, monkeypatch):
        def _always(context=None):
            raise RuntimeError("still broken")

        monkeypatch.setattr(EXPERIMENTS["fig3"], "run", _always)
        report = run_experiments_detailed(
            ["fig3"], days=7.0, options=RunnerOptions(retries=1, backoff_s=0.01)
        )
        (failure,) = report.failures
        assert failure.error_type == "RuntimeError"
        assert failure.attempts == 2

    def test_timeout_terminates_and_records(self, monkeypatch):
        def _hang(context=None):
            time.sleep(60)

        monkeypatch.setattr(EXPERIMENTS["fig3"], "run", _hang)
        start = time.monotonic()
        report = run_experiments_detailed(
            ["fig3"], days=7.0, options=RunnerOptions(timeout_s=1.0, retries=0)
        )
        elapsed = time.monotonic() - start
        (failure,) = report.failures
        assert failure.error_type == "ExperimentTimeoutError"
        assert elapsed < 30.0

    def test_legacy_wrapper_raises_after_running_everything(self, monkeypatch):
        executed = []
        original = EXPERIMENTS["fig3"].run

        def _boom(context=None):
            raise DataError("injected")

        def _spy(*args, **kwargs):
            executed.append(True)
            return original(*args, **kwargs)

        monkeypatch.setattr(EXPERIMENTS["fig2"], "run", _boom)
        monkeypatch.setattr(EXPERIMENTS["fig3"], "run", _spy)
        with pytest.raises(ExperimentError, match="fig2"):
            run_experiments(["fig2", "fig3"], days=7.0)
        assert executed  # the batch kept going past the failure


def _spy_pool_waves(monkeypatch):
    """Record the task ids of every wave handed to the worker pool."""
    waves = []
    original = runner_mod._run_wave_parallel

    def _spy(wave, *args, **kwargs):
        waves.append([task.task_id for task in wave])
        return original(wave, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "_run_wave_parallel", _spy)
    return waves


class TestPooledContextTask:
    """A cold trace on a multi-core run is the first pool wave's context task."""

    IDS = ["fig2", "fig3"]

    @pytest.fixture(autouse=True)
    def _fresh_cache(self, week_output, tmp_path, monkeypatch):
        """An empty cache dir: the trace is cold on disk, renders execute."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def _serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        reference = run_experiments_detailed(self.IDS, days=7.0, jobs=1).results
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        return reference

    def test_cold_parallel_run_pools_the_context_task(self, tmp_path, monkeypatch):
        reference = self._serial(tmp_path, monkeypatch)
        waves = _spy_pool_waves(monkeypatch)
        report = run_experiments_detailed(self.IDS, days=7.0, jobs=2)
        assert report.ok
        assert report.results == reference
        assert waves[0] == [CONTEXT_TASK_ID]
        assert all(CONTEXT_TASK_ID not in wave for wave in waves[1:])

    def test_crashed_context_task_falls_back_inline(self, tmp_path, monkeypatch):
        reference = self._serial(tmp_path, monkeypatch)

        def _die(days, seed):
            os._exit(3)

        # Only the pooled task calls run_context_task; the parent's
        # fallback calls get_context directly.
        monkeypatch.setattr(graph_mod, "run_context_task", _die)
        waves = _spy_pool_waves(monkeypatch)
        report = run_experiments_detailed(
            self.IDS, days=7.0, jobs=2, options=RunnerOptions(retries=1, backoff_s=0.01)
        )
        assert waves[0] == [CONTEXT_TASK_ID]
        assert report.ok
        assert report.results == reference

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trace_failure_fails_every_pending_experiment(self, jobs, monkeypatch):
        def _broken(days, seed):
            raise DataError("injected trace failure")

        monkeypatch.setattr(context_mod, "_CONTEXTS", {})
        monkeypatch.setattr(context_mod.ExperimentContext, "create", staticmethod(_broken))
        report = run_experiments_detailed(self.IDS, days=7.0, jobs=jobs)
        assert report.results == []
        assert [f.experiment_id for f in report.failures] == self.IDS
        for failure in report.failures:
            assert failure.error_type == "DataError"
            assert failure.message.startswith("shared trace generation failed: ")
            assert "injected trace failure" in failure.message

    def test_cache_off_keeps_the_context_in_the_parent(self, tmp_path, monkeypatch):
        reference = self._serial(tmp_path, monkeypatch)
        monkeypatch.setenv("REPRO_CACHE", "off")
        waves = _spy_pool_waves(monkeypatch)
        report = run_experiments_detailed(self.IDS, days=7.0, jobs=2)
        assert report.ok
        assert report.results == reference
        assert waves
        assert all(CONTEXT_TASK_ID not in wave for wave in waves)
