"""Tests for the process-parallel experiment runner."""

from __future__ import annotations

import math
import os
import time
from types import SimpleNamespace

import pytest

from repro.errors import DataError, ExperimentError
from repro.experiments import EXPERIMENTS
from repro.experiments import ext_fleet as ext_fleet_mod
from repro.experiments import fig2 as fig2_mod
from repro.experiments import robustness as robustness_mod
from repro.experiments import table1 as table1_mod
from repro.experiments import context as context_mod
from repro.experiments import graph as graph_mod
from repro.experiments import runner as runner_mod
from repro.experiments.graph import CONTEXT_TASK_ID, Task
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

    @pytest.mark.parametrize(
        "poisoned, module, target",
        [
            ("fig2", fig2_mod, "run"),
            # One raising identification cell fails the whole table.
            ("table1", table1_mod, "_cell_row"),
            ("robustness", robustness_mod, "_evaluate_point"),
            ("ext-fleet", ext_fleet_mod, "_building_row"),
        ],
        ids=["fig2", "table1", "robustness", "ext-fleet"],
    )
    def test_parallel_failure_leaves_others_byte_identical(
        self, poisoned, module, target, monkeypatch
    ):
        others = [i for i in ("table1", "fig3") if i != poisoned]
        serial = dict(run_experiments_detailed(others, days=7.0).results)

        def _boom(*args, **kwargs):
            raise DataError("injected")

        monkeypatch.setenv("REPRO_CACHE_DIR", os.environ["REPRO_CACHE_DIR"] + "-b")
        monkeypatch.setattr(module, target, _boom)
        report = run_experiments_detailed([poisoned, *others], days=7.0, jobs=4)
        (failure,) = report.failures
        assert failure.describe() == f"{poisoned}: DataError: injected"
        assert dict(report.results) == serial

    def test_worker_crash_downgraded_and_recorded(self, tmp_path, monkeypatch):
        def _die(context=None):
            os._exit(3)

        # Children are forked, so they count their runs through a file.
        fig2_runs = tmp_path / "fig2-runs"
        original = EXPERIMENTS["fig2"].run

        def _counted(context=None):
            with open(fig2_runs, "a") as fh:
                fh.write("run\n")
            return original(context=context)

        monkeypatch.setattr(EXPERIMENTS["fig3"], "run", _die)
        monkeypatch.setattr(EXPERIMENTS["fig2"], "run", _counted)
        report = run_experiments_detailed(
            ["fig2", "fig3"],
            days=7.0,
            jobs=2,
            options=RunnerOptions(retries=1),
        )
        assert [i for i, _ in report.results] == ["fig2"]
        (failure,) = report.failures
        assert failure.experiment_id == "fig3"
        assert failure.error_type == "WorkerCrashError"
        assert failure.attempts == 2  # the first child + one respawn
        # The crash never reaches the sibling: it ran exactly once.
        assert fig2_runs.read_text().splitlines() == ["run"]

    def test_transient_failure_recovers_on_retry(self, monkeypatch):
        calls = {"n": 0}

        def _flaky(context=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient glitch")
            return _FakeResult("== fig3: recovered ==")

        monkeypatch.setattr(EXPERIMENTS["fig3"], "run", _flaky)
        report = run_experiments_detailed(
            ["fig3"], days=7.0, options=RunnerOptions(retries=1)
        )
        assert report.ok
        assert report.results == [("fig3", "== fig3: recovered ==")]

    def test_retry_budget_exhausts_to_failure(self, monkeypatch):
        def _always(context=None):
            raise RuntimeError("still broken")

        monkeypatch.setattr(EXPERIMENTS["fig3"], "run", _always)
        report = run_experiments_detailed(
            ["fig3"], days=7.0, options=RunnerOptions(retries=1)
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
    """Record the task ids of every wave handed to forked children."""
    waves = []
    original = runner_mod._run_wave_forked

    def _spy(wave, *args, **kwargs):
        waves.append([task.task_id for task in wave])
        return original(wave, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "_run_wave_forked", _spy)
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
            self.IDS, days=7.0, jobs=2, options=RunnerOptions(retries=1)
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


# ---------------------------------------------------------------------------
# The forked dispatch loop under a fake clock: no processes, no sleeps
# ---------------------------------------------------------------------------

#: Every fake wake-up costs this much time, as any real syscall does.
TICK = 1e-6


class FakeReader:
    """The parent's end of a child's result pipe."""

    def __init__(self):
        self.inbox, self.eof = [], False

    def poll(self):
        return bool(self.inbox) or self.eof

    def recv(self):
        if self.inbox:
            return self.inbox.pop(0)
        raise EOFError

    def close(self):
        pass


class FakeChild:
    """A forked task child that plays its task's next scripted outcome:
    ``ok``, ``error`` (library error), ``raise`` (any other exception),
    ``crash`` (dies without a word) or ``hang``, after a duration."""

    def __init__(self, fork, args):
        _, self.heartbeat, (self.task_id, _, _, writer) = args
        self.fork, self.reader = fork, writer.reader
        self.exitcode = None
        self.sentinel = object()

    def start(self):
        fork = self.fork
        self.outcome, duration = fork.script[self.task_id].pop(0)
        self.finish_at = fork.now + duration
        fork.starts.append((self.task_id, fork.now))
        fork.children.append(self)
        fork.max_live = max(fork.max_live, sum(c.is_alive() for c in fork.children))

    def is_alive(self):
        return self.exitcode is None

    def kill(self):
        self.exit(-9)

    def join(self, timeout_s=None):
        pass

    def exit(self, code):
        self.exitcode, self.reader.eof = code, True

    def finish(self):
        messages = {
            "ok": [("ok", self.task_id.upper(), 1.5)],
            "error": [("error", "DataError", "bad data")],
            "raise": [("retry", "RuntimeError", "glitch")],
            "crash": [],
        }[self.outcome]
        self.reader.inbox.extend(messages)
        self.exit(0 if self.outcome in ("ok", "error") else 1)


class FakeFork:
    """A fork context, clock and ``wait`` in one: ``wait`` jumps the clock
    to the next scripted child exit, or by its timeout."""

    def __init__(self, script):
        self.script = {task_id: list(outcomes) for task_id, outcomes in script.items()}
        self.now = 0.0
        self.starts, self.children, self.max_live, self.waits = [], [], 0, 0

    def Value(self, typecode, value):
        return SimpleNamespace(value=value)

    def Pipe(self, duplex):
        reader = FakeReader()
        return reader, SimpleNamespace(reader=reader, close=lambda: None)

    def Process(self, target, args, name, daemon):
        return FakeChild(self, args)

    def monotonic(self):
        return self.now

    def wait(self, objects, timeout_s):
        self.waits += 1
        assert self.waits < 10_000, "the dispatch loop spins"
        alive = [child for child in self.children if child.is_alive()]
        child = min(alive, key=lambda c: c.finish_at, default=None)
        if child is not None and (timeout_s is None or child.finish_at <= self.now + timeout_s):
            self.now = max(self.now, child.finish_at) + TICK
            child.finish()
            return []
        assert timeout_s is not None, "the dispatch loop would block forever"
        self.now += timeout_s + TICK
        return []


class TestForkedDispatchLoop:
    """``_run_wave_forked`` on fake children: each slot's crash, hang and
    respawn path, the ``jobs`` bound and the interrupt path."""

    @pytest.fixture
    def run(self, monkeypatch):
        def _run(script=None, jobs=1, timeout_s=None, retries=1, retrying=False, fork=None):
            fork = fork or FakeFork(script)
            monkeypatch.setattr(runner_mod, "FORK", fork)
            monkeypatch.setattr(runner_mod, "wait", fork.wait)
            monkeypatch.setattr(
                runner_mod, "time", SimpleNamespace(monotonic=fork.monotonic)
            )
            wave = [Task(task_id, "fig2", fn=len) for task_id in fork.script]
            values, seconds, failed = {}, {}, {}
            policy = RunnerOptions(timeout_s=timeout_s, retries=retries).policy()
            runner_mod._run_wave_forked(
                wave, 7.0, 0, jobs, policy, values, seconds, failed, retrying
            )
            fork.values, fork.seconds, fork.failed = values, seconds, failed
            return fork

        return _run

    @staticmethod
    def start_times(fork):
        return [now for _, now in fork.starts]

    def test_hang_past_the_deadline_times_out_after_every_respawn(self, run):
        fork = run({"t": [("hang", math.inf)] * 3}, timeout_s=1.0, retries=2)
        failure = fork.failed["t"]
        assert failure.error_type == "ExperimentTimeoutError"
        assert "1 s timeout" in failure.message
        assert failure.attempts == 3
        # Killed at each deadline, respawned 0.25 s and then 0.5 s later.
        assert self.start_times(fork) == pytest.approx([0.0, 1.25, 2.75], abs=1e-3)
        assert fork.now == pytest.approx(3.75, abs=1e-3)
        assert not any(child.is_alive() for child in fork.children)

    def test_crash_is_respawned_on_the_backoff(self, run):
        fork = run({"t": [("crash", 0.5), ("ok", 0.5)]})
        assert (fork.values, fork.seconds, fork.failed) == ({"t": "T"}, {"t": 1.5}, {})
        assert self.start_times(fork) == pytest.approx([0.0, 0.75], abs=1e-3)

    def test_a_sent_exception_is_retried_and_recorded(self, run):
        fork = run({"t": [("raise", 0.1), ("raise", 0.1)]})
        failure = fork.failed["t"]
        assert (failure.error_type, failure.message) == ("RuntimeError", "glitch")
        assert failure.attempts == 2

    def test_a_library_error_is_final(self, run):
        fork = run({"t": [("error", 0.1)]}, retries=3)
        failure = fork.failed["t"]
        assert (failure.error_type, failure.attempts) == ("DataError", 1)
        assert len(fork.starts) == 1

    def test_zero_retries_fail_on_the_first_death(self, run):
        fork = run({"t": [("crash", 0.1)]}, retries=0)
        failure = fork.failed["t"]
        assert failure.error_type == "WorkerCrashError"
        assert "exit code 1" in failure.message
        assert failure.attempts == 1
        assert len(fork.starts) == 1

    def test_never_more_than_jobs_live_children(self, run):
        script = {
            "a": [("ok", 3.0)],
            "b": [("crash", 1.0), ("ok", 1.0)],
            "c": [("ok", 2.0)],
            "d": [("ok", 1.0)],
            "e": [("ok", 1.0)],
        }
        fork = run(script, jobs=2)
        assert fork.max_live == 2
        assert set(fork.values) == set(script)
        # Dispatch follows the wave order; a respawning slot keeps its lane.
        assert [task_id for task_id, _ in fork.starts] == ["a", "b", "b", "c", "d", "e"]

    def test_retrying_tasks_wait_out_the_first_backoff(self, run):
        fork = run({"t": [("ok", 0.5)]}, retrying=True)
        assert fork.values == {"t": "T"}
        assert self.start_times(fork) == pytest.approx([0.25], abs=1e-3)

    def test_an_interrupt_leaves_no_child_alive(self, run):
        fork = FakeFork({"a": [("hang", math.inf)], "b": [("hang", math.inf)]})

        def _interrupt(objects, timeout_s):
            raise KeyboardInterrupt

        fork.wait = _interrupt
        with pytest.raises(KeyboardInterrupt):
            run(fork=fork, jobs=2)
        # Children ignore SIGINT, so the parent must have killed both.
        assert len(fork.children) == 2
        assert not any(child.is_alive() for child in fork.children)
