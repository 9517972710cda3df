"""Graceful shutdown and snapshot recovery.

Satellite claims of the serving PR: a SIGINT/SIGTERM during ``repro
stream`` drains between ticks and seals a named snapshot whose restored
pipeline resumes tick-for-tick; snapshots round-trip across a real
process boundary with byte-identical predictions; and a corrupt or
missing snapshot surfaces as the typed :class:`SnapshotError`, never a
pickle traceback.  A terminal ^C (SIGINT to the whole process group)
drains ``repro serve`` and ``repro ingest`` cleanly: their supervised
children ignore it and stop through the parent's drain.
"""

import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cli import AUTOSAVE_SNAPSHOT, main
from repro.core.artifacts import ArtifactCache, default_cache
from repro.errors import SnapshotError
from repro.streaming import (
    GateThresholds,
    GracefulShutdown,
    OnlinePipeline,
    PredictionService,
    ReplaySource,
    ServiceConfig,
    build_request,
    load_snapshot,
    save_snapshot,
    snapshot_key,
)

from tests.conftest import make_linear_dataset

REPO_ROOT = Path(__file__).resolve().parents[1]

WIDE_GATE = GateThresholds(
    min_plausible_c=-1000.0, max_plausible_c=1000.0, max_step_c=1000.0
)


@pytest.fixture(scope="module")
def dataset():
    return make_linear_dataset(n_days=2.0, noise=0.01)


def fresh_pipeline(dataset):
    return OnlinePipeline(
        dataset.sensor_ids,
        dataset.channels.n_channels,
        order=2,
        gate_thresholds=WIDE_GATE,
    )


def one_prediction(pipeline, horizon=6):
    """The stripped response payload for one canonical request."""
    service = PredictionService(pipeline, ServiceConfig(max_horizon_ticks=64))
    request = build_request(
        {"id": "probe", "horizon_ticks": horizon},
        pipeline.estimator.last_inputs(),
        "probe",
        64,
    )
    service.submit(request)
    [response] = service.drain()
    payload = response.to_payload()
    payload.pop("latency_s")
    return payload


class TestGracefulShutdown:
    def test_first_signal_sets_flag_second_escapes(self):
        with GracefulShutdown() as stop:
            assert not stop.triggered
            os.kill(os.getpid(), signal.SIGINT)
            assert stop.triggered
            assert stop.signal_number == signal.SIGINT
            assert stop.requested() is True
            # The second signal falls through to the previous handler,
            # so a wedged drain stays interruptible.
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with GracefulShutdown():
            assert signal.getsignal(signal.SIGTERM) != before
        assert signal.getsignal(signal.SIGTERM) == before


class TestStreamInterrupt:
    def test_sigint_drains_between_ticks_and_resumes_tick_for_tick(self, dataset):
        ticks = list(ReplaySource(dataset))
        cut = 40
        full = fresh_pipeline(dataset)
        full.run(iter(ticks))

        part = fresh_pipeline(dataset)
        with GracefulShutdown() as stop:

            def interrupted_source():
                for i, tick in enumerate(ticks):
                    if i == cut:
                        os.kill(os.getpid(), signal.SIGINT)
                    yield tick

            part.run(interrupted_source(), should_stop=stop.requested)
            assert stop.triggered
        # The loop stopped on the tick boundary, never mid-tick.
        assert part.summary.n_ticks == cut

        save_snapshot("test-resume", part)
        restored = load_snapshot("test-resume", required=True)
        restored.run(iter(ticks[cut:]))
        # Interrupt + snapshot + resume is invisible: same summary and
        # bit-identical predictions as the uninterrupted run.
        assert restored.summary == full.summary
        np.testing.assert_array_equal(
            restored.predict_ahead(np.tile(dataset.inputs[-1], (6, 1))),
            full.predict_ahead(np.tile(dataset.inputs[-1], (6, 1))),
        )

    def test_cli_stream_interrupt_saves_autosave_snapshot(
        self, dataset, monkeypatch, capsys
    ):
        import repro.cli as cli_mod

        ticks = list(ReplaySource(dataset))
        cut = 60

        def fake_build(args, forgetting=1.0, should_stop=None):
            pipeline = fresh_pipeline(dataset)

            def source():
                for i, tick in enumerate(ticks):
                    if i == cut:
                        os.kill(os.getpid(), signal.SIGINT)
                    yield tick

            pipeline.run(source(), should_stop=should_stop)
            return pipeline

        monkeypatch.setattr(cli_mod, "_build_pipeline", fake_build)
        rc = main(["stream"])
        out, err = capsys.readouterr()
        assert rc == 0
        assert "interrupted by signal" in err
        assert AUTOSAVE_SNAPSHOT in err
        # The autosaved snapshot holds exactly the drained state.
        saved = load_snapshot(AUTOSAVE_SNAPSHOT, required=True)
        assert saved.summary.n_ticks == cut


class TestSnapshotRecovery:
    def test_round_trip_across_processes_is_byte_identical(self, dataset):
        name = "test-crossproc"
        pipeline = fresh_pipeline(dataset)
        pipeline.run(ReplaySource(dataset))
        assert save_snapshot(name, pipeline) is not None
        expected = one_prediction(load_snapshot(name, required=True))

        script = textwrap.dedent(
            f"""
            import json
            from repro.streaming import PredictionService, ServiceConfig, build_request, load_snapshot

            pipeline = load_snapshot({name!r}, required=True)
            service = PredictionService(pipeline, ServiceConfig(max_horizon_ticks=64))
            request = build_request(
                {{"id": "probe", "horizon_ticks": 6}},
                pipeline.estimator.last_inputs(),
                "probe",
                64,
            )
            service.submit(request)
            [response] = service.drain()
            payload = response.to_payload()
            payload.pop("latency_s")
            print(json.dumps(payload, sort_keys=True))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == json.loads(
            json.dumps(expected, sort_keys=True)
        )

    def test_corrupt_snapshot_raises_typed_error_not_traceback(self, dataset):
        name = "test-corrupt"
        pipeline = fresh_pipeline(dataset)
        save_snapshot(name, pipeline)
        path = default_cache().path_for(snapshot_key(name))
        assert path.exists()
        path.write_bytes(b"this is not a pickle")
        with pytest.raises(SnapshotError, match="missing or corrupt"):
            load_snapshot(name, required=True)
        # The corrupt entry self-healed to a miss; optional loads see None.
        assert load_snapshot(name) is None

    def test_wrong_typed_artifact_is_not_a_pipeline(self):
        name = "test-wrong-type"
        default_cache().store(snapshot_key(name), {"not": "a pipeline"})
        assert load_snapshot(name) is None
        with pytest.raises(SnapshotError, match=name):
            load_snapshot(name, required=True)

    def test_missing_snapshot_required_raises(self):
        assert load_snapshot("test-never-saved") is None
        with pytest.raises(SnapshotError, match="test-never-saved"):
            load_snapshot("test-never-saved", required=True)

    def test_disabled_cache_required_raises_and_save_is_noop(self, dataset):
        disabled = ArtifactCache(enabled=False)
        assert save_snapshot("test-disabled", fresh_pipeline(dataset), disabled) is None
        with pytest.raises(SnapshotError, match="disabled"):
            load_snapshot("test-disabled", cache=disabled, required=True)


def _repro_process(argv):
    """``repro ARGV`` in its own session (so it has its own process group)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-c", "import sys; from repro.cli import main; sys.exit(main())", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        start_new_session=True,
    )


class TestTerminalInterrupt:
    """``killpg(SIGINT)`` — what a terminal ^C does — drains, never kills."""

    SNAPSHOT = "test-sigint-serve"

    @pytest.fixture(scope="class")
    def sealed(self, dataset):
        pipeline = fresh_pipeline(dataset)
        pipeline.run(ReplaySource(dataset))
        assert save_snapshot(self.SNAPSHOT, pipeline) is not None
        return self.SNAPSHOT

    @pytest.mark.parametrize("command", ["serve", "ingest"])
    def test_sigint_to_the_process_group_drains_clean(self, command, sealed, tmp_path):
        if command == "serve":
            proc = _repro_process(
                ["serve", "--workers", "2", "--port", "0", "--restore", sealed]
            )
            # The line comes once every worker is live.
            ready = proc.stdout.readline()
            assert ready.startswith("serving on "), ready
        else:
            # 14 days, so the shards are still streaming when SIGINT lands.
            proc = _repro_process(
                ["ingest", "--buildings", "2", "--days", "14", "--shards", "2",
                 "--out", str(tmp_path)]
            )
            # Each shard creates its record log once it is running.
            deadline = time.monotonic() + 120.0
            while len(list(tmp_path.glob("sharded/*.records.jsonl"))) < 2:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
        time.sleep(0.3)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert "drain clean" in err
        assert "Traceback" not in err
        assert "KeyboardInterrupt" not in err
        if command == "serve":
            assert re.search(r"restarts 0, deadline misses", err), err
            workers = re.findall(r"worker (\d+): (\w+), .*restarts (\d+)", err)
            assert [(state, restarts) for _, state, restarts in workers] == [
                ("stopped", "0"),
                ("stopped", "0"),
            ], err
