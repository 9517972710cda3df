"""Tests for the ``repro`` command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _warm_cache(week_output):
    """CLI tests run on the cached 7-day trace."""


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_synthetic_info(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--days", "7")
        assert code == 0
        assert "sensors (27)" in out
        assert "usable occupied days" in out

    def test_loaded_info(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "--days", "7", "--output", str(tmp_path / "trace")
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "info", "--input", str(tmp_path / "trace"))
        assert code == 0
        assert "sensors (27)" in out


class TestSimulate:
    def test_writes_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "--days", "7", "--output", str(tmp_path / "t"), "--full"
        )
        assert code == 0
        assert (tmp_path / "t.csv").exists()
        assert (tmp_path / "t.meta.json").exists()
        assert "41 sensors" in out

    def test_chunk_steps_leave_the_trace_unchanged(self, capsys, tmp_path, monkeypatch):
        from repro.data.synth import clear_cache

        monkeypatch.setenv("REPRO_CACHE", "off")
        for stem, extra in (("whole", ()), ("chunked", ("--chunk-steps", "97"))):
            clear_cache()  # the in-process cache is blind to the chunking
            code, _, _ = run_cli(
                capsys, "simulate", "--days", "2", "--output", str(tmp_path / stem), *extra
            )
            assert code == 0
        clear_cache()
        for suffix in (".csv", ".meta.json"):
            whole = (tmp_path / f"whole{suffix}").read_bytes()
            assert (tmp_path / f"chunked{suffix}").read_bytes() == whole

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--days", "7"],
            ["simulate", "--engine", "loop", "--output", "t"],
            ["simulate", "--no-cache", "--output", "t"],
            ["robustness", "--serial-traces"],
            ["ingest", "--solo-producers"],
        ],
        ids=["synth", "engine", "no-cache", "serial-traces", "solo-producers"],
    )
    def test_removed_parity_surface_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err


class TestFitClusterSelect:
    def test_fit(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--days", "7", "--order", "2")
        assert code == 0
        assert "90th-percentile RMS error" in out

    def test_cluster(self, capsys):
        code, out, _ = run_cli(capsys, "cluster", "--days", "7")
        assert code == 0
        assert "cluster 0" in out and "cluster 1" in out

    def test_select(self, capsys):
        code, out, _ = run_cli(capsys, "select", "--days", "7", "--strategy", "sms")
        assert code == 0
        assert "99th-percentile cluster-mean error" in out


class TestSnapshot:
    def test_renders_floorplan(self, capsys):
        code, out, _ = run_cli(capsys, "snapshot", "--days", "7")
        assert code == 0
        assert "FRONT" in out and "BACK" in out
        assert "occupancy at snapshot" in out

    def test_explicit_tick(self, capsys):
        code, out, _ = run_cli(capsys, "snapshot", "--days", "7", "--tick", "100")
        assert code == 0
        assert "snapshot 2013-02-01" in out


class TestExperiment:
    def test_single_experiment(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "fig2", "--days", "7")
        assert code == 0
        assert "== fig2" in out

    def test_unknown_experiment(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "fig99", "--days", "7")
        assert code == 2
        assert "unknown experiment" in err


class TestReport:
    def test_report_to_file(self, capsys, tmp_path, month_output):
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(capsys, "report", "--days", "28", "--output", str(target))
        assert code == 0
        text = target.read_text()
        assert "== table1" in text
        assert "== fig11" in text
        # An off-protocol trace length is stated in the header.
        assert "28-day synthetic trace" in text
        assert "OFF-PROTOCOL: paper uses 98 days" in text

    def test_defaults_are_paper_protocol(self):
        """experiment/report default to the paper's 98 days; the quick
        interactive subcommands keep the cheaper 28-day default."""
        from repro.cli import _build_parser

        parser = _build_parser()
        assert parser.parse_args(["report"]).days == 98.0
        assert parser.parse_args(["experiment", "all"]).days == 98.0
        assert parser.parse_args(["experiment", "all"]).jobs == 1
        assert parser.parse_args(["fit"]).days == 28.0


class TestJobs:
    def test_parallel_report_matches_serial(self, capsys, tmp_path, week_output):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        code, _, _ = run_cli(
            capsys, "report", "--days", "7", "--output", str(serial)
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "report", "--days", "7", "--jobs", "2", "--output", str(parallel)
        )
        assert code == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestRobustnessCommand:
    def test_degradation_curve_renders(self, capsys):
        code, out, _ = run_cli(capsys, "robustness", "--days", "7")
        assert code == 0
        assert "== robustness:" in out
        assert "quarantined" in out
        assert "max quarantined" in out

    def test_default_is_paper_protocol(self):
        from repro.cli import _build_parser

        assert _build_parser().parse_args(["robustness"]).days == 98.0


class TestPartialFailure:
    """A raising experiment degrades the report instead of killing it."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self, tmp_path, monkeypatch):
        """Renders must really execute for the injected failure to fire."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_report_renders_survivors_and_exits_1(self, capsys, tmp_path, monkeypatch):
        from repro.errors import DataError
        from repro.experiments import EXPERIMENTS

        def _boom(context=None):
            raise DataError("injected mid-report failure")

        monkeypatch.setattr(EXPERIMENTS["fig9"], "run", _boom)
        target = tmp_path / "report.txt"
        code, _, err = run_cli(
            capsys, "report", "--days", "7", "--jobs", "4", "--output", str(target)
        )
        assert code == 1
        text = target.read_text()
        assert "== FAILED experiments (1) ==" in text
        assert "fig9: DataError" in text
        assert "== table1" in text and "== fig11" in text  # survivors rendered
        assert "fig9: DataError" in err

    def test_failed_parallel_report_otherwise_matches_serial(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.errors import DataError
        from repro.experiments import EXPERIMENTS

        def _boom(context=None):
            raise DataError("injected")

        monkeypatch.setattr(EXPERIMENTS["fig9"], "run", _boom)
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-serial"))
        code, _, _ = run_cli(capsys, "report", "--days", "7", "--output", str(serial))
        assert code == 1
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-parallel"))
        code, _, _ = run_cli(
            capsys, "report", "--days", "7", "--jobs", "4", "--output", str(parallel)
        )
        assert code == 1
        assert serial.read_bytes() == parallel.read_bytes()

    def test_single_experiment_total_failure_exits_2(self, capsys, monkeypatch):
        from repro.errors import DataError
        from repro.experiments import EXPERIMENTS

        def _boom(context=None):
            raise DataError("injected")

        monkeypatch.setattr(EXPERIMENTS["fig2"], "run", _boom)
        code, _, err = run_cli(capsys, "experiment", "fig2", "--days", "7")
        assert code == 2
        assert "fig2: DataError" in err
