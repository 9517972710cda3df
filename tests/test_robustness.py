"""End-to-end robustness: campaign -> quarantine -> survivors -> model.

The acceptance path of the degraded pipeline: a mixed fault campaign
(>= 3 concurrent fault kinds) on a two-week trace must flow through
screening quarantine, gap segmentation, clustering/selection and
identification on the survivors, and produce the severity-vs-RMSE
degradation-curve artifact.
"""

import numpy as np
import pytest

from repro.core.artifacts import default_cache
from repro.data.screening import screen_sensors
from repro.experiments import EXPERIMENTS
from repro.experiments.context import ExperimentContext
from repro.experiments.robustness import build_campaign
from repro.geometry.layout import THERMOSTAT_IDS
from repro.sensing.faults import apply_campaign


@pytest.fixture(scope="module")
def ctx14():
    """A two-week context (module-cached; one generation per run)."""
    return ExperimentContext.create(days=14.0)


@pytest.fixture(scope="module")
def result14(ctx14):
    """One full severity sweep, shared by the assertions below."""
    return EXPERIMENTS["robustness"].run(context=ctx14, severities=(0.0, 1.0))


class TestCampaignQuarantine:
    def test_campaign_mixes_at_least_three_kinds(self, ctx14):
        campaign = build_campaign(ctx14)
        assert len(campaign.kinds) >= 3
        assert all(f.sensor_id not in THERMOSTAT_IDS for f in campaign.faults)

    def test_full_severity_quarantines_faulted_sensors(self, ctx14):
        campaign = build_campaign(ctx14)
        injected = apply_campaign(ctx14.analysis, campaign)
        report = screen_sensors(
            injected.dataset.temperatures,
            injected.dataset.sensor_ids,
            injected.dataset.axis.day_indices(),
            protected_ids=THERMOSTAT_IDS,
        )
        faulted = {f.sensor_id for f in campaign.faults}
        assert set(report.dropped) <= faulted
        assert len(report.dropped) >= 3
        # Thermostats and clean sensors all survive.
        assert set(THERMOSTAT_IDS) <= set(report.kept_ids)
        clean = set(ctx14.analysis.sensor_ids) - faulted
        assert clean <= set(report.kept_ids)

    def test_quarantine_reasons_are_machine_readable(self, ctx14):
        campaign = build_campaign(ctx14)
        injected = apply_campaign(ctx14.analysis, campaign)
        report = screen_sensors(
            injected.dataset.temperatures,
            injected.dataset.sensor_ids,
            injected.dataset.axis.day_indices(),
            protected_ids=THERMOSTAT_IDS,
        )
        payload = report.to_dict()
        assert payload["dropped"]
        for sid in payload["dropped"]:
            assert payload["health"][sid]["sensor_id"] == sid


class TestDegradationCurve:
    def test_sweep_completes_end_to_end(self, result14):
        curve = result14.extras["curve"]
        assert curve["severity"] == [0.0, 1.0]
        # Fault-free endpoint: nothing quarantined, model fits.
        assert curve["quarantined"][0] == 0
        assert curve["model_rmse_c"][0] is not None
        # Full severity: sensors quarantined, survivors still model.
        assert curve["quarantined"][-1] >= 3
        assert curve["survivors"][-1] >= 10
        assert curve["model_rmse_c"][-1] is not None
        assert curve["selection_error_c"][-1] is not None

    def test_selection_overlap_is_a_jaccard(self, result14):
        overlaps = [o for o in result14.extras["curve"]["selection_overlap"] if o is not None]
        assert overlaps[0] == 1.0  # baseline vs itself
        assert all(0.0 <= o <= 1.0 for o in overlaps)

    def test_curve_stored_as_artifact(self, result14):
        key = result14.extras["artifact_key"]
        stored = default_cache().load(key)
        assert stored == result14.extras["curve"]

    def test_render_has_rows_and_notes(self, result14):
        text = result14.render()
        assert "== robustness:" in text
        assert "quarantined" in text
        assert "max quarantined" in text


class TestCountSweep:
    """Satellite: selection stability vs *number* of faulted sensors."""

    @pytest.fixture(scope="class")
    def count_result(self, ctx14):
        return EXPERIMENTS["robustness-count"].run(context=ctx14, counts=(0, 2))

    def test_rows_follow_the_counts(self, count_result):
        assert count_result.experiment_id == "robustness-count"
        assert [row[0] for row in count_result.rows] == [0, 2]
        curve = count_result.extras["curve"]
        assert curve["n_faulted"] == [0, 2]
        # Fault-free endpoint: full network, baseline overlap 1.0.
        assert curve["quarantined"][0] == 0
        assert curve["selection_overlap"][0] == 1.0

    def test_curve_stored_as_artifact(self, count_result):
        stored = default_cache().load(count_result.extras["artifact_key"])
        assert stored == count_result.extras["curve"]

    def test_impossible_count_rejected(self, ctx14):
        from repro.experiments.robustness import run_count_sweep

        with pytest.raises(ValueError, match="wireless sensors"):
            run_count_sweep(context=ctx14, counts=(10_000,))


def serial_replicate_analyses(ctx, seeds):
    """The slow reference for :func:`replicate_analyses`: each replicate's
    solo simulator run one by one, then the same observe/assemble path."""
    from repro.data.synth import SynthConfig, observe_output
    from repro.simulation.fleet import seed_fleet
    from repro.simulation.simulator import SimulationConfig

    specs = seed_fleet(SimulationConfig(days=ctx.days, seed=ctx.seed), seeds=seeds)
    return tuple(
        (
            seed,
            observe_output(
                spec.simulator().run(), SynthConfig(simulation=spec.simulation, seed=seed)
            ).analysis_dataset,
        )
        for seed, spec in zip(seeds, specs)
    )


class TestReplicateTraces:
    """Satellite: replicate traces come from one batched fleet pass."""

    @pytest.fixture(scope="class")
    def ctx7(self):
        return ExperimentContext.create(days=7.0)

    def test_single_replicate_is_the_context_trace_itself(self, ctx7):
        from repro.experiments.robustness import replicate_analyses

        reps = replicate_analyses(ctx7, replicates=1)
        assert reps == ((ctx7.seed, ctx7.analysis),)

    def test_invalid_replicates_rejected(self, ctx7):
        from repro.experiments.robustness import replicate_analyses

        with pytest.raises(ValueError, match="replicates"):
            replicate_analyses(ctx7, replicates=0)

    def test_batched_traces_bit_identical_to_serial(self, ctx7):
        from repro.experiments.robustness import replicate_analyses

        batched = replicate_analyses(ctx7, replicates=2)
        serial = serial_replicate_analyses(ctx7, [s for s, _ in batched])
        assert len(batched) == 2
        assert batched[0][0] == ctx7.seed  # replicate 0 keeps the context seed
        for (_, fast), (_, slow) in zip(batched, serial):
            assert fast.sensor_ids == slow.sensor_ids
            np.testing.assert_array_equal(fast.temperatures, slow.temperatures)

    def test_replicated_sweep_unchanged_vs_serial_path(self, ctx7, monkeypatch):
        from repro.experiments import robustness

        kwargs = dict(context=ctx7, severities=(0.0, 0.75), replicates=2)
        fast = robustness.run(**kwargs)
        seeds = [s for s, _ in robustness.replicate_analyses(ctx7, replicates=2)]
        monkeypatch.setattr(
            robustness,
            "replicate_analyses",
            lambda context, replicates: serial_replicate_analyses(context, seeds),
        )
        slow = robustness.run(**kwargs)
        assert fast.rows == slow.rows
        assert fast.extras["curve"] == slow.extras["curve"]
        assert any("2 seed replicates" in note for note in fast.notes)


class TestDeterminism:
    def test_sweep_is_reproducible(self, ctx14, result14):
        again = EXPERIMENTS["robustness"].run(context=ctx14, severities=(0.0, 1.0))
        assert again.render() == result14.render()
        assert again.extras["curve"] == result14.extras["curve"]

    def test_campaign_injection_deterministic(self, ctx14):
        campaign = build_campaign(ctx14).scaled(0.75)
        one = apply_campaign(ctx14.analysis, campaign)
        two = apply_campaign(ctx14.analysis, campaign)
        np.testing.assert_array_equal(
            one.dataset.temperatures, two.dataset.temperatures
        )
