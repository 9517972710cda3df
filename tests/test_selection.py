"""Tests for sensor-selection strategies and their evaluation."""

import numpy as np
import pytest

from repro.cluster.quality import cluster_mean_trace
from repro.cluster.spectral import ClusteringResult
from repro.data.modes import OCCUPIED
from repro.errors import SelectionError
from repro.selection.base import SelectionResult
from repro.selection.evaluate import cluster_mean_errors, evaluate_selection, reduced_model_errors
from repro.selection.gp import GaussianField, empirical_covariance, greedy_mutual_information
from repro.selection.placement import gp_selection, thermostat_selection
from repro.selection.random_sel import random_selection
from repro.selection.stratified import near_mean_selection, stratified_random_selection
from repro.sysid.evaluation import evaluate_model
from repro.sysid.identify import IdentificationOptions, identify
from tests.test_cluster import two_group_traces
from tests.test_cluster_baselines_quality import make_clustering, traces_dataset


@pytest.fixture
def grouped():
    """Dataset with two clean groups and a clustering that matches."""
    traces = two_group_traces(gap=3.0, n_ticks=1200)
    dataset = traces_dataset(traces)
    clustering = make_clustering(dataset, [0] * 5 + [1] * 5, 2)
    return dataset, clustering


class TestSelectionResult:
    def test_sensors_deduplicated_sorted(self):
        result = SelectionResult(strategy="x", assignment={0: (5, 3), 1: (3,)})
        assert result.sensors() == [3, 5]
        assert result.n_clusters == 2
        assert result.representatives_of(0) == (5, 3)
        with pytest.raises(SelectionError):
            result.representatives_of(9)

    def test_empty_cluster_rejected(self):
        with pytest.raises(SelectionError):
            SelectionResult(strategy="x", assignment={0: ()})


class TestStratified:
    def test_sms_picks_near_mean_sensor(self, grouped):
        dataset, clustering = grouped
        selection = near_mean_selection(clustering, dataset)
        assert selection.strategy == "SMS"
        assert selection.n_clusters == 2
        for cluster in range(2):
            (rep,) = selection.representatives_of(cluster)
            assert clustering.label_of(rep) == cluster

    def test_sms_beats_worst_member(self, grouped):
        """SMS's representative is at least as good a stand-in as the
        cluster's worst member."""
        dataset, clustering = grouped
        # Make sensor 5 (cluster 0) artificially offset.
        dataset.temperatures[:, 4] += 1.5
        selection = near_mean_selection(clustering, dataset)
        assert selection.representatives_of(0)[0] != 5

    def test_srs_respects_clusters(self, grouped):
        dataset, clustering = grouped
        for seed in range(5):
            selection = stratified_random_selection(clustering, seed=seed)
            for cluster in range(2):
                (rep,) = selection.representatives_of(cluster)
                assert clustering.label_of(rep) == cluster

    def test_srs_multiple_per_cluster_distinct(self, grouped):
        _, clustering = grouped
        selection = stratified_random_selection(clustering, seed=0, n_per_cluster=3)
        for cluster in range(2):
            reps = selection.representatives_of(cluster)
            assert len(set(reps)) == 3

    def test_srs_count_capped_at_cluster_size(self, grouped):
        _, clustering = grouped
        selection = stratified_random_selection(clustering, seed=0, n_per_cluster=99)
        assert len(selection.representatives_of(0)) == 5

    def test_n_per_cluster_validation(self, grouped):
        dataset, clustering = grouped
        with pytest.raises(SelectionError):
            near_mean_selection(clustering, dataset, n_per_cluster=0)


class TestRandomSelection:
    def test_ignores_cluster_boundaries_sometimes(self, grouped):
        """Across many draws, RS must sometimes hand a cluster a sensor
        from the other group — that is its defining failure mode."""
        _, clustering = grouped
        mismatched = 0
        for seed in range(30):
            selection = random_selection(clustering, seed=seed)
            for cluster in range(2):
                (rep,) = selection.representatives_of(cluster)
                if clustering.label_of(rep) != cluster:
                    mismatched += 1
        assert mismatched > 0

    def test_no_duplicate_draws(self, grouped):
        _, clustering = grouped
        selection = random_selection(clustering, seed=1, n_per_cluster=3)
        sensors = [s for reps in selection.assignment.values() for s in reps]
        assert len(sensors) == len(set(sensors)) == 6

    def test_too_many_requested(self, grouped):
        _, clustering = grouped
        with pytest.raises(SelectionError):
            random_selection(clustering, seed=1, n_per_cluster=6)


class TestGaussianProcess:
    def test_empirical_covariance_psd(self):
        traces = two_group_traces()
        cov = empirical_covariance(traces)
        eigenvalues = np.linalg.eigvalsh(cov)
        assert eigenvalues.min() >= 0.0

    def test_conditional_variance_decreases(self):
        cov = empirical_covariance(two_group_traces())
        field = GaussianField(cov)
        unconditioned = field.conditional_variance(0, [])
        conditioned = field.conditional_variance(0, [1, 2])
        assert conditioned <= unconditioned + 1e-9

    def test_greedy_mi_select_count(self):
        field = GaussianField(empirical_covariance(two_group_traces()))
        selected = greedy_mutual_information(field, 3)
        assert len(selected) == len(set(selected)) == 3

    def test_greedy_mi_validation(self):
        field = GaussianField(empirical_covariance(two_group_traces()))
        with pytest.raises(SelectionError):
            greedy_mutual_information(field, 99)

    def test_predict_interpolates(self):
        cov = empirical_covariance(two_group_traces())
        field = GaussianField(cov)
        # Observing a strongly correlated neighbour moves the posterior.
        posterior = field.predict([0], [1], np.array([1.0]))
        assert abs(posterior[0]) > 0.1


class TestPlacement:
    def test_gp_selection_assigns_all_clusters(self, grouped):
        dataset, clustering = grouped
        selection = gp_selection(clustering, dataset)
        assert selection.strategy == "GP"
        assert set(selection.assignment) == {0, 1}

    def test_thermostat_selection_requires_thermostats(self, grouped):
        dataset, clustering = grouped
        with pytest.raises(SelectionError):
            thermostat_selection(clustering, dataset)  # IDs 40/41 absent

    def test_thermostat_selection_real_dataset(self, month_dataset):
        from repro.cluster import cluster_sensors
        from repro.geometry.layout import THERMOSTAT_IDS

        train, _ = month_dataset.split_half_days(OCCUPIED)
        wireless = train.select_sensors(
            [s for s in train.sensor_ids if s not in THERMOSTAT_IDS]
        )
        clustering = cluster_sensors(wireless, method="correlation", k=2)
        selection = thermostat_selection(clustering, train)
        chosen = selection.sensors()
        assert set(chosen) <= set(THERMOSTAT_IDS)
        # With two thermostats and two clusters the matching is distinct.
        assert len(chosen) == 2


class TestEvaluation:
    def test_perfect_representative_zero_error(self, grouped):
        dataset, clustering = grouped
        # A cluster of identical sensors: any member is a perfect stand-in.
        dataset.temperatures[:, :5] = dataset.temperatures[:, [0]]
        selection = SelectionResult(strategy="x", assignment={0: (1,), 1: (6,)})
        errors = cluster_mean_errors(selection, clustering, dataset)
        cluster0 = errors[: dataset.n_samples]
        assert np.nanmax(cluster0) < 1e-9

    def test_cross_zone_representative_large_error(self, grouped):
        dataset, clustering = grouped
        good = SelectionResult(strategy="x", assignment={0: (1,), 1: (6,)})
        swapped = SelectionResult(strategy="x", assignment={0: (6,), 1: (1,)})
        good_p99 = evaluate_selection(good, clustering, dataset, mode=None)
        swapped_p99 = evaluate_selection(swapped, clustering, dataset, mode=None)
        assert swapped_p99 > good_p99 + 1.0

    def test_cluster_count_mismatch(self, grouped):
        dataset, clustering = grouped
        selection = SelectionResult(strategy="x", assignment={0: (1,)})
        with pytest.raises(SelectionError):
            cluster_mean_errors(selection, clustering, dataset)

    def test_averaging_reduces_error(self, grouped):
        dataset, clustering = grouped
        one = SelectionResult(strategy="x", assignment={0: (1,), 1: (6,)})
        many = SelectionResult(strategy="x", assignment={0: (1, 2, 3), 1: (6, 7, 8)})
        assert evaluate_selection(many, clustering, dataset, mode=None) <= evaluate_selection(
            one, clustering, dataset, mode=None
        )

    def test_reduced_model_errors_real_dataset(self, month_dataset):
        from repro.cluster import cluster_sensors
        from repro.geometry.layout import THERMOSTAT_IDS

        wireless = month_dataset.select_sensors(
            [s for s in month_dataset.sensor_ids if s not in THERMOSTAT_IDS]
        )
        train, valid = wireless.split_half_days(OCCUPIED)
        clustering = cluster_sensors(train, method="correlation", k=2)
        selection = near_mean_selection(clustering, train)
        errors = reduced_model_errors(
            selection, clustering, train, valid, order=2, mode=OCCUPIED, ridge=1.0
        )
        assert errors.size > 100
        assert np.isfinite(errors).all()
        assert np.percentile(errors, 99) < 5.0


def _per_day_reduced_model_errors(selection, clustering, train, validate, ridge):
    """Reference: the cluster mean recomputed for every validation day."""
    selected = selection.sensors()
    model = identify(
        train.select_sensors(selected),
        IdentificationOptions(order=2, ridge=ridge),
        mode=OCCUPIED,
    )
    result = evaluate_model(
        model, validate.select_sensors(selected), mode=OCCUPIED, keep_traces=True
    )
    column_of = {sid: i for i, sid in enumerate(selected)}
    pooled = []
    for start, predicted, _measured in result.traces.values():
        for cluster in range(clustering.k):
            reps = selection.representatives_of(cluster)
            rep_prediction = predicted[:, [column_of[sid] for sid in reps]].mean(axis=1)
            mean_trace = cluster_mean_trace(validate, clustering.members(cluster))
            err = np.abs(rep_prediction - mean_trace[start : start + predicted.shape[0]])
            pooled.append(err[np.isfinite(err)])
    return np.concatenate(pooled)


class TestReducedModelErrorsHoist:
    """The cluster mean is computed once per cluster, not once per day."""

    @pytest.fixture(scope="class")
    def split(self, month_dataset):
        from repro.geometry.layout import THERMOSTAT_IDS

        wireless = month_dataset.select_sensors(
            [s for s in month_dataset.sensor_ids if s not in THERMOSTAT_IDS]
        )
        return wireless.split_half_days(OCCUPIED)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("strategy", ["SMS", "SRS"])
    def test_matches_per_day_reference_with_k_mean_traces(
        self, split, k, strategy, monkeypatch
    ):
        from repro.cluster import cluster_sensors
        from repro.selection import evaluate as evaluate_mod

        train, valid = split
        clustering = cluster_sensors(train, method="correlation", k=k)
        if strategy == "SMS":
            selection = near_mean_selection(clustering, train)
        else:
            selection = stratified_random_selection(clustering, seed=k)
        expected = _per_day_reduced_model_errors(
            selection, clustering, train, valid, ridge=1.0
        )
        calls = []

        def _counting(dataset, members):
            calls.append(tuple(members))
            return cluster_mean_trace(dataset, members)

        monkeypatch.setattr(evaluate_mod, "cluster_mean_trace", _counting)
        errors = reduced_model_errors(
            selection, clustering, train, valid, order=2, mode=OCCUPIED, ridge=1.0
        )
        assert np.array_equal(errors, expected)
        assert len(calls) == clustering.k
