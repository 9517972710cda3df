"""Tests for residual diagnostics."""

import numpy as np
import pytest

from repro.data.modes import OCCUPIED
from repro.errors import ConfigurationError, IdentificationError
from repro.sysid.identify import IdentificationOptions, identify
from repro.sysid.residuals import (
    autocorrelation,
    input_contributions,
    ljung_box,
    one_step_residuals,
    residual_report,
)
from tests.conftest import make_linear_dataset


class TestAutocorrelation:
    def test_white_noise_small_acf(self):
        series = np.random.default_rng(0).standard_normal(5000)
        acf = autocorrelation(series, 10)
        assert np.abs(acf).max() < 0.05

    def test_ar1_positive_acf(self):
        gen = np.random.default_rng(1)
        series = np.zeros(5000)
        for i in range(1, 5000):
            series[i] = 0.8 * series[i - 1] + gen.standard_normal()
        acf = autocorrelation(series, 3)
        assert acf[0] > 0.7
        assert acf[0] > acf[1] > acf[2] > 0.0

    def test_too_short_raises(self):
        with pytest.raises(IdentificationError):
            autocorrelation(np.arange(5.0), 10)

    def test_constant_series_raises(self):
        with pytest.raises(IdentificationError):
            autocorrelation(np.ones(100), 5)

    @pytest.mark.parametrize("max_lag", [0, -3])
    def test_non_positive_lag_raises(self, max_lag):
        series = np.random.default_rng(4).standard_normal(200)
        with pytest.raises(ConfigurationError, match="max_lag"):
            autocorrelation(series, max_lag)


class TestLjungBox:
    def test_white_noise_passes(self):
        series = np.random.default_rng(2).standard_normal(2000)
        result = ljung_box(series)
        assert result.is_white
        assert result.p_value > 0.05

    def test_correlated_series_fails(self):
        gen = np.random.default_rng(3)
        series = np.zeros(2000)
        for i in range(1, 2000):
            series[i] = 0.7 * series[i - 1] + gen.standard_normal()
        result = ljung_box(series)
        assert not result.is_white
        assert result.p_value < 1e-6

    @pytest.mark.parametrize("lags", [0, -3])
    def test_non_positive_lags_raise(self, lags):
        series = np.random.default_rng(4).standard_normal(200)
        with pytest.raises(ConfigurationError, match="lags"):
            ljung_box(series, lags=lags)


class TestResiduals:
    def test_perfect_model_zero_residuals(self):
        dataset = make_linear_dataset(noise=0.0)
        model = identify(dataset, IdentificationOptions(order=1))
        residuals = one_step_residuals(model, dataset)
        assert np.abs(residuals).max() < 1e-8

    def test_process_noise_leaves_white_residuals(self):
        """With i.i.d. *process* noise the correct ARX structure leaves
        white residuals.  (Pure *measurement* noise would not — the
        one-step residuals of an output-error system are MA(1), which is
        exactly what the whiteness test should flag.)"""
        base = make_linear_dataset(noise=0.0, n_days=8)
        gen = np.random.default_rng(11)
        temps = base.temperatures.copy()
        for k in range(temps.shape[0] - 1):
            temps[k + 1] = (
                base.true_A @ temps[k]
                + base.true_B @ base.inputs[k]
                + 0.05 * gen.standard_normal(temps.shape[1])
            )
        base.temperatures[:] = temps
        model = identify(base, IdentificationOptions(order=1))
        report = residual_report(model, base)
        assert report.white_fraction() >= 2 / 3

    def test_measurement_noise_colours_residuals(self):
        """The MA(1) structure of output-error residuals is detected."""
        dataset = make_linear_dataset(noise=0.05, n_days=8)
        model = identify(dataset, IdentificationOptions(order=1))
        report = residual_report(model, dataset)
        assert report.white_fraction() < 1.0

    def test_wrong_structure_colours_residuals(self, month_dataset):
        """A first-order model on the real (high-order) plant leaves
        structure in the residuals."""
        train, _ = month_dataset.split_half_days(OCCUPIED)
        model = identify(train, IdentificationOptions(order=1), mode=OCCUPIED)
        report = residual_report(model, train, mode=OCCUPIED)
        assert report.white_fraction() < 0.5

    def test_report_summaries(self):
        dataset = make_linear_dataset(noise=0.05, n_days=8)
        model = identify(dataset, IdentificationOptions(order=1))
        report = residual_report(model, dataset)
        assert report.rms_per_sensor().shape == (dataset.n_sensors,)
        assert report.worst_sensor() in dataset.sensor_ids


class TestInputContributions:
    def test_channels_reported(self):
        dataset = make_linear_dataset(noise=0.0)
        model = identify(dataset, IdentificationOptions(order=1))
        contributions = input_contributions(model, dataset)
        assert set(contributions) == set(dataset.channels.names)
        assert all(v >= 0 or np.isnan(v) for v in contributions.values())

    def test_real_model_flows_matter(self, month_dataset):
        train, _ = month_dataset.split_half_days(OCCUPIED)
        model = identify(train, IdentificationOptions(order=2), mode=OCCUPIED)
        contributions = input_contributions(model, train, mode=OCCUPIED)
        flow_total = sum(contributions[f"vav{i}_flow"] for i in range(1, 5))
        assert flow_total > 0.005  # the HVAC visibly drives the room
