"""Tests for clustering stability and the physics validation utilities."""

import numpy as np
import pytest

from repro.cluster.stability import adjusted_rand_index, bootstrap_stability
from repro.errors import ClusteringError, SimulationError
from repro.geometry import ZoneGrid, default_auditorium
from repro.simulation.rc_network import RCNetwork
from repro.simulation.validation import energy_audit, steady_state, time_constants


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_orthogonal_partitions_near_zero(self):
        gen = np.random.default_rng(0)
        a = gen.integers(0, 3, size=600)
        b = gen.integers(0, 3, size=600)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_partial_agreement_between(self):
        a = [0, 0, 0, 1, 1, 1]
        b = [0, 0, 1, 1, 1, 1]
        score = adjusted_rand_index(a, b)
        assert 0.0 < score < 1.0

    def test_validation(self):
        with pytest.raises(ClusteringError):
            adjusted_rand_index([0, 1], [0])
        with pytest.raises(ClusteringError):
            adjusted_rand_index([0], [0])


class TestBootstrapStability:
    def test_correlation_more_stable_than_euclidean(self, month_dataset):
        """The paper's consistency claim, quantified."""
        from repro.geometry.layout import THERMOSTAT_IDS

        wireless = month_dataset.select_sensors(
            [s for s in month_dataset.sensor_ids if s not in THERMOSTAT_IDS]
        )
        correlation = bootstrap_stability(wireless, "correlation", k=2, n_bootstrap=5, seed=1)
        euclidean = bootstrap_stability(wireless, "euclidean", k=2, n_bootstrap=5, seed=1)
        assert correlation.mean_ari > 0.8
        assert correlation.mean_ari >= euclidean.mean_ari

    def test_parameters_validated(self, month_dataset):
        with pytest.raises(ClusteringError):
            bootstrap_stability(month_dataset, "correlation", day_fraction=0.0)
        with pytest.raises(ClusteringError):
            bootstrap_stability(month_dataset, "correlation", n_bootstrap=1)


@pytest.fixture
def network():
    auditorium = default_auditorium()
    return RCNetwork(auditorium, ZoneGrid(auditorium, nx=4, ny=4))


class TestSteadyState:
    def test_unforced_equilibrium_at_core_temp(self, network):
        n = network.n_zones
        zones, masses = steady_state(
            network,
            zone_mass_flow_kgs=np.zeros(n),
            zone_supply_temp_c=np.full(n, 20.0),
            zone_heat_w=np.zeros(n),
            ambient_temp_c=network.config.ground_temp,
        )
        np.testing.assert_allclose(zones, network.config.ground_temp, atol=1e-8)
        np.testing.assert_allclose(masses, network.config.ground_temp, atol=1e-8)

    def test_heat_raises_equilibrium(self, network):
        n = network.n_zones
        heat = np.full(n, 200.0)
        zones, _ = steady_state(
            network,
            zone_mass_flow_kgs=np.zeros(n),
            zone_supply_temp_c=np.full(n, 20.0),
            zone_heat_w=heat,
            ambient_temp_c=network.config.ground_temp,
        )
        assert zones.min() > network.config.ground_temp + 0.5

    def test_matches_long_simulation(self, network):
        """The linear solve agrees with integrating to equilibrium."""
        from repro.simulation.integrator import substep_count
        from tests.reference_loop import euler_step

        n = network.n_zones
        flow = np.zeros(n)
        supply = np.full(n, 20.0)
        heat = np.full(n, 100.0)
        ambient = 10.0
        target_z, target_m = steady_state(network, flow, supply, heat, ambient)
        z, m = network.initial_state(20.0)
        substeps = substep_count(600.0, network.max_stable_dt())

        def derivative(zz, mm):
            return network.derivatives(zz, mm, flow, supply, heat, ambient)

        for _ in range(5000):
            z, m = euler_step(derivative, z, m, dt=600.0, substeps=substeps)
        np.testing.assert_allclose(z, target_z, atol=0.02)
        np.testing.assert_allclose(m, target_m, atol=0.02)


class TestTimeConstants:
    def test_two_time_scale_structure(self, network):
        taus = time_constants(network)
        assert taus.min() < 600.0  # fast air modes (minutes)
        assert taus.max() > 3600.0  # slow envelope modes (hours)

    def test_supply_flow_speeds_up_air(self, network):
        slow = time_constants(network).min()
        fast = time_constants(network, zone_mass_flow_kgs=np.full(network.n_zones, 0.2)).min()
        assert fast < slow


class TestEnergyAudit:
    def test_integrator_energy_error_small(self, week_output):
        grid = week_output.simulation.grid
        network = RCNetwork(week_output.simulation.auditorium, grid)
        audit = energy_audit(week_output.simulation, network)
        assert audit.relative_residual < 0.05

    def test_short_run_rejected(self, week_output):
        import dataclasses

        short = dataclasses.replace(
            week_output.simulation,
            axis=week_output.simulation.axis.subaxis(0, 1),
            zone_temps=week_output.simulation.zone_temps[:1],
            mass_temps=week_output.simulation.mass_temps[:1],
            vav_flows=week_output.simulation.vav_flows[:1],
            vav_temps=week_output.simulation.vav_temps[:1],
            occupancy=week_output.simulation.occupancy[:1],
            zone_occupancy=week_output.simulation.zone_occupancy[:1],
            lighting=week_output.simulation.lighting[:1],
            ambient=week_output.simulation.ambient[:1],
            co2=week_output.simulation.co2[:1],
            humidity_ratio=week_output.simulation.humidity_ratio[:1],
            thermostat_readings=week_output.simulation.thermostat_readings[:1],
            thermostat_true=week_output.simulation.thermostat_true[:1],
        )
        network = RCNetwork(week_output.simulation.auditorium, week_output.simulation.grid)
        with pytest.raises(SimulationError):
            energy_audit(short, network)
