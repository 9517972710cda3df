"""Tests for the zonal RC thermal network and its integrator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.geometry import ZoneGrid, default_auditorium
from repro.simulation.integrator import substep_count
from repro.simulation.rc_network import AIR_CP, AIR_DENSITY, RCNetwork, RCNetworkConfig
from tests.reference_loop import euler_step


@pytest.fixture
def network():
    auditorium = default_auditorium()
    grid = ZoneGrid(auditorium, nx=6, ny=5)
    return RCNetwork(auditorium, grid)


def no_hvac(network):
    """Zero-flow supply vectors."""
    flow = np.zeros(network.n_zones)
    temp = np.full(network.n_zones, 20.0)
    return flow, temp


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RCNetworkConfig(zone_capacitance=0.0)
        with pytest.raises(ConfigurationError):
            RCNetworkConfig(occupant_heat=-1.0)

    def test_grid_auditorium_consistency(self):
        a1, a2 = default_auditorium(), default_auditorium()
        grid = ZoneGrid(a1, nx=3, ny=3)
        with pytest.raises(ConfigurationError):
            RCNetwork(a2, grid)


class TestPhysics:
    def test_equilibrium_is_stationary(self, network):
        """With everything at the core temperature and no forcing, the
        state does not move."""
        config = network.config
        t = np.full(network.n_zones, config.ground_temp)
        m = np.full(network.n_zones, config.ground_temp)
        flow, supply = no_hvac(network)
        dz, dm = network.derivatives(t, m, flow, supply, np.zeros(network.n_zones), config.ground_temp)
        np.testing.assert_allclose(dz, 0.0, atol=1e-12)
        np.testing.assert_allclose(dm, 0.0, atol=1e-12)

    def test_energy_conservation_isolated(self):
        """With no exterior couplings, total heat content is conserved
        by the continuous dynamics."""
        auditorium = default_auditorium()
        grid = ZoneGrid(auditorium, nx=4, ny=4)
        config = RCNetworkConfig(
            exterior_conductance=0.0, ground_conductance=0.0, infiltration_conductance=0.0
        )
        network = RCNetwork(auditorium, grid, config)
        gen = np.random.default_rng(0)
        t = 20.0 + gen.random(network.n_zones)
        m = 20.0 + gen.random(network.n_zones)
        flow = np.zeros(network.n_zones)
        supply = np.full(network.n_zones, 20.0)
        dz, dm = network.derivatives(t, m, flow, supply, np.zeros(network.n_zones), 0.0)
        energy_rate = config.zone_capacitance * dz.sum() + config.mass_capacitance * dm.sum()
        assert energy_rate == pytest.approx(0.0, abs=1e-8)

    def test_heat_input_raises_temperature(self, network):
        t, m = network.initial_state(20.0)
        flow, supply = no_hvac(network)
        heat = np.zeros(network.n_zones)
        heat[10] = 1000.0
        dz, _ = network.derivatives(t, m, flow, supply, heat, 20.0)
        assert dz[10] > 0
        assert dz[(np.arange(network.n_zones) != 10)].max() <= 1e-15

    def test_cold_supply_cools(self, network):
        t, m = network.initial_state(22.0)
        flow = np.zeros(network.n_zones)
        flow[0] = 0.5 * AIR_DENSITY
        supply = np.full(network.n_zones, 13.0)
        dz, _ = network.derivatives(t, m, flow, supply, np.zeros(network.n_zones), 20.0)
        assert dz[0] < 0

    def test_mixing_homogenizes(self, network):
        t, m = network.initial_state(20.0)
        t[0] = 25.0
        flow, supply = no_hvac(network)
        dz, _ = network.derivatives(t, m, flow, supply, np.zeros(network.n_zones), 20.0)
        assert dz[0] < 0
        for neighbor in network.grid.neighbors(0):
            assert dz[neighbor] > 0

    def test_supply_to_zones_mass_conservation(self, network):
        flows = np.array([1.0, 0.5])
        temps = np.array([13.0, 15.0])
        zone_flow, zone_temp = network.supply_to_zones(flows, temps)
        assert zone_flow.sum() == pytest.approx(AIR_DENSITY * 1.5)
        assert zone_temp.min() >= 13.0 - 1e-9
        assert zone_temp.max() <= 15.0 + 1e-9

    def test_supply_shape_checked(self, network):
        with pytest.raises(SimulationError):
            network.supply_to_zones(np.array([1.0]), np.array([13.0]))

    def test_occupant_heat_shape_checked(self, network):
        with pytest.raises(SimulationError):
            network.occupant_zone_heat(np.zeros(3))

    def test_lighting_heat_spread(self, network):
        heat = network.lighting_zone_heat(1.0, 2000.0)
        assert heat.sum() == pytest.approx(2000.0)
        assert np.allclose(heat, heat[0])


class TestIntegrator:
    def test_substep_count(self):
        assert substep_count(60.0, 1000.0) == 1
        assert substep_count(60.0, 10.0) == 8  # 60 / (0.8*10) = 7.5 -> 8
        with pytest.raises(SimulationError):
            substep_count(0.0, 10.0)

    def test_max_stable_dt_positive(self, network):
        assert network.max_stable_dt() > 10.0

    def test_euler_step_converges_to_equilibrium(self, network):
        config = network.config
        t, m = network.initial_state(25.0)
        flow, supply = no_hvac(network)
        heat = np.zeros(network.n_zones)

        def derivative(z, mm):
            return network.derivatives(z, mm, flow, supply, heat, config.ground_temp)

        substeps = substep_count(300.0, network.max_stable_dt())
        for _ in range(2000):
            t, m = euler_step(derivative, t, m, dt=300.0, substeps=substeps)
        np.testing.assert_allclose(t, config.ground_temp, atol=0.1)

    def test_euler_step_detects_divergence(self, network):
        t, m = network.initial_state(20.0)

        def exploding(z, mm):
            with np.errstate(over="ignore"):
                return z * 1e308, mm  # overflows to inf within one step

        with pytest.raises(SimulationError):
            euler_step(exploding, t, m, dt=60.0, substeps=1)

    def test_euler_step_does_not_mutate_inputs(self, network):
        t, m = network.initial_state(20.0)
        t0, m0 = t.copy(), m.copy()
        flow, supply = no_hvac(network)

        def derivative(z, mm):
            return network.derivatives(z, mm, flow, supply, np.zeros(network.n_zones), 20.0)

        euler_step(derivative, t, m, dt=60.0, substeps=2)
        np.testing.assert_array_equal(t, t0)
        np.testing.assert_array_equal(m, m0)
