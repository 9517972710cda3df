"""Frozen reference oracle for the simulator parity tests.

The production simulator generates traces through the staged step
kernels (:mod:`repro.simulation.kernels`), the chunked driver and the
batched fleet pass.  This module keeps the original monolithic per-step
loop they were all refactored from, unchanged, as the numerical ground
truth the parity tests compare them against with ``np.array_equal``.
It is test code: nothing under ``src/`` imports it.

* :func:`euler_step` — fixed-step explicit Euler over the zonal network;
* :class:`HeldInputDerivative` — the zero-order-hold derivative adapter;
* :func:`run_loop` — the whole closed-loop simulation of one
  :class:`~repro.simulation.simulator.AuditoriumSimulator`, consuming
  its RNG streams in the same order as the kernel engine.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro import rng as rng_mod
from repro.contracts import ensure_finite, ensure_unit_range
from repro.data.timeseries import TimeAxis
from repro.errors import SimulationError
from repro.simulation.humidity import MoistureBalance, MoistureConfig
from repro.simulation.integrator import substep_count
from repro.simulation.simulator import (
    CO2_PER_PERSON,
    FRESH_AIR_FRACTION,
    OUTDOOR_CO2_PPM,
    SimulationResult,
    _tap_weight_matrix,
)

__all__ = [
    "euler_step",
    "HeldInputDerivative",
    "run_loop",
]

DerivativeFn = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


def euler_step(
    derivative: DerivativeFn,
    zone_temps: np.ndarray,
    mass_temps: np.ndarray,
    dt: float,
    substeps: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance ``(zone_temps, mass_temps)`` by ``dt`` seconds.

    Inputs (flows, heats, ambient) are held constant across the step —
    they vary on minute scales while sub-steps are tens of seconds, so
    the zero-order hold is accurate.  Raises if the state goes
    non-finite, which indicates an unstable configuration rather than a
    numerical hiccup worth hiding.
    """
    if substeps < 1:
        raise SimulationError("substeps must be at least 1")
    h = dt / substeps
    z = np.array(zone_temps, dtype=float, copy=True)
    m = np.array(mass_temps, dtype=float, copy=True)
    for _ in range(substeps):
        dz, dm = derivative(z, m)
        z += h * dz
        m += h * dm
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(m))):
        raise SimulationError(
            "thermal state diverged; the configuration is outside the stable regime"
        )
    return z, m


class HeldInputDerivative:
    """Zero-order-hold adapter from the RC network to the integrator.

    Replaces the per-step ``derivative`` closure of the original loop:
    allocated once, its held inputs are re-pointed each step before the
    Euler sub-step loop runs.  Calling it is numerically identical to
    calling the closure it replaces.
    """

    __slots__ = ("network", "flow_kgs", "supply_temp_c", "heat_w", "ambient_c")

    def __init__(self, network) -> None:
        self.network = network
        self.flow_kgs: Optional[np.ndarray] = None
        self.supply_temp_c: Optional[np.ndarray] = None
        self.heat_w: Optional[np.ndarray] = None
        self.ambient_c: float = 0.0

    def __call__(self, zone_temps: np.ndarray, mass_temps: np.ndarray):
        """Network derivatives at the currently held inputs."""
        return self.network.derivatives(
            zone_temps, mass_temps, self.flow_kgs, self.supply_temp_c, self.heat_w, self.ambient_c
        )


def run_loop(simulator) -> SimulationResult:
    """Reference implementation: the original monolithic per-step loop.

    Runs ``simulator`` (an :class:`AuditoriumSimulator`) end to end and
    is the numerical ground truth the kernel engine is tested against.
    The per-step ``derivative`` closure and the
    Python-level front-diffuser ``sum``/``np.mean`` reductions are
    hoisted out of the loop; every remaining operation — and the
    whole RNG draw order — is unchanged.
    """
    cfg = simulator.config
    n = cfg.n_steps
    axis = TimeAxis(epoch=cfg.start, period=cfg.dt, count=n)
    seconds = axis.seconds()
    hours = axis.hours_of_day()

    # Exogenous trajectories (precomputed, vectorized per event/day).
    ambient = simulator.weather.trajectory(cfg.start, seconds)
    occupancy_total, zone_occupancy = simulator.occupancy.trajectory(cfg.start, seconds)
    lighting = simulator.lighting.trajectory(cfg.start, seconds)

    # Thermostat measurement noise for the control loop.
    noise_gen = rng_mod.derive(cfg.seed, "thermostat-control-noise")
    tstat_noise = cfg.thermostat_noise * noise_gen.standard_normal((n, 2))
    tstat_matrix = _tap_weight_matrix(
        [
            simulator.grid.interpolation_weights(pos)
            for pos in simulator._thermostat_positions.values()
        ],
        simulator.grid.n_zones,
    )

    # Supervisory-controller sensor taps (if any): interpolation
    # weights for its sensor positions plus independent reading noise.
    controller_matrix = np.zeros((0, simulator.grid.n_zones))
    controller_noise = np.zeros((n, 0))
    if simulator.supervisory_controller is not None:
        positions = list(simulator.supervisory_controller.positions())
        controller_matrix = _tap_weight_matrix(
            [simulator.grid.interpolation_weights(p) for p in positions], simulator.grid.n_zones
        )
        ctrl_gen = rng_mod.derive(cfg.seed, "controller-sensor-noise")
        controller_noise = cfg.thermostat_noise * ctrl_gen.standard_normal(
            (n, len(positions))
        )

    # Diffuser wiring: which VAVs feed each outlet.
    diffusers = simulator.auditorium.diffusers
    if not diffusers:
        raise SimulationError("auditorium has no supply diffusers")
    diffuser_idx = [
        np.array([v - 1 for v in diffuser.vav_ids], dtype=np.intp) for diffuser in diffusers
    ]
    front_idx = diffuser_idx[0]

    simulator.plant.reset()
    zone_temps, mass_temps = simulator.network.initial_state(cfg.initial_temp)
    substeps = substep_count(cfg.dt, simulator.network.max_stable_dt())

    out_zone = np.empty((n, simulator.grid.n_zones))
    out_mass = np.empty((n, simulator.grid.n_zones))
    out_flows = np.empty((n, simulator.plant.n_vavs))
    out_vav_temps = np.empty((n, simulator.plant.n_vavs))
    out_co2 = np.empty(n)
    out_humidity = np.empty(n)
    out_tstat = np.empty((n, 2))
    out_tstat_true = np.empty((n, 2))

    moisture = MoistureBalance(
        simulator.auditorium.volume, MoistureConfig(), initial_temp_c=cfg.initial_temp
    )
    co2 = OUTDOOR_CO2_PPM
    room_volume = simulator.auditorium.volume
    front_diffuser = diffusers[0]
    vav_max_flow = simulator.plant.config.vav.max_flow
    front_full_flow = vav_max_flow * len(front_diffuser.vav_ids)
    # Hoisted: VAV state as arrays (refreshed from plant.step's own
    # return values) and one reusable zero-order-hold derivative,
    # replacing the per-step object reductions and closure.
    flows_now = simulator.plant.flows()
    discharge_now = simulator.plant.discharge_temps()
    held = HeldInputDerivative(simulator.network)

    for k in range(n):
        # 1. Thermostats sample the true field.  They hang inside
        # the front diffuser's plume, so their reading mixes in a
        # flow-proportional share of the discharge air.
        tstat = tstat_matrix @ zone_temps
        front_flow = float(flows_now[front_idx].sum())
        front_discharge = float(discharge_now[front_idx].mean())
        plume = cfg.thermostat_draft * min(front_flow / front_full_flow, 1.0)
        tstat = (1.0 - plume) * tstat + plume * front_discharge
        out_tstat_true[k] = tstat
        tstat = tstat + tstat_noise[k]
        out_tstat[k] = tstat

        # 2. Plant reacts and the VAV boxes evolve over this step.
        # The return duct draws well-mixed room air, so the
        # unconditioned overnight discharge rides the zone mean.
        flow_commands = None
        if simulator.supervisory_controller is not None:
            readings = controller_matrix @ zone_temps + controller_noise[k]
            flow_commands = simulator.supervisory_controller.decide(
                k, float(hours[k]), readings, cfg.dt
            )
        flows, discharge = simulator.plant.step(
            hours[k],
            tstat,
            cfg.dt,
            return_temp_c=float(zone_temps.mean()),
            flow_commands=flow_commands,
        )
        out_flows[k] = flows
        out_vav_temps[k] = discharge
        flows_now = flows
        discharge_now = discharge

        # 3. Aggregate VAVs onto their diffusers.
        diffuser_flows = np.zeros(len(diffusers))
        diffuser_temps = np.zeros(len(diffusers))
        for d, ids in enumerate(diffuser_idx):
            f = flows[ids].sum()
            diffuser_flows[d] = f
            if f > 1e-12:
                diffuser_temps[d] = float(np.dot(flows[ids], discharge[ids]) / f)
            elif ids.size:
                diffuser_temps[d] = discharge[ids].mean()
            else:
                # No feeding VAVs: zero supply; keep the temperature
                # finite so it cannot poison the zone projection.
                diffuser_temps[d] = 0.0

        zone_flow, zone_supply_temp_c = simulator.network.supply_to_zones(diffuser_flows, diffuser_temps)
        zone_heat_w = simulator.network.occupant_zone_heat(zone_occupancy[k])
        zone_heat_w += simulator.network.lighting_zone_heat(lighting[k], simulator.lighting.heat_watts)

        # 4. Integrate the thermal network over the step.
        ambient_k = float(ambient[k])
        held.flow_kgs = zone_flow
        held.supply_temp_c = zone_supply_temp_c
        held.heat_w = zone_heat_w
        held.ambient_c = ambient_k

        out_zone[k] = zone_temps
        out_mass[k] = mass_temps
        zone_temps, mass_temps = euler_step(held, zone_temps, mass_temps, cfg.dt, substeps)

        # 5. Well-mixed CO₂ balance (fresh-air fraction of supply flow).
        fresh_flow = FRESH_AIR_FRACTION * diffuser_flows.sum()
        generation_ppm = occupancy_total[k] * CO2_PER_PERSON / room_volume * 1e6
        exchange = fresh_flow / room_volume
        co2 += cfg.dt * (generation_ppm - exchange * (co2 - OUTDOOR_CO2_PPM))
        out_co2[k] = co2

        # 6. Moisture balance (cooling coil dehumidifies).
        total_flow = float(diffuser_flows.sum())
        if total_flow > 1e-12:
            mean_discharge = float(np.dot(diffuser_flows, diffuser_temps) / total_flow)
        elif diffuser_temps.size:
            mean_discharge = float(diffuser_temps.mean())
        else:
            mean_discharge = 0.0
        out_humidity[k] = moisture.step(
            cfg.dt,
            occupants=float(occupancy_total[k]),
            supply_flow_m3s=total_flow,
            fresh_fraction=FRESH_AIR_FRACTION,
            discharge_temp_c=mean_discharge,
            ambient_temp_c=ambient_k,
        )

    # Integrator-health contracts: a blown-up Euler step shows here
    # first, as NaN/Inf or as physically impossible room temperatures.
    ensure_finite(out_zone, "simulated zone temperatures")
    ensure_finite(out_mass, "simulated mass temperatures")
    ensure_unit_range(out_zone, -40.0, 70.0, "simulated zone temperatures (°C)")

    return SimulationResult(
        axis=axis,
        zone_temps=out_zone,
        mass_temps=out_mass,
        vav_flows=out_flows,
        vav_temps=out_vav_temps,
        occupancy=occupancy_total,
        zone_occupancy=zone_occupancy,
        lighting=lighting,
        ambient=ambient,
        co2=out_co2,
        humidity_ratio=out_humidity,
        thermostat_readings=out_tstat,
        thermostat_true=out_tstat_true,
        auditorium=simulator.auditorium,
        grid=simulator.grid,
        config=cfg,
        calendar=simulator.calendar,
    )
