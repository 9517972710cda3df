"""Staged step-kernel engine for the auditorium simulator.

The monolithic per-step loop in :meth:`AuditoriumSimulator.run` is the
Amdahl bound on cold runs (see ``docs/performance.md``): every step paid
for a fresh ``derivative`` closure, Python-level ``sum``/``np.mean``
reductions over VAV objects, per-VAV scalar PI updates and a
``check_shapes`` signature bind.  This module restructures that loop as

* a :class:`KernelPlan` — every loop-invariant quantity (exogenous
  trajectories, control noise, tap/gather matrices, clipped setpoints,
  lag coefficients) precomputed once,
* a :class:`SimulationState` — the mutable cross-step state threaded
  from chunk to chunk, and
* an ordered list of small kernels (:class:`ThermostatTap`,
  :class:`PlantStep`, :class:`DiffuserMix`, :class:`ThermalIntegrate`,
  :class:`CO2Balance`, :class:`MoistureStep`) each writing into the
  preallocated buffers of a :class:`SimulationChunk`.

The kernels are **bit-identical** to the reference loop (kept as a
test oracle in ``tests/reference_loop.py``): the seeded RNG
draw order is unchanged (all noise is drawn up front, exactly as
before) and every per-step float operation keeps its order and operand
types.  Vectorizing the per-VAV PI arithmetic is safe because numpy's
elementwise ufuncs apply the same IEEE operation per element, and the
``occupied``/override branches are global (the schedule and override
vector apply to all VAVs at once).  Gather reductions over a diffuser's
VAVs stay explicit two-element sums, matching the sequential order of
the original ``sum(...)`` / ``np.mean([...])`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError

__all__ = [
    "KernelPlan",
    "SimulationState",
    "SimulationChunk",
    "ThermostatTap",
    "PlantStep",
    "DiffuserMix",
    "ThermalIntegrate",
    "CO2Balance",
    "MoistureStep",
    "build_kernels",
]


@dataclass
class KernelPlan:
    """Loop-invariant precompute shared by every kernel.

    Built once per simulation run (from the simulator's models, in the
    exact order the original loop consumed its RNG streams) and treated
    as read-only by the kernels.
    """

    n_steps: int
    dt: float
    n_zones: int
    n_vavs: int
    #: Hour-of-day per step (N,) and the schedule evaluated on it (N,).
    hours: np.ndarray
    occupied: np.ndarray
    #: Exogenous trajectories, full horizon.
    ambient: np.ndarray
    occupancy_total: np.ndarray
    zone_occupancy: np.ndarray
    lighting: np.ndarray
    #: (N, n_zones) occupant + lighting heat, precombined.
    zone_heat_w: np.ndarray
    #: Thermostat taps: (2, n_zones) weights and (N, 2) control noise.
    tstat_matrix: np.ndarray
    tstat_noise: np.ndarray
    #: Supervisory controller taps ((0, n_zones) when absent).
    controller_matrix: np.ndarray
    controller_noise: np.ndarray
    supervisory_controller: object
    #: Diffuser gather indices (one int array of VAV rows per diffuser).
    diffuser_idx: List[np.ndarray]
    front_idx: np.ndarray
    front_full_flow: float
    thermostat_draft: float
    #: Plant/PI constants.
    blend: np.ndarray
    setpoint: float
    kp: float
    ki: float
    integrator_decay: float
    integrator_limit: float
    standby_flow_cmd: float
    #: VAV box constants (setpoint clips and exact-discretization lags).
    vav_min_flow: float
    vav_max_flow: float
    vav_flow_span: float
    cold_deck_temp: float
    reheat_max_temp: float
    alpha_flow: float
    alpha_temp: float
    #: Thermal network + integrator schedule.
    network: object = field(repr=False, default=None)
    substeps: int = 1
    substep_h: float = 0.0
    #: Room-level balances.
    room_volume: float = 0.0


@dataclass
class SimulationState:
    """Mutable cross-step state threaded through the kernel pipeline.

    Fields in the first group persist across steps (and across chunk
    boundaries); the scratch group is written by earlier kernels of a
    step and read by later ones.
    """

    zone_temps: np.ndarray
    mass_temps: np.ndarray
    vav_flows: np.ndarray
    vav_discharge: np.ndarray
    pi_integrators: np.ndarray
    co2_ppm: float
    moisture: object
    # -- per-step scratch --
    tstat_reading: Optional[np.ndarray] = None
    diffuser_flows: Optional[np.ndarray] = None
    diffuser_temps: Optional[np.ndarray] = None
    zone_flow_kgs: Optional[np.ndarray] = None
    zone_supply_temp_c: Optional[np.ndarray] = None
    zone_heat_w: Optional[np.ndarray] = None
    ambient_c: float = 0.0


@dataclass
class SimulationChunk:
    """One contiguous slab of simulated trajectory, steps ``start:stop``.

    Self-contained: carries both the integrated outputs and the
    matching slices of the exogenous inputs, so a sequence of chunks
    concatenates back into a full :class:`SimulationResult` without
    re-running any model (this is what the artifact cache stores).
    """

    index: int
    start: int
    stop: int
    zone_temps: np.ndarray
    mass_temps: np.ndarray
    vav_flows: np.ndarray
    vav_temps: np.ndarray
    co2: np.ndarray
    humidity_ratio: np.ndarray
    thermostat_readings: np.ndarray
    thermostat_true: np.ndarray
    occupancy: np.ndarray
    zone_occupancy: np.ndarray
    lighting: np.ndarray
    ambient: np.ndarray

    @property
    def n_steps(self) -> int:
        """Number of outer steps covered by this chunk."""
        return self.stop - self.start

    @classmethod
    def allocate(cls, index: int, start: int, stop: int, plan: KernelPlan) -> "SimulationChunk":
        """Preallocate output buffers and slice the exogenous inputs."""
        rows = stop - start
        return cls(
            index=index,
            start=start,
            stop=stop,
            zone_temps=np.empty((rows, plan.n_zones)),
            mass_temps=np.empty((rows, plan.n_zones)),
            vav_flows=np.empty((rows, plan.n_vavs)),
            vav_temps=np.empty((rows, plan.n_vavs)),
            co2=np.empty(rows),
            humidity_ratio=np.empty(rows),
            thermostat_readings=np.empty((rows, 2)),
            thermostat_true=np.empty((rows, 2)),
            occupancy=plan.occupancy_total[start:stop],
            zone_occupancy=plan.zone_occupancy[start:stop],
            lighting=plan.lighting[start:stop],
            ambient=plan.ambient[start:stop],
        )


class ThermostatTap:
    """Sample the true field at the wall thermostats (plume-biased)."""

    def __init__(self, plan: KernelPlan) -> None:
        self.plan = plan

    def step(self, state: SimulationState, k: int, row: int, chunk: SimulationChunk) -> None:
        """Produce this step's thermostat readings into ``state``/``chunk``."""
        plan = self.plan
        tstat = plan.tstat_matrix @ state.zone_temps
        front_flow = float(state.vav_flows[plan.front_idx].sum())
        front_discharge = float(state.vav_discharge[plan.front_idx].mean())
        plume = plan.thermostat_draft * min(front_flow / plan.front_full_flow, 1.0)
        tstat = (1.0 - plume) * tstat + plume * front_discharge
        chunk.thermostat_true[row] = tstat
        tstat = tstat + plan.tstat_noise[k]
        chunk.thermostat_readings[row] = tstat
        state.tstat_reading = tstat


class PlantStep:
    """Advance the HVAC plant: schedule, PI loops and VAV box lags.

    The per-VAV scalar arithmetic of :meth:`HVACPlant.step` is applied
    as elementwise array operations — bit-identical because the
    schedule/override branch is shared by all VAVs on any given step.
    """

    def __init__(self, plan: KernelPlan) -> None:
        self.plan = plan

    def step(self, state: SimulationState, k: int, row: int, chunk: SimulationChunk) -> None:
        """Advance flows/discharge temperatures by one outer step."""
        plan = self.plan
        flow_commands = None
        if plan.supervisory_controller is not None:
            readings = plan.controller_matrix @ state.zone_temps + plan.controller_noise[k]
            flow_commands = plan.supervisory_controller.decide(
                k, float(plan.hours[k]), readings, plan.dt
            )
        occupied = plan.occupied[k]
        flows = state.vav_flows
        discharge = state.vav_discharge
        integrators = state.pi_integrators
        if occupied and flow_commands is not None:
            overrides = np.asarray(flow_commands, dtype=float)
            if overrides.shape != (plan.n_vavs,):
                raise ConfigurationError(
                    f"expected {plan.n_vavs} flow commands, got shape {overrides.shape}"
                )
            integrators[:] = 0.0
            flow_setpoint = np.clip(overrides, plan.vav_min_flow, plan.vav_max_flow)
            temp_setpoint = plan.cold_deck_temp
        elif not occupied:
            integrators[:] = 0.0
            flow_setpoint = plan.standby_flow_cmd
            return_temp_c = float(state.zone_temps.mean())
            temp_setpoint = float(
                np.clip(return_temp_c, plan.cold_deck_temp, plan.reheat_max_temp)
            )
        else:
            controlling = plan.blend @ state.tstat_reading
            errors = controlling - plan.setpoint
            demand_now = plan.kp * errors + plan.ki * integrators
            saturated_same_sign = ((demand_now >= 1.0) & (errors > 0.0)) | (
                (demand_now <= 0.0) & (errors < 0.0)
            )
            integrators *= plan.integrator_decay
            charging = ~saturated_same_sign
            integrators[charging] += (errors * plan.dt / 3600.0)[charging]
            np.clip(integrators, -plan.integrator_limit, plan.integrator_limit, out=integrators)
            demand = plan.kp * errors + plan.ki * integrators
            cooling = np.clip(demand, 0.0, 1.0)
            flow_cmd = plan.vav_min_flow + cooling * plan.vav_flow_span
            flow_setpoint = np.clip(flow_cmd, plan.vav_min_flow, plan.vav_max_flow)
            temp_setpoint = plan.cold_deck_temp
        flows += plan.alpha_flow * (flow_setpoint - flows)
        discharge += plan.alpha_temp * (temp_setpoint - discharge)
        chunk.vav_flows[row] = flows
        chunk.vav_temps[row] = discharge


class DiffuserMix:
    """Aggregate VAV flows/temperatures onto their supply diffusers."""

    def __init__(self, plan: KernelPlan) -> None:
        self.plan = plan

    def step(self, state: SimulationState, k: int, row: int, chunk: SimulationChunk) -> None:
        """Mix each diffuser's feeding VAVs and project onto zones."""
        plan = self.plan
        flows = state.vav_flows
        discharge = state.vav_discharge
        diffuser_flows = state.diffuser_flows
        diffuser_temps = state.diffuser_temps
        for d, idx in enumerate(plan.diffuser_idx):
            fed = flows[idx]
            f = fed.sum()
            diffuser_flows[d] = f
            if f > 1e-12:
                diffuser_temps[d] = float(np.dot(fed, discharge[idx]) / f)
            elif idx.size:
                diffuser_temps[d] = discharge[idx].mean()
            else:
                # A diffuser with no feeding VAVs supplies nothing; its
                # temperature must still be finite (an empty-slice mean
                # is NaN and would poison the zone projection below).
                diffuser_temps[d] = 0.0
        state.zone_flow_kgs, state.zone_supply_temp_c = plan.network._supply_core(
            diffuser_flows, diffuser_temps
        )
        state.zone_heat_w = plan.zone_heat_w[k]


class ThermalIntegrate:
    """Sub-stepped explicit-Euler integration of the RC network."""

    def __init__(self, plan: KernelPlan) -> None:
        self.plan = plan

    def step(self, state: SimulationState, k: int, row: int, chunk: SimulationChunk) -> None:
        """Record the pre-step state, then advance it by ``dt`` seconds."""
        plan = self.plan
        ambient_c = float(plan.ambient[k])
        state.ambient_c = ambient_c
        chunk.zone_temps[row] = state.zone_temps
        chunk.mass_temps[row] = state.mass_temps
        z = state.zone_temps
        m = state.mass_temps
        h = plan.substep_h
        derivatives = plan.network.derivatives
        flow_kgs = state.zone_flow_kgs
        supply_t_c = state.zone_supply_temp_c
        heat_w = state.zone_heat_w
        for _ in range(plan.substeps):
            dz, dm = derivatives(z, m, flow_kgs, supply_t_c, heat_w, ambient_c)
            z += h * dz
            m += h * dm
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(m))):
            raise SimulationError(
                f"thermal state diverged at step {k} (chunk {chunk.index}); "
                "the configuration is outside the stable regime"
            )


class CO2Balance:
    """Well-mixed CO₂ balance on the fresh-air fraction of supply flow."""

    def __init__(self, plan: KernelPlan, co2_per_person: float, outdoor_ppm: float, fresh_fraction: float) -> None:
        self.plan = plan
        self.co2_per_person = co2_per_person
        self.outdoor_ppm = outdoor_ppm
        self.fresh_fraction = fresh_fraction

    def step(self, state: SimulationState, k: int, row: int, chunk: SimulationChunk) -> None:
        """Advance the scalar CO₂ state by one outer step."""
        plan = self.plan
        fresh_flow = self.fresh_fraction * state.diffuser_flows.sum()
        generation_ppm = plan.occupancy_total[k] * self.co2_per_person / plan.room_volume * 1e6
        exchange = fresh_flow / plan.room_volume
        co2 = state.co2_ppm
        co2 += plan.dt * (generation_ppm - exchange * (co2 - self.outdoor_ppm))
        state.co2_ppm = co2
        chunk.co2[row] = co2


class MoistureStep:
    """Well-mixed moisture balance (the cooling coil dehumidifies)."""

    def __init__(self, plan: KernelPlan, fresh_fraction: float) -> None:
        self.plan = plan
        self.fresh_fraction = fresh_fraction

    def step(self, state: SimulationState, k: int, row: int, chunk: SimulationChunk) -> None:
        """Advance the humidity-ratio state by one outer step."""
        plan = self.plan
        diffuser_flows = state.diffuser_flows
        diffuser_temps = state.diffuser_temps
        total_flow = float(diffuser_flows.sum())
        if total_flow > 1e-12:
            mean_discharge = float(np.dot(diffuser_flows, diffuser_temps) / total_flow)
        elif diffuser_temps.size:
            mean_discharge = float(diffuser_temps.mean())
        else:
            mean_discharge = 0.0
        chunk.humidity_ratio[row] = state.moisture.step(
            plan.dt,
            occupants=float(plan.occupancy_total[k]),
            supply_flow_m3s=total_flow,
            fresh_fraction=self.fresh_fraction,
            discharge_temp_c=mean_discharge,
            ambient_temp_c=state.ambient_c,
        )


def build_kernels(
    plan: KernelPlan, co2_per_person: float, outdoor_ppm: float, fresh_fraction: float
) -> Sequence[object]:
    """The ordered kernel pipeline for one simulation run."""
    return (
        ThermostatTap(plan),
        PlantStep(plan),
        DiffuserMix(plan),
        ThermalIntegrate(plan),
        CO2Balance(plan, co2_per_person, outdoor_ppm, fresh_fraction),
        MoistureStep(plan, fresh_fraction),
    )
