"""End-to-end auditorium simulator.

Orchestrates the weather model, event calendar, occupancy, lighting, the
HVAC plant (with its closed thermostat feedback loop) and the RC zonal
network into one fixed-step simulation producing ground-truth zone
temperatures and every exogenous input at (by default) one-minute
resolution.  This is the synthetic stand-in for the paper's physical
auditorium; the sensing layer (:mod:`repro.sensing`) observes it the way
the testbed's instruments observed the real room.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Dict, Optional

import numpy as np

from repro import rng as rng_mod
from repro.contracts import ensure_finite, ensure_unit_range
from repro.data.timeseries import TimeAxis
from repro.errors import ConfigurationError, SimulationError
from repro.geometry import Auditorium, Point, ZoneGrid, default_auditorium
from repro.simulation.calendar import EventCalendar, semester_calendar
from repro.simulation.hvac import HVACConfig, HVACPlant
from repro.simulation.integrator import substep_count
from repro.simulation.kernels import (
    KernelPlan,
    SimulationChunk,
    SimulationState,
    build_kernels,
)
from repro.simulation.lighting import LightingModel
from repro.simulation.occupancy import OccupancyModel
from repro.simulation.humidity import MoistureBalance, MoistureConfig
from repro.simulation.rc_network import RCNetwork, RCNetworkConfig
from repro.simulation.weather import WeatherConfig, WeatherModel

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "SimulationChunk",
    "AuditoriumSimulator",
]


def _tap_weight_matrix(weight_lists, n_zones: int) -> np.ndarray:
    """Stack sparse ``(zone, weight)`` lists into a ``(n_taps, n_zones)``
    matrix so per-step sensor taps become one matrix-vector product
    instead of a Python loop over weight pairs (the profiled hot spot of
    :meth:`AuditoriumSimulator.run`)."""
    matrix = np.zeros((len(weight_lists), n_zones))
    for row, pairs in enumerate(weight_lists):
        for zone, weight in pairs:
            matrix[row, zone] = weight
    return matrix

#: CO₂ generation per seated adult, m³/s.
CO2_PER_PERSON = 5.2e-6
#: Outdoor CO₂ concentration, ppm.
OUTDOOR_CO2_PPM = 420.0
#: Fraction of supply air that is fresh outdoor air.
FRESH_AIR_FRACTION = 0.3


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to run one simulation."""

    #: Simulation start (the paper's trace starts 2013-01-31).
    start: datetime = field(default_factory=lambda: datetime(2013, 1, 31))
    #: Length of the simulated trace in days (the paper spans 98).
    days: float = 98.0
    #: Outer time step, seconds (inputs/logging resolution).
    dt: float = 60.0
    #: Zone grid resolution.
    grid_nx: int = 6
    grid_ny: int = 5
    rc: RCNetworkConfig = field(default_factory=RCNetworkConfig)
    hvac: HVACConfig = field(default_factory=HVACConfig)
    weather: WeatherConfig = field(default_factory=WeatherConfig)
    #: Noise on the thermostat readings used by the control loop, °C.
    thermostat_noise: float = 0.15
    #: Supply-air draft bias on the wall thermostats: the fraction of
    #: the reading contributed by the front diffuser's discharge air at
    #: full flow.  The thermostats hang on the front walls inside the
    #: cold plume, so they read low while the plant cools — which is why
    #: the paper's Fig. 2 shows them as the coldest points in the room
    #: and why they misrepresent the warm back (Table II).
    thermostat_draft: float = 0.15
    #: Initial uniform room temperature, °C.
    initial_temp: float = 20.0
    seed: int = rng_mod.DEFAULT_SEED

    def __post_init__(self) -> None:
        # ``days=98`` and ``days=98.0`` are equal configs and must share
        # one fingerprint, hence one artifact key.
        object.__setattr__(self, "days", float(self.days))
        if self.days <= 0:
            raise ConfigurationError("days must be positive")
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")

    @property
    def n_steps(self) -> int:
        """Number of outer steps: ``days`` rounded to whole ``dt`` ticks."""
        return int(round(self.days * 86400.0 / self.dt))

    @property
    def end(self) -> datetime:
        """End of the *simulated* axis.

        Derived from ``n_steps * dt`` — not ``timedelta(days=days)`` —
        so that for horizons not divisible by ``dt`` the calendar,
        weather and occupancy trajectories cover exactly the ticks the
        integrator produces instead of extending past (or stopping
        short of) the simulated axis.
        """
        return self.start + timedelta(seconds=self.n_steps * self.dt)


@dataclass
class SimulationResult:
    """Ground-truth trajectories produced by one simulation run.

    All arrays are aligned to ``axis`` (one row per outer step).
    """

    axis: TimeAxis
    #: (N, n_zones) true zone air temperatures, °C.
    zone_temps: np.ndarray
    #: (N, n_zones) envelope mass node temperatures, °C.
    mass_temps: np.ndarray
    #: (N, n_vavs) VAV supply flows, m³/s.
    vav_flows: np.ndarray
    #: (N, n_vavs) VAV discharge temperatures, °C.
    vav_temps: np.ndarray
    #: (N,) true total headcount.
    occupancy: np.ndarray
    #: (N, n_zones) per-zone headcount.
    zone_occupancy: np.ndarray
    #: (N,) lighting state (0/1).
    lighting: np.ndarray
    #: (N,) ambient temperature, °C.
    ambient: np.ndarray
    #: (N,) room CO₂ concentration, ppm.
    co2: np.ndarray
    #: (N,) well-mixed room humidity ratio, kg water / kg dry air.
    humidity_ratio: np.ndarray
    #: (N, 2) thermostat readings fed to the control loop, °C
    #: (draft-biased and noisy).
    thermostat_readings: np.ndarray
    #: (N, 2) draft-biased thermostat air temperatures before
    #: measurement noise — what the thermostat units physically sense.
    thermostat_true: np.ndarray = None
    #: The geometry the run used.
    auditorium: Auditorium = field(repr=False, default=None)
    grid: ZoneGrid = field(repr=False, default=None)
    config: SimulationConfig = field(repr=False, default=None)
    calendar: EventCalendar = field(repr=False, default=None)

    @property
    def n_steps(self) -> int:
        return len(self.axis)

    def temperature_at(self, point: Point, step: int) -> float:
        """True air temperature at a 3-D point and time step.

        Horizontal bilinear interpolation over zone centres, plus a mild
        vertical stratification correction: air near the ceiling runs
        warmer than the occupant layer the zones represent.
        """
        base = self.grid.interpolate(self.zone_temps[step], point)
        reference_height = 1.1
        stratification_per_meter = 0.25
        return base + stratification_per_meter * (point.z - reference_height)

    def temperature_trace(self, point: Point) -> np.ndarray:
        """True air temperature at ``point`` for every step (vectorized)."""
        weights = self.grid.interpolation_weights(point)
        trace = np.zeros(self.n_steps)
        for zone, w in weights:
            trace += w * self.zone_temps[:, zone]
        reference_height = 1.1
        stratification_per_meter = 0.25
        return trace + stratification_per_meter * (point.z - reference_height)

    def relative_humidity_trace(self, point: Point) -> np.ndarray:
        """Relative humidity (%) at ``point`` over the whole run.

        The moisture is well mixed, but relative humidity varies
        spatially because it depends on the *local* temperature: the
        cool front reads higher RH than the warm back.
        """
        from repro.simulation.humidity import relative_humidity_array

        temps = self.temperature_trace(point)
        return relative_humidity_array(self.humidity_ratio, temps)


class AuditoriumSimulator:
    """Runs the closed-loop thermal simulation of the auditorium."""

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        auditorium: Optional[Auditorium] = None,
        calendar: Optional[EventCalendar] = None,
        thermostat_positions: Optional[Dict[int, Point]] = None,
        supervisory_controller=None,
    ) -> None:
        """``supervisory_controller`` (optional) overrides the plant's PI
        loop during occupied hours.  It must provide ``positions()`` — the
        sensor points it reads — and
        ``decide(step, hour_of_day, readings, dt) -> flows | None``;
        returning ``None`` falls back to the built-in PI for that step.
        """
        self.config = config or SimulationConfig()
        self.auditorium = auditorium or default_auditorium()
        self.grid = ZoneGrid(self.auditorium, nx=self.config.grid_nx, ny=self.config.grid_ny)
        self.network = RCNetwork(self.auditorium, self.grid, self.config.rc)
        self.plant = HVACPlant(self.config.hvac)
        self.weather = WeatherModel(self.config.weather, seed=rng_mod.derive(self.config.seed, "weather"))
        self.calendar = calendar or semester_calendar(
            self.config.start,
            self.config.end,
            seed=rng_mod.derive(self.config.seed, "calendar"),
            capacity=self.auditorium.capacity,
        )
        self.occupancy = OccupancyModel(
            self.calendar, self.auditorium, self.grid, seed=rng_mod.derive(self.config.seed, "occupancy")
        )
        self.lighting = LightingModel(self.calendar)
        if thermostat_positions is None:
            from repro.geometry.layout import default_sensor_layout

            layout = default_sensor_layout(self.auditorium)
            thermostat_positions = {
                sid: spec.position for sid, spec in layout.items() if spec.is_thermostat
            }
        if len(thermostat_positions) != 2:
            raise ConfigurationError("the plant expects exactly two thermostats")
        self._thermostat_positions = dict(sorted(thermostat_positions.items()))
        self.supervisory_controller = supervisory_controller

    def _build_plan(self) -> KernelPlan:
        """Precompute every loop-invariant quantity for one run.

        Consumes the simulator's RNG streams in exactly the order the
        monolithic loop did (weather, occupancy, thermostat noise,
        controller noise), so the kernel engine and the reference loop
        in ``tests/reference_loop.py`` integrate identical realizations.
        """
        cfg = self.config
        n = cfg.n_steps
        axis = TimeAxis(epoch=cfg.start, period=cfg.dt, count=n)
        seconds = axis.seconds()
        hours = axis.hours_of_day()

        # Exogenous trajectories (precomputed, vectorized per event/day).
        ambient = self.weather.trajectory(cfg.start, seconds)
        occupancy_total, zone_occupancy = self.occupancy.trajectory(cfg.start, seconds)
        lighting = self.lighting.trajectory(cfg.start, seconds)

        # Thermostat measurement noise for the control loop.
        noise_gen = rng_mod.derive(cfg.seed, "thermostat-control-noise")
        tstat_noise = cfg.thermostat_noise * noise_gen.standard_normal((n, 2))
        tstat_matrix = _tap_weight_matrix(
            [
                self.grid.interpolation_weights(pos)
                for pos in self._thermostat_positions.values()
            ],
            self.grid.n_zones,
        )

        # Supervisory-controller sensor taps (if any): interpolation
        # weights for its sensor positions plus independent reading noise.
        controller_matrix = np.zeros((0, self.grid.n_zones))
        controller_noise = np.zeros((n, 0))
        if self.supervisory_controller is not None:
            positions = list(self.supervisory_controller.positions())
            controller_matrix = _tap_weight_matrix(
                [self.grid.interpolation_weights(p) for p in positions], self.grid.n_zones
            )
            ctrl_gen = rng_mod.derive(cfg.seed, "controller-sensor-noise")
            controller_noise = cfg.thermostat_noise * ctrl_gen.standard_normal(
                (n, len(positions))
            )

        # Diffuser wiring: which VAVs feed each outlet, as gather indices.
        diffusers = self.auditorium.diffusers
        if not diffusers:
            raise SimulationError("auditorium has no supply diffusers")
        diffuser_idx = [
            np.array([v - 1 for v in diffuser.vav_ids], dtype=np.intp) for diffuser in diffusers
        ]
        hcfg = self.plant.config
        vcfg = hcfg.vav
        front_full_flow = vcfg.max_flow * len(diffusers[0].vav_ids)

        # Schedule and combined occupant+lighting heat, whole horizon.
        schedule = hcfg.schedule
        wrapped_hours = hours % 24.0
        occupied = (schedule.on_hour <= wrapped_hours) & (wrapped_hours < schedule.off_hour)
        zone_heat_w = self.network.config.occupant_heat * zone_occupancy
        zone_heat_w = zone_heat_w + (
            self.lighting.heat_watts * lighting / self.grid.n_zones
        )[:, None]

        substeps = substep_count(cfg.dt, self.network.max_stable_dt())
        return KernelPlan(
            n_steps=n,
            dt=cfg.dt,
            n_zones=self.grid.n_zones,
            n_vavs=self.plant.n_vavs,
            hours=hours,
            occupied=occupied,
            ambient=ambient,
            occupancy_total=occupancy_total,
            zone_occupancy=zone_occupancy,
            lighting=lighting,
            zone_heat_w=zone_heat_w,
            tstat_matrix=tstat_matrix,
            tstat_noise=tstat_noise,
            controller_matrix=controller_matrix,
            controller_noise=controller_noise,
            supervisory_controller=self.supervisory_controller,
            diffuser_idx=diffuser_idx,
            front_idx=diffuser_idx[0],
            front_full_flow=front_full_flow,
            thermostat_draft=cfg.thermostat_draft,
            blend=np.asarray(hcfg.thermostat_blend, dtype=float),
            setpoint=hcfg.setpoint,
            kp=hcfg.kp,
            ki=hcfg.ki,
            integrator_decay=float(np.exp(-cfg.dt / 7200.0)),
            integrator_limit=0.7 / max(hcfg.ki, 1e-9),
            standby_flow_cmd=float(
                np.clip(
                    vcfg.min_flow
                    + hcfg.standby_flow_fraction * (vcfg.max_flow - vcfg.min_flow),
                    vcfg.min_flow,
                    vcfg.max_flow,
                )
            ),
            vav_min_flow=vcfg.min_flow,
            vav_max_flow=vcfg.max_flow,
            vav_flow_span=vcfg.max_flow - vcfg.min_flow,
            cold_deck_temp=float(
                np.clip(vcfg.cold_deck_temp, vcfg.cold_deck_temp, vcfg.reheat_max_temp)
            ),
            reheat_max_temp=vcfg.reheat_max_temp,
            alpha_flow=1.0 - np.exp(-cfg.dt / vcfg.flow_time_constant),
            alpha_temp=1.0 - np.exp(-cfg.dt / vcfg.discharge_time_constant),
            network=self.network,
            substeps=substeps,
            substep_h=cfg.dt / substeps,
            room_volume=self.auditorium.volume,
        )

    def _initial_state(self, plan: KernelPlan) -> SimulationState:
        """Reset the plant and build the cross-step kernel state."""
        cfg = self.config
        self.plant.reset()
        zone_temps, mass_temps = self.network.initial_state(cfg.initial_temp)
        moisture = MoistureBalance(
            self.auditorium.volume, MoistureConfig(), initial_temp_c=cfg.initial_temp
        )
        n_diffusers = len(plan.diffuser_idx)
        return SimulationState(
            zone_temps=zone_temps,
            mass_temps=mass_temps,
            vav_flows=self.plant.flows(),
            vav_discharge=self.plant.discharge_temps(),
            pi_integrators=np.zeros(plan.n_vavs),
            co2_ppm=OUTDOOR_CO2_PPM,
            moisture=moisture,
            diffuser_flows=np.zeros(n_diffusers),
            diffuser_temps=np.zeros(n_diffusers),
        )

    def _writeback_plant(self, state: SimulationState) -> None:
        """Leave the plant objects at the final VAV/PI state, exactly as
        the monolithic reference loop does."""
        for i, vav in enumerate(self.plant.vavs):
            vav._flow = float(state.vav_flows[i])
            vav._discharge_temp = float(state.vav_discharge[i])
        self.plant._integrators[:] = state.pi_integrators

    def iter_chunks(self, chunk_steps: Optional[int] = None):
        """Generate the trace as a stream of :class:`SimulationChunk` slabs.

        ``chunk_steps`` is the number of outer steps per chunk (default:
        the whole trace as one chunk).  Concatenating the yielded chunks
        is bit-identical to a single-shot :meth:`run` for any chunking —
        the state threads across chunk boundaries and all RNG draws
        happen up front.  Integrator-health contracts run per chunk, so
        a blown-up Euler step is reported with the chunk it first
        diverged in rather than at end-of-run.
        """
        plan = self._build_plan()
        state = self._initial_state(plan)
        kernels = build_kernels(plan, CO2_PER_PERSON, OUTDOOR_CO2_PPM, FRESH_AIR_FRACTION)
        steps = [kernel.step for kernel in kernels]
        n = plan.n_steps
        size = n if chunk_steps is None else int(chunk_steps)
        if size < 1:
            raise ConfigurationError("chunk_steps must be at least 1")
        for index, start in enumerate(range(0, n, size)):
            stop = min(start + size, n)
            chunk = SimulationChunk.allocate(index, start, stop, plan)
            for k in range(start, stop):
                row = k - start
                for kernel_step in steps:
                    kernel_step(state, k, row, chunk)
            where = f"chunk {index}, steps {start}:{stop}"
            ensure_finite(chunk.zone_temps, f"simulated zone temperatures ({where})")
            ensure_finite(chunk.mass_temps, f"simulated mass temperatures ({where})")
            ensure_unit_range(
                chunk.zone_temps, -40.0, 70.0, f"simulated zone temperatures (°C) ({where})"
            )
            yield chunk
        self._writeback_plant(state)

    def assemble(self, chunks) -> SimulationResult:
        """Concatenate :class:`SimulationChunk` slabs into a result.

        Validates that the chunks tile ``0..n_steps`` contiguously;
        works equally on freshly generated chunks and on chunks loaded
        back from the artifact cache.
        """
        cfg = self.config
        chunks = list(chunks)
        if not chunks:
            raise SimulationError("no simulation chunks to assemble")
        expected = 0
        for chunk in chunks:
            if chunk.start != expected:
                raise SimulationError(
                    f"chunk {chunk.index} starts at step {chunk.start}, expected {expected}"
                )
            expected = chunk.stop
        if expected != cfg.n_steps:
            raise SimulationError(f"chunks cover {expected} steps, expected {cfg.n_steps}")

        def cat(name: str) -> np.ndarray:
            if len(chunks) == 1:
                return getattr(chunks[0], name)
            return np.concatenate([getattr(c, name) for c in chunks], axis=0)

        out_zone = cat("zone_temps")
        out_mass = cat("mass_temps")
        ensure_finite(out_zone, "simulated zone temperatures")
        ensure_finite(out_mass, "simulated mass temperatures")
        ensure_unit_range(out_zone, -40.0, 70.0, "simulated zone temperatures (°C)")
        return SimulationResult(
            axis=TimeAxis(epoch=cfg.start, period=cfg.dt, count=cfg.n_steps),
            zone_temps=out_zone,
            mass_temps=out_mass,
            vav_flows=cat("vav_flows"),
            vav_temps=cat("vav_temps"),
            occupancy=cat("occupancy"),
            zone_occupancy=cat("zone_occupancy"),
            lighting=cat("lighting"),
            ambient=cat("ambient"),
            co2=cat("co2"),
            humidity_ratio=cat("humidity_ratio"),
            thermostat_readings=cat("thermostat_readings"),
            thermostat_true=cat("thermostat_true"),
            auditorium=self.auditorium,
            grid=self.grid,
            config=cfg,
            calendar=self.calendar,
        )

    def run(self, chunk_steps: Optional[int] = None) -> SimulationResult:
        """Execute the full simulation and return its trajectories.

        ``chunk_steps`` selects the chunked driver (same output, bounded
        working set per chunk); the default generates the whole trace as
        one chunk.
        """
        return self.assemble(list(self.iter_chunks(chunk_steps)))
