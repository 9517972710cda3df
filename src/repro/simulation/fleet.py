"""Fleet batching: many buildings integrated in one vectorized pass.

The paper identifies one auditorium; the roadmap's north star is a
production-scale system serving hundreds of rooms.  This module adds
the missing axis:

* a :class:`BuildingSpec` — one building's geometry, HVAC plant, RC
  parameters and seed, with :func:`build_fleet` drawing per-building
  variation from a seeded spec distribution (:class:`FleetConfig`),
* a :class:`FleetPlan` — per-building :class:`~repro.simulation.kernels.
  KernelPlan` precomputes stacked into ``(B, ...)`` arrays, and
* one fused step (``_Cohort._step``) running the six solo kernels over a
  leading building dimension.

**Parity guarantee.**  Running building *i* through the batched pass is
``np.array_equal`` to running its spec alone through
:meth:`AuditoriumSimulator.run`.  Every per-step operation mirrors the
solo kernel exactly: per-building scalars become ``(B, 1)`` columns
(elementwise float64 ufuncs apply the same IEEE operation per lane),
matrix-vector taps become stacked ``np.matmul`` contractions (bitwise
equal to the per-building ``@``), gathered reductions keep the same
order, and branch selection (``occupied``, zero-flow) is done with pure
``np.where`` lane selection so no discarded lane can perturb a kept
one.  Buildings are grouped into *cohorts* by :func:`cohort_key` —
``(n_zones, substeps, n_diffusers)`` — and each cohort integrates in one
pass.  The VAV axis is padded to the widest plant; a padded lane never
enters a reduction, because every feeder gather reads either a real VAV
or an always-zero lane, and every mean divides by the real feeder
count.  RC parameters, plants, wiring, calendars, noise and setpoints
are free to differ within a cohort.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import rng as rng_mod
from repro.contracts import ensure_finite, ensure_unit_range
from repro.errors import ConfigurationError, SimulationError
from repro.geometry.auditorium import (
    Auditorium,
    Diffuser,
    Point,
    _default_seats,
    default_auditorium,
)
from repro.geometry.layout import THERMOSTAT_IDS
from repro.simulation.humidity import (
    ATMOSPHERIC_PRESSURE,
    EPSILON,
    MoistureConfig,
    humidity_ratio_from_rh,
)
from repro.simulation.hvac import HVACConfig, HVACSchedule
from repro.simulation.integrator import substep_count
from repro.simulation.kernels import KernelPlan, SimulationChunk
from repro.simulation.rc_network import AIR_CP, AIR_DENSITY, RCNetworkConfig
from repro.simulation.simulator import (
    CO2_PER_PERSON,
    FRESH_AIR_FRACTION,
    OUTDOOR_CO2_PPM,
    AuditoriumSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.simulation.vav import VAVConfig

__all__ = [
    "BuildingSpec",
    "FleetConfig",
    "FleetPlan",
    "FleetState",
    "FleetChunk",
    "FleetResult",
    "FleetSimulator",
    "build_fleet",
    "cohort_key",
    "seed_fleet",
]


# ---------------------------------------------------------------------------
# Building specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuildingSpec:
    """One fleet member: geometry, plant and simulation configuration.

    A spec is self-contained: :meth:`simulator` builds the exact solo
    :class:`AuditoriumSimulator` the batched pass must reproduce, so the
    parity contract is checkable per building.
    """

    name: str
    width: float = 20.0
    depth: float = 16.0
    height: float = 6.0
    seat_rows: int = 9
    seat_columns: int = 10
    n_vavs: int = 4
    #: 1-based VAV ids feeding each supply diffuser, front to back.
    diffuser_wiring: Tuple[Tuple[int, ...], ...] = ((1, 2), (3, 4))
    #: Room depth of each diffuser, metres (aligned with the wiring).
    diffuser_ys: Tuple[float, ...] = (1.0, 5.5)
    diffuser_reach: float = 3.0
    #: Wall-thermostat mounting: height, inset from the side walls and
    #: fractional room depth (the default matches the paper's layout).
    thermostat_height: float = 1.4
    thermostat_inset: float = 0.3
    thermostat_depth_fraction: float = 0.15
    #: When set, :meth:`auditorium` returns the canonical paper room and
    #: the thermostats come from the default sensor layout, so the spec
    #: aliases exactly onto the solo synthetic path.
    use_default_geometry: bool = False
    simulation: SimulationConfig = field(default_factory=SimulationConfig)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("building spec needs a name")
        if len(self.diffuser_wiring) != len(self.diffuser_ys):
            raise ConfigurationError("diffuser_wiring and diffuser_ys must align")
        if not self.diffuser_wiring:
            raise ConfigurationError("a building needs at least one diffuser")
        for ids in self.diffuser_wiring:
            for vav_id in ids:
                if not 1 <= vav_id <= self.n_vavs:
                    raise ConfigurationError(
                        f"diffuser wiring references VAV {vav_id}, "
                        f"but {self.name!r} has {self.n_vavs}"
                    )
        if self.simulation.hvac.n_vavs != self.n_vavs:
            raise ConfigurationError(
                f"{self.name!r}: HVAC plant drives {self.simulation.hvac.n_vavs} "
                f"VAVs but the spec declares {self.n_vavs}"
            )

    @property
    def capacity(self) -> int:
        """Seat count of the room."""
        return self.seat_rows * self.seat_columns

    def auditorium(self) -> Auditorium:
        """The room geometry this spec describes."""
        if self.use_default_geometry:
            return default_auditorium()
        diffusers = tuple(
            Diffuser(
                name=f"outlet-{i + 1}",
                y=float(y),
                vav_ids=tuple(int(v) for v in ids),
                reach=self.diffuser_reach,
            )
            for i, (y, ids) in enumerate(zip(self.diffuser_ys, self.diffuser_wiring))
        )
        seats = _default_seats(
            self.width,
            self.depth,
            rows=self.seat_rows,
            columns=self.seat_columns,
            first_row_y=0.25 * self.depth,
            last_row_y=0.875 * self.depth,
            aisle_margin=0.1 * self.width,
        )
        return Auditorium(
            width=self.width,
            depth=self.depth,
            height=self.height,
            capacity=self.capacity,
            seats=seats,
            diffusers=diffusers,
            n_vavs=self.n_vavs,
        )

    def thermostat_positions(self) -> Optional[Dict[int, Point]]:
        """Wall-thermostat positions, or ``None`` for the default layout."""
        if self.use_default_geometry:
            return None
        y = self.thermostat_depth_fraction * self.depth
        z = self.thermostat_height
        return {
            THERMOSTAT_IDS[0]: Point(self.thermostat_inset, y, z),
            THERMOSTAT_IDS[1]: Point(self.width - self.thermostat_inset, y, z),
        }

    def simulator(self) -> AuditoriumSimulator:
        """The solo simulator the batched pass must be bit-identical to."""
        return AuditoriumSimulator(
            self.simulation,
            auditorium=self.auditorium(),
            thermostat_positions=self.thermostat_positions(),
        )

    @classmethod
    def paper_default(
        cls, simulation: Optional[SimulationConfig] = None, name: str = "brauer-hall"
    ) -> "BuildingSpec":
        """The canonical paper auditorium as a fleet member."""
        return cls(
            name=name,
            width=20.0,
            depth=16.0,
            height=6.0,
            seat_rows=9,
            seat_columns=10,
            n_vavs=4,
            diffuser_wiring=((1, 2), (3, 4)),
            diffuser_ys=(1.0, 5.5),
            diffuser_reach=3.0,
            use_default_geometry=True,
            simulation=simulation or SimulationConfig(),
        )


# ---------------------------------------------------------------------------
# Fleet spec distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetConfig:
    """Seeded distribution over building specs (:func:`build_fleet`)."""

    n_buildings: int = 8
    days: float = 3.0
    dt: float = 60.0
    start: datetime = field(default_factory=lambda: datetime(2013, 1, 31))
    seed: int = rng_mod.DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.n_buildings < 1:
            raise ConfigurationError("a fleet needs at least one building")


#: Campus-flavoured name pool for generated fleet members.
_NAME_POOL = (
    "brauer",
    "whitaker",
    "lopata",
    "cupples",
    "jolley",
    "urbauer",
    "bryan",
    "eads",
    "rudolph",
    "green",
)
#: Occupied-schedule variants (on hour, off hour).
_SCHEDULE_POOL = ((6.0, 21.0), (7.0, 21.0), (6.0, 22.0), (7.0, 22.0))
#: Thermostat-blend weights a VAV may put on the first thermostat.
_BLEND_POOL = (0.0, 0.25, 0.5, 0.75, 1.0)
#: VAV-count variants; the front diffuser takes the first half.
_VAV_POOL = (2, 4, 6)


def _wiring_for(n_vavs: int) -> Tuple[Tuple[int, ...], ...]:
    """Two-diffuser wiring: front gets VAVs ``1..v/2``, mid the rest."""
    half = n_vavs // 2
    return (
        tuple(range(1, half + 1)),
        tuple(range(half + 1, n_vavs + 1)),
    )


def build_fleet(config: Optional[FleetConfig] = None) -> Tuple[BuildingSpec, ...]:
    """Draw a fleet of building specs from the seeded distribution.

    Each building's draws come from an independent derived stream
    (``derive(seed, "fleet-building", index=i)``), so fleets of
    different sizes share their common prefix and adding a building
    never perturbs the others.  The grid resolution and diffuser count
    are shared, so buildings batch into one cohort per sub-step count
    (in practice one) rather than one cohort per building.
    """
    config = config or FleetConfig()
    specs: List[BuildingSpec] = []
    rc_base = RCNetworkConfig()
    hvac_base = HVACConfig()
    vav_base = VAVConfig()
    for i in range(config.n_buildings):
        gen = rng_mod.derive(config.seed, "fleet-building", index=i)
        name = f"{_NAME_POOL[int(gen.integers(0, len(_NAME_POOL)))]}-{i:02d}"
        width = float(gen.uniform(14.0, 26.0))
        depth = float(gen.uniform(12.0, 20.0))
        height = float(gen.uniform(4.5, 7.0))
        rows = int(gen.integers(6, 11))
        columns = int(gen.integers(8, 13))
        n_vavs = int(_VAV_POOL[int(gen.integers(0, len(_VAV_POOL)))])
        front_y = float(gen.uniform(0.04, 0.10)) * depth
        mid_y = float(gen.uniform(0.28, 0.40)) * depth
        reach = float(gen.uniform(2.5, 3.5))
        rc = RCNetworkConfig(
            zone_capacitance=rc_base.zone_capacitance * float(gen.uniform(1.05, 1.3)),
            mixing_conductance=rc_base.mixing_conductance * float(gen.uniform(0.85, 1.0)),
            mass_coupling=rc_base.mass_coupling * float(gen.uniform(0.8, 1.2)),
            mass_capacitance=rc_base.mass_capacitance * float(gen.uniform(0.8, 1.2)),
            ground_temp=rc_base.ground_temp + float(gen.uniform(-0.5, 0.5)),
        )
        on_hour, off_hour = _SCHEDULE_POOL[int(gen.integers(0, len(_SCHEDULE_POOL)))]
        blend_draws = gen.integers(0, len(_BLEND_POOL), size=n_vavs)
        blend = tuple((float(_BLEND_POOL[int(j)]), 1.0 - float(_BLEND_POOL[int(j)])) for j in blend_draws)
        hvac = HVACConfig(
            setpoint=hvac_base.setpoint + float(gen.uniform(-0.8, 0.8)),
            kp=hvac_base.kp * float(gen.uniform(0.8, 1.2)),
            ki=hvac_base.ki * float(gen.uniform(0.8, 1.2)),
            schedule=HVACSchedule(on_hour=on_hour, off_hour=off_hour),
            vav=dataclasses.replace(vav_base, cold_deck_temp=float(gen.uniform(12.0, 14.0))),
            thermostat_blend=blend,
        )
        thermostat_draft = float(gen.uniform(0.10, 0.20))
        initial_temp = float(gen.uniform(19.0, 21.0))
        building_seed = int(gen.integers(0, 2**63 - 1))
        simulation = SimulationConfig(
            start=config.start,
            days=config.days,
            dt=config.dt,
            rc=rc,
            hvac=hvac,
            thermostat_draft=thermostat_draft,
            initial_temp=initial_temp,
            seed=building_seed,
        )
        specs.append(
            BuildingSpec(
                name=name,
                width=width,
                depth=depth,
                height=height,
                seat_rows=rows,
                seat_columns=columns,
                n_vavs=n_vavs,
                diffuser_wiring=_wiring_for(n_vavs),
                diffuser_ys=(front_y, mid_y),
                diffuser_reach=reach,
                simulation=simulation,
            )
        )
    return tuple(specs)


def seed_fleet(
    simulation: Optional[SimulationConfig] = None, seeds: Sequence[int] = ()
) -> Tuple[BuildingSpec, ...]:
    """Paper-default buildings differing only in seed — one cohort.

    This is the batching hook for the robustness/severity sweeps: all
    members share geometry and plant, so one batched pass produces the
    per-seed traces the sweeps would otherwise re-integrate serially.
    """
    base = simulation or SimulationConfig()
    return tuple(
        BuildingSpec.paper_default(
            simulation=dataclasses.replace(base, seed=int(seed)),
            name=f"seed-{int(seed)}",
        )
        for seed in seeds
    )


# ---------------------------------------------------------------------------
# Stacked plan / state / chunk
# ---------------------------------------------------------------------------


@dataclass
class FleetPlan:
    """Per-building :class:`KernelPlan` precomputes stacked to ``(B, ...)``.

    Per-building scalars are carried as ``(B, 1)`` columns so broadcast
    against ``(B, n_vavs)``/``(B, n_zones)`` state applies the same
    IEEE operation per lane as the solo scalar did.  The VAV axis is
    padded to the cohort's widest plant (``n_vavs``); each building's
    real count is in ``vav_counts``.  Feeder gathers are flat indices
    into the ``(B, n_vavs + 1)`` lanes of :class:`FleetState`, one row
    per building, padded with the always-zero last column.
    """

    n_buildings: int
    n_steps: int
    dt: float
    n_zones: int
    n_vavs: int
    vav_counts: Tuple[int, ...]
    occupied: np.ndarray  # (B, N) bool
    #: Per step: every lane occupied / any lane occupied.
    occupied_all: List[bool]
    occupied_any: List[bool]
    ambient: np.ndarray  # (B, N)
    occupancy_total: np.ndarray  # (B, N)
    zone_occupancy: np.ndarray  # (B, N, Z)
    lighting: np.ndarray  # (B, N)
    zone_heat_w: np.ndarray  # (B, N, Z)
    tstat_matrix: np.ndarray  # (B, 2, Z)
    tstat_noise: np.ndarray  # (B, N, 2)
    front_idx: np.ndarray  # (B, F) flat lane indices
    front_count: np.ndarray  # (B,) real front feeders
    diffuser_idx: np.ndarray  # (B, D, F) flat lane indices
    diffuser_count: np.ndarray  # (B, D) real feeders, at least 1
    front_full_flow: np.ndarray  # (B,)
    thermostat_draft: np.ndarray  # (B,)
    blend: np.ndarray  # (B, V, 2), zero rows on padded lanes
    setpoint: np.ndarray  # (B, 1)
    kp: np.ndarray  # (B, 1)
    ki: np.ndarray  # (B, 1)
    integrator_decay: float  # shared: exp(-dt/7200) at the fleet's dt
    integrator_limit: np.ndarray  # (B, 1)
    standby_flow_cmd: np.ndarray  # (B, 1)
    vav_min_flow: np.ndarray  # (B, 1)
    vav_max_flow: np.ndarray  # (B, 1)
    vav_flow_span: np.ndarray  # (B, 1)
    cold_deck_temp: np.ndarray  # (B, 1)
    reheat_max_temp: np.ndarray  # (B,)
    alpha_flow: np.ndarray  # (B, 1)
    alpha_temp: np.ndarray  # (B, 1)
    #: Stacked RC network (the per-building matrices of RCNetwork).
    mixing: np.ndarray  # (B, Z, Z)
    infiltration: np.ndarray  # (B, Z)
    exterior: np.ndarray  # (B, Z)
    mass_coupling: np.ndarray  # (B, 1)
    ground_conductance: np.ndarray  # (B, 1)
    ground_temp: np.ndarray  # (B, 1)
    zone_capacitance: np.ndarray  # (B, 1)
    mass_capacitance: np.ndarray  # (B, 1)
    fractions_t: np.ndarray  # (B, Z, D) diffuser->zone flow fractions, transposed
    substeps: int
    substep_h: float
    #: Room balances; the exogenous terms are precomputed per step.
    room_volume: np.ndarray  # (B,)
    air_density: float
    air_mass: np.ndarray  # (B,)
    co2_generation_ppm: np.ndarray  # (B, N)
    moisture_generation: np.ndarray  # (B, N)
    fresh_outdoor_ratio: np.ndarray  # (B, N) fresh fraction x outdoor ratio
    coil_saturation_fraction: float


@dataclass
class FleetState:
    """Mutable cross-step state of one cohort, leading axis = building.

    ``vav_flows``/``vav_discharge`` are ``(B, V)`` views of ``(B, V + 1)``
    lanes whose last column is never written: it stays zero, and every
    padded feeder slot gathers from it.
    """

    zone_temps: np.ndarray  # (B, Z)
    mass_temps: np.ndarray  # (B, Z)
    flow_lanes: np.ndarray  # (B, V + 1)
    discharge_lanes: np.ndarray  # (B, V + 1)
    pi_integrators: np.ndarray  # (B, V)
    co2_ppm: np.ndarray  # (B,)
    moisture_ratio: np.ndarray  # (B,)

    vav_flows: np.ndarray = field(init=False)  # (B, V)
    vav_discharge: np.ndarray = field(init=False)  # (B, V)

    def __post_init__(self) -> None:
        self.vav_flows = self.flow_lanes[:, :-1]
        self.vav_discharge = self.discharge_lanes[:, :-1]


@dataclass
class FleetChunk:
    """One slab of batched trajectory; ``building(b)`` slices a solo chunk."""

    index: int
    start: int
    stop: int
    vav_counts: Tuple[int, ...]
    zone_temps: np.ndarray  # (B, rows, Z)
    mass_temps: np.ndarray
    vav_flows: np.ndarray  # (B, rows, V), V padded
    vav_temps: np.ndarray
    co2: np.ndarray  # (B, rows)
    humidity_ratio: np.ndarray
    thermostat_readings: np.ndarray  # (B, rows, 2)
    thermostat_true: np.ndarray
    occupancy: np.ndarray  # (B, rows)
    zone_occupancy: np.ndarray  # (B, rows, Z)
    lighting: np.ndarray  # (B, rows)
    ambient: np.ndarray  # (B, rows)

    @classmethod
    def allocate(cls, index: int, start: int, stop: int, plan: FleetPlan) -> "FleetChunk":
        """Preallocate batched buffers and slice the exogenous inputs."""
        rows = stop - start
        b = plan.n_buildings
        return cls(
            index=index,
            start=start,
            stop=stop,
            vav_counts=plan.vav_counts,
            zone_temps=np.empty((b, rows, plan.n_zones)),
            mass_temps=np.empty((b, rows, plan.n_zones)),
            vav_flows=np.empty((b, rows, plan.n_vavs)),
            vav_temps=np.empty((b, rows, plan.n_vavs)),
            co2=np.empty((b, rows)),
            humidity_ratio=np.empty((b, rows)),
            thermostat_readings=np.empty((b, rows, 2)),
            thermostat_true=np.empty((b, rows, 2)),
            occupancy=plan.occupancy_total[:, start:stop],
            zone_occupancy=plan.zone_occupancy[:, start:stop],
            lighting=plan.lighting[:, start:stop],
            ambient=plan.ambient[:, start:stop],
        )

    def building(self, b: int) -> SimulationChunk:
        """Building ``b``'s slice as a solo-compatible chunk.

        Its arrays are contiguous views of this batch, as a solo chunk's
        exogenous slices are views of its plan.  Only the VAV arrays are
        copied: slicing off the padding leaves them non-contiguous.
        """
        n_vavs = self.vav_counts[b]
        return SimulationChunk(
            index=self.index,
            start=self.start,
            stop=self.stop,
            zone_temps=self.zone_temps[b],
            mass_temps=self.mass_temps[b],
            vav_flows=self.vav_flows[b, :, :n_vavs].copy(),
            vav_temps=self.vav_temps[b, :, :n_vavs].copy(),
            co2=self.co2[b],
            humidity_ratio=self.humidity_ratio[b],
            thermostat_readings=self.thermostat_readings[b],
            thermostat_true=self.thermostat_true[b],
            occupancy=self.occupancy[b],
            zone_occupancy=self.zone_occupancy[b],
            lighting=self.lighting[b],
            ambient=self.ambient[b],
        )


def _sat_ratio(temp_c: np.ndarray) -> np.ndarray:
    """Vectorized saturation humidity ratio (mirrors the scalar helper)."""
    psat = 610.94 * np.exp(17.625 * temp_c / (temp_c + 243.04))
    return EPSILON * psat / (ATMOSPHERIC_PRESSURE - psat)


# ---------------------------------------------------------------------------
# Cohorts and the fleet simulator
# ---------------------------------------------------------------------------


def cohort_key(simulator: AuditoriumSimulator) -> Tuple[int, int, int]:
    """``(n_zones, substeps, n_diffusers)``: buildings sharing it batch together.

    Read off the simulator's grid, network and geometry, so grouping
    needs no :class:`KernelPlan`.  The VAV count and diffuser wiring are
    free: the batch pads them (see :class:`FleetPlan`).
    """
    return (
        simulator.grid.n_zones,
        substep_count(simulator.config.dt, simulator.network.max_stable_dt()),
        len(simulator.auditorium.diffusers),
    )


def _stack_plans(plans: Sequence[KernelPlan]) -> FleetPlan:
    """Stack per-building solo plans into one cohort ``FleetPlan``."""
    for plan in plans:
        if plan.supervisory_controller is not None:
            raise ConfigurationError("fleet batching does not support supervisory controllers")
    p0 = plans[0]
    b = len(plans)

    def stack(attr: str) -> np.ndarray:
        return np.stack([getattr(p, attr) for p in plans])

    def column(values: Iterable[float]) -> np.ndarray:
        return np.array(list(values), dtype=float)[:, None]

    def row(values: Iterable[float]) -> np.ndarray:
        return np.array(list(values), dtype=float)

    # Pad the VAV axis: feeder slots past a building's own feeders
    # gather the zero lane, and blend rows past its own VAVs are zero.
    width = max(p.n_vavs for p in plans)
    feeders = [[p.front_idx, *p.diffuser_idx] for p in plans]
    slots = max(idx.size for rows in feeders for idx in rows)
    idx = np.full((b, 1 + len(p0.diffuser_idx), slots), width, dtype=np.intp)
    blend = np.zeros((b, width, 2))
    for i, (p, rows) in enumerate(zip(plans, feeders)):
        for d, feeder in enumerate(rows):
            idx[i, d, : feeder.size] = feeder
        blend[i, : p.n_vavs] = p.blend
    counts = (idx != width).sum(axis=2).astype(float)
    idx += (np.arange(b) * (width + 1))[:, None, None]

    occupied = stack("occupied")
    ambient = stack("ambient")
    occupancy_total = stack("occupancy_total")
    moisture_cfg = MoistureConfig()
    air_density = 1.2  # MoistureBalance's default, as the solo path uses
    room_volume = row(p.room_volume for p in plans)
    air_mass = air_density * room_volume
    outdoor_ratio = moisture_cfg.outdoor_rh / 100.0 * _sat_ratio(ambient)
    return FleetPlan(
        n_buildings=b,
        n_steps=p0.n_steps,
        dt=p0.dt,
        n_zones=p0.n_zones,
        n_vavs=width,
        vav_counts=tuple(p.n_vavs for p in plans),
        occupied=occupied,
        occupied_all=occupied.all(axis=0).tolist(),
        occupied_any=occupied.any(axis=0).tolist(),
        ambient=ambient,
        occupancy_total=occupancy_total,
        zone_occupancy=stack("zone_occupancy"),
        lighting=stack("lighting"),
        zone_heat_w=stack("zone_heat_w"),
        tstat_matrix=stack("tstat_matrix"),
        tstat_noise=stack("tstat_noise"),
        front_idx=idx[:, 0],
        front_count=counts[:, 0],
        diffuser_idx=idx[:, 1:],
        diffuser_count=np.maximum(counts[:, 1:], 1.0),
        front_full_flow=row(p.front_full_flow for p in plans),
        thermostat_draft=row(p.thermostat_draft for p in plans),
        blend=blend,
        setpoint=column(p.setpoint for p in plans),
        kp=column(p.kp for p in plans),
        ki=column(p.ki for p in plans),
        integrator_decay=p0.integrator_decay,
        integrator_limit=column(p.integrator_limit for p in plans),
        standby_flow_cmd=column(p.standby_flow_cmd for p in plans),
        vav_min_flow=column(p.vav_min_flow for p in plans),
        vav_max_flow=column(p.vav_max_flow for p in plans),
        vav_flow_span=column(p.vav_flow_span for p in plans),
        cold_deck_temp=column(p.cold_deck_temp for p in plans),
        reheat_max_temp=row(p.reheat_max_temp for p in plans),
        alpha_flow=column(p.alpha_flow for p in plans),
        alpha_temp=column(p.alpha_temp for p in plans),
        mixing=np.stack([p.network._mixing for p in plans]),
        infiltration=np.stack([p.network._infiltration for p in plans]),
        exterior=np.stack([p.network._exterior for p in plans]),
        mass_coupling=column(p.network.config.mass_coupling for p in plans),
        ground_conductance=column(p.network.config.ground_conductance for p in plans),
        ground_temp=column(p.network.config.ground_temp for p in plans),
        zone_capacitance=column(p.network.config.zone_capacitance for p in plans),
        mass_capacitance=column(p.network.config.mass_capacitance for p in plans),
        fractions_t=np.stack([p.network._diffuser_fractions.T for p in plans]),
        substeps=p0.substeps,
        substep_h=p0.substep_h,
        room_volume=room_volume,
        air_density=air_density,
        air_mass=air_mass,
        co2_generation_ppm=occupancy_total * CO2_PER_PERSON / room_volume[:, None] * 1e6,
        moisture_generation=occupancy_total * moisture_cfg.occupant_moisture / air_mass[:, None],
        fresh_outdoor_ratio=FRESH_AIR_FRACTION * outdoor_ratio,
        coil_saturation_fraction=moisture_cfg.coil_saturation_fraction,
    )


class _Cohort:
    """One batch of buildings sharing a :func:`cohort_key`, integrated together."""

    def __init__(self, slots: Sequence[int], simulators: Sequence[AuditoriumSimulator]) -> None:
        self.slots = list(slots)
        self.simulators = list(simulators)
        self.plan = _stack_plans([sim._build_plan() for sim in self.simulators])

    @property
    def n_buildings(self) -> int:
        return len(self.slots)

    def _initial_state(self) -> FleetState:
        plan = self.plan
        b = plan.n_buildings
        flows = np.zeros((b, plan.n_vavs + 1))
        discharge = np.zeros((b, plan.n_vavs + 1))
        zone, mass, ratios = [], [], []
        for i, sim in enumerate(self.simulators):
            cfg = sim.config
            sim.plant.reset()
            z, m = sim.network.initial_state(cfg.initial_temp)
            zone.append(z)
            mass.append(m)
            flows[i, : plan.vav_counts[i]] = sim.plant.flows()
            discharge[i, : plan.vav_counts[i]] = sim.plant.discharge_temps()
            ratios.append(
                humidity_ratio_from_rh(MoistureConfig().initial_rh, cfg.initial_temp)
            )
        return FleetState(
            zone_temps=np.stack(zone),
            mass_temps=np.stack(mass),
            flow_lanes=flows,
            discharge_lanes=discharge,
            pi_integrators=np.zeros((b, plan.n_vavs)),
            co2_ppm=np.full(b, OUTDOOR_CO2_PPM),
            moisture_ratio=np.array(ratios, dtype=float),
        )

    def _writeback_plants(self, state: FleetState) -> None:
        for b, sim in enumerate(self.simulators):
            for i, vav in enumerate(sim.plant.vavs):
                vav._flow = float(state.vav_flows[b, i])
                vav._discharge_temp = float(state.vav_discharge[b, i])
            sim.plant._integrators[:] = state.pi_integrators[b, : len(sim.plant.vavs)]

    def _pi_control(self, state: FleetState, tstat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Occupied PI control for every lane: (integrators, flow setpoint)."""
        p = self.plan
        integrators = state.pi_integrators
        controlling = np.matmul(p.blend, tstat[:, :, None])[:, :, 0]
        errors = controlling - p.setpoint
        demand_now = p.kp * errors + p.ki * integrators
        saturated_same_sign = ((demand_now >= 1.0) & (errors > 0.0)) | (
            (demand_now <= 0.0) & (errors < 0.0)
        )
        decayed = integrators * p.integrator_decay
        occ_int = np.where(saturated_same_sign, decayed, decayed + errors * p.dt / 3600.0)
        occ_int = np.clip(occ_int, -p.integrator_limit, p.integrator_limit)
        demand = p.kp * errors + p.ki * occ_int
        cooling = np.clip(demand, 0.0, 1.0)
        flow_cmd = p.vav_min_flow + cooling * p.vav_flow_span
        return occ_int, np.clip(flow_cmd, p.vav_min_flow, p.vav_max_flow)

    def _standby_temp(self, zone_temps: np.ndarray) -> np.ndarray:
        """Unoccupied discharge setpoint: the clipped zone-mean return temp."""
        p = self.plan
        return np.clip(zone_temps.mean(axis=1), p.cold_deck_temp[:, 0], p.reheat_max_temp)

    def _step(self, state: FleetState, k: int, row: int, chunk: FleetChunk) -> None:
        """One outer step of the whole cohort: the six solo kernels, fused.

        Thermostat tap, plant, diffuser mix, thermal integration, CO2
        and moisture run in the solo kernels' order with their float
        operations.  Lanes that branch differently (schedule, zero flow)
        are ``np.where``-selected, and a fallback is computed only on
        steps where some lane selects it.
        """
        p = self.plan
        z, m = state.zone_temps, state.mass_temps

        # Thermostat tap: plume-biased field sample, then control noise.
        tstat = np.matmul(p.tstat_matrix, z[:, :, None])[:, :, 0]
        front_flow = state.flow_lanes.take(p.front_idx).sum(axis=1)
        front_discharge = state.discharge_lanes.take(p.front_idx).sum(axis=1) / p.front_count
        plume = p.thermostat_draft * np.minimum(front_flow / p.front_full_flow, 1.0)
        tstat = (1.0 - plume)[:, None] * tstat + (plume * front_discharge)[:, None]
        chunk.thermostat_true[:, row] = tstat
        tstat = tstat + p.tstat_noise[:, k]
        chunk.thermostat_readings[:, row] = tstat

        # Plant: schedule, PI loops, VAV box lags.
        if p.occupied_all[k]:
            state.pi_integrators, flow_setpoint = self._pi_control(state, tstat)
            temp_setpoint = p.cold_deck_temp
        elif not p.occupied_any[k]:
            state.pi_integrators = np.zeros_like(state.pi_integrators)
            flow_setpoint = p.standby_flow_cmd
            temp_setpoint = self._standby_temp(z)[:, None]
        else:
            occ = p.occupied[:, k, None]
            occ_int, occ_flow_setpoint = self._pi_control(state, tstat)
            state.pi_integrators = np.where(occ, occ_int, 0.0)
            flow_setpoint = np.where(occ, occ_flow_setpoint, p.standby_flow_cmd)
            temp_setpoint = np.where(occ, p.cold_deck_temp, self._standby_temp(z)[:, None])
        flows, discharge = state.vav_flows, state.vav_discharge
        flows += p.alpha_flow * (flow_setpoint - flows)
        discharge += p.alpha_temp * (temp_setpoint - discharge)
        chunk.vav_flows[:, row] = flows
        chunk.vav_temps[:, row] = discharge

        # Diffuser mix: every diffuser's feeders in one gather.
        fed = state.flow_lanes.take(p.diffuser_idx)
        gathered = state.discharge_lanes.take(p.diffuser_idx)
        diffuser_flows = fed.sum(axis=2)
        dots = np.matmul(fed[:, :, None, :], gathered[:, :, :, None])[:, :, 0, 0]
        diffuser_temps = dots / diffuser_flows
        fed_ok = diffuser_flows > 1e-12
        if not fed_ok.all():
            feeder_mean = gathered.sum(axis=2) / p.diffuser_count
            diffuser_temps = np.where(fed_ok, diffuser_temps, feeder_mean)
        zone_volume_flow = np.matmul(p.fractions_t, diffuser_flows[:, :, None])[:, :, 0]
        weighted_temp = np.matmul(
            p.fractions_t, (diffuser_flows * diffuser_temps)[:, :, None]
        )[:, :, 0]
        supply_t = weighted_temp / np.maximum(zone_volume_flow, 1e-12)
        supplied = zone_volume_flow > 1e-12
        if not supplied.all():
            supply_t = np.where(supplied, supply_t, diffuser_temps.mean(axis=1)[:, None])

        # Thermal integration: sub-stepped explicit Euler.
        chunk.zone_temps[:, row] = z
        chunk.mass_temps[:, row] = m
        flow_cp = AIR_DENSITY * zone_volume_flow * AIR_CP
        heat_w = p.zone_heat_w[:, k]
        amb = p.ambient[:, k, None]
        h = p.substep_h
        for _ in range(p.substeps):
            q_air = (
                np.matmul(p.mixing, z[:, :, None])[:, :, 0]
                + p.mass_coupling * (m - z)
                + p.infiltration * (amb - z)
                + flow_cp * (supply_t - z)
                + heat_w
            )
            q_mass = (
                p.mass_coupling * (z - m)
                + p.exterior * (amb - m)
                + p.ground_conductance * (p.ground_temp - m)
            )
            z += h * (q_air / p.zone_capacitance)
            m += h * (q_mass / p.mass_capacitance)
        if not (np.isfinite(z).all() and np.isfinite(m).all()):
            finite = np.isfinite(z).all(axis=1) & np.isfinite(m).all(axis=1)
            bad = np.flatnonzero(~finite).tolist()
            raise SimulationError(
                f"thermal state diverged at step {k} (chunk {chunk.index}) "
                f"for fleet building(s) {bad}; the configuration is outside "
                "the stable regime"
            )

        # CO2 and moisture balances on the supply air.
        total_flow = diffuser_flows.sum(axis=1)
        fresh_exchange = FRESH_AIR_FRACTION * total_flow / p.room_volume
        co2 = state.co2_ppm
        co2 = co2 + p.dt * (p.co2_generation_ppm[:, k] - fresh_exchange * (co2 - OUTDOOR_CO2_PPM))
        state.co2_ppm = co2
        chunk.co2[:, row] = co2
        dots = np.matmul(diffuser_flows[:, None, :], diffuser_temps[:, :, None])[:, 0, 0]
        mean_discharge = dots / total_flow
        flowing = total_flow > 1e-12
        if not flowing.all():
            mean_discharge = np.where(flowing, mean_discharge, diffuser_temps.mean(axis=1))
        ratio = state.moisture_ratio
        w_mix = (1.0 - FRESH_AIR_FRACTION) * ratio + p.fresh_outdoor_ratio[:, k]
        w_supply = np.minimum(w_mix, p.coil_saturation_fraction * _sat_ratio(mean_discharge))
        exchange = total_flow * p.air_density / p.air_mass
        ratio = ratio + p.dt * (exchange * (w_supply - ratio) + p.moisture_generation[:, k])
        ratio = np.maximum(ratio, 0.0)
        state.moisture_ratio = ratio
        chunk.humidity_ratio[:, row] = ratio

    def iter_chunks(self, chunk_steps: Optional[int] = None) -> Iterator[FleetChunk]:
        """Stream the cohort's batched trajectory as :class:`FleetChunk` slabs."""
        plan = self.plan
        state = self._initial_state()
        step = self._step
        n = plan.n_steps
        size = n if chunk_steps is None else int(chunk_steps)
        if size < 1:
            raise ConfigurationError("chunk_steps must be at least 1")
        for index, start in enumerate(range(0, n, size)):
            stop = min(start + size, n)
            chunk = FleetChunk.allocate(index, start, stop, plan)
            # Zero-flow lanes divide 0/0 before np.where discards the
            # result (the selected value is always finite); one errstate
            # over the step loop avoids the seterr round-trip per step.
            # Divergence is still caught by the explicit isfinite gate in
            # _step and the per-chunk contracts below.
            with np.errstate(invalid="ignore", divide="ignore"):
                for k in range(start, stop):
                    step(state, k, k - start, chunk)
            where = f"fleet chunk {index}, steps {start}:{stop}"
            ensure_finite(chunk.zone_temps, f"simulated zone temperatures ({where})")
            ensure_finite(chunk.mass_temps, f"simulated mass temperatures ({where})")
            ensure_unit_range(
                chunk.zone_temps, -40.0, 70.0, f"simulated zone temperatures (°C) ({where})"
            )
            yield chunk
        self._writeback_plants(state)


@dataclass
class FleetResult:
    """Per-building :class:`SimulationResult` traces from one batched pass."""

    specs: Tuple[BuildingSpec, ...]
    results: Tuple[SimulationResult, ...]

    @property
    def n_buildings(self) -> int:
        return len(self.specs)

    def building(self, name: str) -> SimulationResult:
        """Trace of the building named ``name``."""
        for spec, result in zip(self.specs, self.results):
            if spec.name == name:
                return result
        raise KeyError(f"no fleet building named {name!r}")


class FleetSimulator:
    """Batched closed-loop simulation of a fleet of buildings.

    Buildings are grouped into cohorts by :func:`cohort_key`; each
    cohort integrates in one vectorized pass.  The fleet must share
    ``start``/``days``/``dt`` (one time axis), everything else can vary
    per building.
    """

    def __init__(self, specs: Sequence[BuildingSpec]) -> None:
        specs = tuple(specs)
        if not specs:
            raise ConfigurationError("a fleet needs at least one building")
        base = specs[0].simulation
        for spec in specs[1:]:
            sim = spec.simulation
            if (sim.start, sim.days, sim.dt) != (base.start, base.days, base.dt):
                raise ConfigurationError(
                    f"fleet members must share start/days/dt; {spec.name!r} differs"
                )
        self.specs = specs
        self.simulators = [spec.simulator() for spec in specs]
        grouped: Dict[tuple, List[int]] = {}
        for slot, sim in enumerate(self.simulators):
            grouped.setdefault(cohort_key(sim), []).append(slot)
        self.cohorts = [
            _Cohort(slots, [self.simulators[s] for s in slots]) for slots in grouped.values()
        ]

    @property
    def n_buildings(self) -> int:
        return len(self.specs)

    def iter_building_chunks(
        self, chunk_steps: Optional[int] = None
    ) -> Iterator[Tuple[int, SimulationChunk]]:
        """Yield ``(building slot, solo chunk)`` pairs, cohort by cohort.

        This is the streaming interface the synthetic-data cache layer
        consumes: each yielded chunk is indistinguishable from one the
        building's solo simulator would have produced.
        """
        for cohort in self.cohorts:
            for chunk in cohort.iter_chunks(chunk_steps):
                for j, slot in enumerate(cohort.slots):
                    yield slot, chunk.building(j)

    def run(self, chunk_steps: Optional[int] = None) -> FleetResult:
        """Integrate the whole fleet and assemble per-building results."""
        collected: List[List[SimulationChunk]] = [[] for _ in self.specs]
        for slot, chunk in self.iter_building_chunks(chunk_steps):
            collected[slot].append(chunk)
        results = tuple(
            self.simulators[slot].assemble(chunks) for slot, chunks in enumerate(collected)
        )
        return FleetResult(specs=self.specs, results=results)
