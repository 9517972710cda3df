"""``ext-fleet``: per-building thermal models from one batched trace.

The paper identifies one auditorium from one trace.  With the fleet
axis in place, a whole campus of buildings integrates in a single
vectorized pass (:mod:`repro.simulation.fleet`), and each building's
trajectory — bit-identical to what a solo run would have produced — is
enough to identify its own first-order thermostat model.  This
experiment is the smallest end-to-end demonstration of the
cross-building workflow the transfer-learning literature assumes as a
starting point: simulate the fleet once, fit every building from the
shared batched trace, and compare the identified dynamics.

As a task decomposition (:func:`tasks` / :func:`reduce_tasks`) the
experiment splits into one **warm** shard that runs the batched fleet
pass (sealing the per-building chunk series in the artifact cache) and
one identification shard per building that loads the warm trace and
fits its model; the per-building shards declare an explicit dependency
on the warm shard.  The reduce reassembles the rows in fleet order —
byte-identical to the monolithic :func:`run` when every shard
succeeded, with a ``FAILED`` row for any building whose fit did not.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import AuditoriumDataset, InputChannels
from repro.data.timeseries import TimeAxis
from repro.experiments.base import ExperimentResult
from repro.experiments.context import ExperimentContext
from repro.geometry.layout import THERMOSTAT_IDS
from repro.simulation.fleet import BuildingSpec, FleetConfig, FleetResult, build_fleet
from repro.sysid.arx import identify_arx

__all__ = [
    "run",
    "run_building",
    "warm_fleet",
    "building_dataset",
    "reduce_tasks",
    "tasks",
    "FLEET_DAYS",
    "FLEET_BUILDINGS",
]

#: Trace length of the fleet experiment.  Deliberately independent of
#: the context's (98-day) protocol: the point here is the batched
#: *workflow*, and a week of closed-loop data already pins a first-order
#: model down tightly.
FLEET_DAYS = 7.0
#: Fleet size: matches the parity contract exercised in tests and CI.
FLEET_BUILDINGS = 8

#: Assemble at the paper's 15-minute resolution (dt = 60 s -> every 15th step).
_SUBSAMPLE = 15

#: Task id of the shared fleet-simulation shard.
WARM_TASK_ID = "ext-fleet/warm"


def building_dataset(result, spec) -> AuditoriumDataset:
    """A minimal identification dataset for one fleet building.

    Thermostat truth subsampled to the paper's 15-minute grid, with the
    VAV flows and the exogenous drivers as input channels — the same
    shape the solo pipeline's assembled dataset has, minus the wireless
    deployment (fleet members have no sensor deployment of their own).
    """
    rows = np.arange(0, result.n_steps, _SUBSAMPLE)
    axis = TimeAxis(
        epoch=result.axis.epoch,
        period=result.axis.period * _SUBSAMPLE,
        count=len(rows),
    )
    channels = InputChannels(n_vavs=spec.n_vavs)
    inputs = np.column_stack(
        [result.vav_flows[rows]]
        + [result.occupancy[rows], result.lighting[rows], result.ambient[rows]]
    )
    return AuditoriumDataset(
        axis=axis,
        sensor_ids=THERMOSTAT_IDS,
        temperatures=result.thermostat_true[rows],
        inputs=inputs,
        channels=channels,
        sensor_positions=spec.thermostat_positions() or {},
    )


def _fleet_config(seed: int) -> FleetConfig:
    """The experiment's fleet distribution for one trace seed."""
    return FleetConfig(n_buildings=FLEET_BUILDINGS, days=FLEET_DAYS, seed=seed)


def _building_row(spec: BuildingSpec, result) -> Tuple[List[Any], float]:
    """Fit one building's first-order model; ``(table_row, radius)``."""
    dataset = building_dataset(result, spec)
    model = identify_arx(dataset, order=1, ridge=1e-8)
    radius = float(model.spectral_radius())
    # Dominant discrete eigenvalue -> continuous time constant.
    tau_h = (
        -dataset.axis.period / np.log(radius) / 3600.0
        if 0.0 < radius < 1.0
        else float("inf")
    )
    return (
        [
            spec.name,
            f"{spec.width:.0f}x{spec.depth:.0f}x{spec.height:.0f}",
            spec.capacity,
            spec.n_vavs,
            round(spec.simulation.hvac.setpoint, 2),
            round(radius, 4),
            round(tau_h, 1),
        ],
        radius,
    )


def _spec_row(spec: BuildingSpec) -> List[Any]:
    """Degraded row for a building whose identification shard failed."""
    return [
        spec.name,
        f"{spec.width:.0f}x{spec.depth:.0f}x{spec.height:.0f}",
        spec.capacity,
        spec.n_vavs,
        round(spec.simulation.hvac.setpoint, 2),
        "FAILED",
        "n/a",
    ]


def _result(
    rows: Sequence[List[Any]],
    radii: Sequence[float],
    extra_notes: Sequence[str],
    n_buildings: int,
) -> ExperimentResult:
    """Assemble the fleet table from (possibly degraded) building rows."""
    return ExperimentResult(
        experiment_id="ext-fleet",
        title="Per-building first-order models from one batched fleet trace",
        headers=[
            "building",
            "room (m)",
            "seats",
            "VAVs",
            "setpoint",
            "spectral radius",
            "tau (h)",
        ],
        rows=list(rows),
        notes=[
            f"{n_buildings} buildings, {FLEET_DAYS:g}-day traces, one "
            "vectorized pass; every trajectory is bit-identical to the "
            "building's solo run (see docs/simulation.md, Fleet batching)",
            "all models stable (spectral radius < 1) — the fleet "
            "distribution stays inside the physical regime",
            "extension - the paper had one building; transfer across a "
            "fleet is its natural next step",
            *extra_notes,
        ],
        extras={"spectral_radii": list(radii)},
    )


def run(
    context: Optional[ExperimentContext] = None,
    fleet: Optional[FleetResult] = None,
) -> ExperimentResult:
    """Identify a first-order model per building from one batched pass."""
    from repro.data.synth import generate_fleet

    if fleet is None:
        seed = context.seed if context is not None else None
        config = (
            _fleet_config(seed) if seed is not None
            else FleetConfig(n_buildings=FLEET_BUILDINGS, days=FLEET_DAYS)
        )
        fleet = generate_fleet(config)

    rows = []
    radii = []
    for spec, result in zip(fleet.specs, fleet.results):
        row, radius = _building_row(spec, result)
        rows.append(row)
        radii.append(radius)
    return _result(rows, radii, (), n_buildings=len(fleet.specs))


def warm_fleet(days: float, seed: int) -> int:
    """Warm shard: run the batched fleet pass once; returns the fleet size.

    ``days`` is the report protocol length and deliberately unused —
    the fleet experiment always integrates :data:`FLEET_DAYS`-day
    traces.  The batched pass seals each building's chunk series in the
    artifact cache, so the per-building shards (and the reduce) reload
    it instead of re-integrating.
    """
    from repro.data.synth import generate_fleet

    del days
    return generate_fleet(_fleet_config(seed)).n_buildings


def run_building(days: float, seed: int, index: int) -> Tuple[List[Any], float]:
    """Task entry point: identify one building from the warm fleet trace."""
    from repro.data.synth import generate_fleet

    del days
    fleet = generate_fleet(_fleet_config(seed))
    return _building_row(fleet.specs[index], fleet.results[index])


def _building_task_id(index: int) -> str:
    return f"ext-fleet/building-{index}"


def tasks(days: float, seed: int):
    """One warm shard plus one identification shard per building."""
    from repro.experiments.graph import Task

    shards = [
        # The fleet pass never reads the paper trace, so it can run
        # while the context task generates it.
        Task(
            task_id=WARM_TASK_ID,
            experiment_id="ext-fleet",
            fn=warm_fleet,
            needs_context=False,
        )
    ]
    shards.extend(
        Task(
            task_id=_building_task_id(index),
            experiment_id="ext-fleet",
            fn=run_building,
            params=(("index", index),),
            deps=(WARM_TASK_ID,),
        )
        for index in range(FLEET_BUILDINGS)
    )
    return shards


def reduce_tasks(
    context: ExperimentContext, shards: Mapping[str, Any]
) -> ExperimentResult:
    """Reassemble the fleet table from per-building shards, in fleet order.

    A failed building renders as a ``FAILED`` row — its geometry columns
    come from the (cheap, seeded) spec distribution, which is identical
    to what the simulation shard saw.
    """
    specs = build_fleet(_fleet_config(context.seed))
    rows: List[List[Any]] = []
    radii: List[float] = []
    extra_notes: List[str] = []
    for index, spec in enumerate(specs):
        shard = shards.get(_building_task_id(index))
        if shard is not None:
            row, radius = shard
            rows.append(row)
            radii.append(radius)
        else:
            rows.append(_spec_row(spec))
            extra_notes.append(
                f"building {spec.name} failed to identify; see the failures section"
            )
    return _result(rows, radii, extra_notes, n_buildings=len(specs))
