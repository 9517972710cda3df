"""One-call synthetic dataset generation (simulate → observe → assemble).

This is the substitute for the paper's 14-week physical trace.  The
default configuration reproduces the paper's setting: a 98-day semester
trace starting 2013-01-31, 39 wireless sensors + 2 thermostats, outages
that reduce usable days to roughly the paper's 64, assembled at 15-minute
resolution.

Because the full trace takes tens of seconds to generate, the module
keeps an in-process cache keyed by configuration, which the experiment
runners and benchmarks share — and reads through the persistent
content-addressed artifact store (:mod:`repro.core.artifacts`), so the
cost is paid once per machine rather than once per process.  Set
``REPRO_CACHE=off`` to disable the on-disk layer, ``REPRO_CACHE_DIR``
to relocate it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro import rng as rng_mod
from repro.core.artifacts import (
    ChunkManifest,
    artifact_key,
    chunk_key,
    chunk_manifest_key,
    default_cache,
    fingerprint,
    load_chunk_series,
)
from repro.data.assemble import AssemblyConfig, assemble_dataset
from repro.data.dataset import AuditoriumDataset
from repro.data.screening import ScreeningThresholds, screen_sensors
from repro.errors import ContractError, SimulationError
from repro.geometry.layout import THERMOSTAT_IDS
from repro.sensing.deployment import Deployment, DeploymentConfig
from repro.sensing.raw import RawDataset
from repro.simulation.fleet import (
    BuildingSpec,
    FleetConfig,
    FleetResult,
    FleetSimulator,
    build_fleet,
)
from repro.simulation.simulator import AuditoriumSimulator, SimulationConfig, SimulationResult

__all__ = [
    "SynthConfig",
    "SynthOutput",
    "generate",
    "generate_fleet",
    "observe_output",
    "preprocess",
    "default_output",
    "default_dataset",
    "clear_cache",
]


@dataclass(frozen=True)
class SynthConfig:
    """Configuration of the full synthetic data path."""

    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    deployment: DeploymentConfig = field(default_factory=DeploymentConfig)
    assembly: AssemblyConfig = field(default_factory=AssemblyConfig)
    seed: int = rng_mod.DEFAULT_SEED

    def cache_key(self) -> str:
        """Stable content key covering *every* configuration field.

        Delegates to :func:`repro.core.artifacts.fingerprint` so the
        in-process cache and the on-disk artifact store agree, and so a
        new configuration field can never be silently left out of the
        key (the previous hand-written tuple omitted the thermostat
        noise/draft and initial-temperature fields, aliasing distinct
        configurations onto one cache slot).
        """
        return fingerprint(self)

    def artifact_key(self) -> str:
        """Content-addressed on-disk key (config + version)."""
        return artifact_key("synth-output", {"config": fingerprint(self)})


@dataclass
class SynthOutput:
    """Everything the synthetic path produces."""

    #: Assembled dataset over *all* deployed units (39 sensors + 2 thermostats).
    full_dataset: AuditoriumDataset
    #: Assembled dataset after the paper's pre-processing: near-ground
    #: units that pass screening, plus the two thermostats.
    analysis_dataset: AuditoriumDataset
    raw: RawDataset
    simulation: SimulationResult


_CACHE: Dict[str, SynthOutput] = {}

#: Artifact kind of the streamed simulation-chunk series (keyed on the
#: resolved :class:`SimulationConfig`, which fully determines the trace).
SIM_CHUNK_KIND = "sim-chunks"
#: Artifact kind of per-building fleet chunk series (keyed on the full
#: :class:`BuildingSpec` — geometry and plant change the trace, so the
#: solo kind's SimulationConfig key would alias distinct buildings).
FLEET_CHUNK_KIND = "fleet-sim-chunks"
#: Default chunk length for streamed generation: 7 simulated days.
DEFAULT_CHUNK_DAYS = 7.0


def _default_chunk_steps(sim_cfg: SimulationConfig) -> int:
    """Steps per chunk when the caller does not choose: 7-day slabs."""
    return max(1, int(round(DEFAULT_CHUNK_DAYS * 86400.0 / sim_cfg.dt)))


def _simulate_streaming(
    simulator: AuditoriumSimulator,
    sim_cfg: SimulationConfig,
    chunk_steps: int,
    disk,
) -> SimulationResult:
    """Generate the trace chunk by chunk, persisting each as it finishes.

    Chunks land in the artifact cache under ``config fingerprint +
    chunk index`` keys while later chunks are still integrating; the
    series is sealed with a :class:`ChunkManifest` at the end, so a
    concurrent or future process can assemble the full trace the moment
    generation completes (and an interrupted run never serves partial
    data).
    """
    chunks = []
    for chunk in simulator.iter_chunks(chunk_steps):
        chunks.append(chunk)
        if disk is not None:
            disk.store(chunk_key(SIM_CHUNK_KIND, sim_cfg, chunk_steps, chunk.index), chunk)
    if disk is not None:
        disk.store(
            chunk_manifest_key(SIM_CHUNK_KIND, sim_cfg),
            ChunkManifest(
                n_chunks=len(chunks), chunk_steps=chunk_steps, n_steps=sim_cfg.n_steps
            ),
        )
    return simulator.assemble(chunks)


def _resume_from_chunks(
    simulator: AuditoriumSimulator, sim_cfg: SimulationConfig, disk
) -> Optional[SimulationResult]:
    """Assemble a previously streamed chunk series, or ``None``."""
    if disk is None:
        return None
    chunks = load_chunk_series(disk, SIM_CHUNK_KIND, sim_cfg)
    if chunks is None:
        return None
    try:
        return simulator.assemble(chunks)
    except (ContractError, SimulationError):
        # A sealed series that fails the integrator-health contracts or
        # mis-tiles the horizon is a genuine defect in the cached data,
        # not a miss — silently regenerating would hide it forever.
        raise
    except (KeyError, AttributeError, TypeError, ValueError, IndexError, EOFError):
        # A foreign series (wrong types, truncated pickle survivors,
        # missing attributes after a schema change) is a miss —
        # regenerate from scratch.
        return None


def _resume_fleet_building(
    spec: BuildingSpec, simulator: AuditoriumSimulator, disk
) -> Optional[SimulationResult]:
    """Assemble a building's cached fleet chunk series, or ``None``.

    Falls back to the solo ``sim-chunks`` series when the spec uses the
    canonical paper geometry — a solo run and a fleet member are then
    the same trace, so either cache satisfies the other.
    """
    if disk is None:
        return None
    chunks = load_chunk_series(disk, FLEET_CHUNK_KIND, spec)
    if chunks is None and spec.use_default_geometry:
        chunks = load_chunk_series(disk, SIM_CHUNK_KIND, spec.simulation)
    if chunks is None:
        return None
    try:
        return simulator.assemble(chunks)
    except (ContractError, SimulationError):
        # Same policy as the solo path: defective cached data must
        # surface, not be relabeled a miss.
        raise
    except (KeyError, AttributeError, TypeError, ValueError, IndexError, EOFError):
        return None


def generate_fleet(
    config: Optional[FleetConfig] = None,
    specs: Optional[Sequence[BuildingSpec]] = None,
    use_cache: bool = True,
    chunk_steps: Optional[int] = None,
) -> FleetResult:
    """Simulate a building fleet in one batched pass, cache per building.

    Buildings whose chunk series are already in the artifact store are
    assembled from cache; the remainder integrate together through
    :class:`FleetSimulator` and their chunks are persisted as they
    stream out, each under its own ``BuildingSpec``-fingerprinted key.
    Paper-default-geometry members additionally mirror into the solo
    ``sim-chunks`` series, so a later ``generate()`` for that
    configuration resumes from the fleet trace instead of re-running.
    """
    if specs is None:
        specs = build_fleet(config or FleetConfig())
    specs = tuple(specs)
    disk = default_cache() if use_cache else None

    results: Dict[int, SimulationResult] = {}
    pending: list = []
    for slot, spec in enumerate(specs):
        resumed = _resume_fleet_building(spec, spec.simulator(), disk)
        if resumed is not None:
            results[slot] = resumed
        else:
            pending.append(slot)

    if pending:
        sub_specs = [specs[s] for s in pending]
        fleet = FleetSimulator(sub_specs)
        size = (
            chunk_steps
            if chunk_steps is not None
            else _default_chunk_steps(sub_specs[0].simulation)
        )
        collected: list = [[] for _ in sub_specs]
        for j, chunk in fleet.iter_building_chunks(size):
            collected[j].append(chunk)
            if disk is not None:
                spec = sub_specs[j]
                disk.store(chunk_key(FLEET_CHUNK_KIND, spec, size, chunk.index), chunk)
                if spec.use_default_geometry:
                    disk.store(
                        chunk_key(SIM_CHUNK_KIND, spec.simulation, size, chunk.index), chunk
                    )
        for j, chunks in enumerate(collected):
            spec = sub_specs[j]
            results[pending[j]] = fleet.simulators[j].assemble(chunks)
            if disk is not None:
                manifest = ChunkManifest(
                    n_chunks=len(chunks), chunk_steps=size, n_steps=spec.simulation.n_steps
                )
                disk.store(chunk_manifest_key(FLEET_CHUNK_KIND, spec), manifest)
                if spec.use_default_geometry:
                    disk.store(chunk_manifest_key(SIM_CHUNK_KIND, spec.simulation), manifest)

    return FleetResult(
        specs=specs, results=tuple(results[slot] for slot in range(len(specs)))
    )


def generate(
    config: Optional[SynthConfig] = None,
    use_cache: bool = True,
    chunk_steps: Optional[int] = None,
) -> SynthOutput:
    """Run the full synthetic path: simulate, observe, assemble, screen.

    With ``use_cache`` (the default) the result is looked up first in
    the per-process cache, then in the persistent artifact store; a
    fresh generation is written back to both.  Cold runs stream the
    simulation in ``chunk_steps``-sized slabs (default: 7-day chunks)
    that are persisted as they finish and resumed from on the next
    read.
    """
    config = config or SynthConfig()
    key = config.cache_key()
    if use_cache and key in _CACHE:
        return _CACHE[key]

    disk = default_cache() if use_cache else None
    disk_key = config.artifact_key() if use_cache else ""
    if disk is not None:
        cached = disk.load(disk_key)
        if isinstance(cached, SynthOutput):
            _CACHE[key] = cached
            return cached

    sim_cfg = config.simulation
    if sim_cfg.seed != config.seed:
        sim_cfg = dataclasses.replace(sim_cfg, seed=config.seed)
    simulator = AuditoriumSimulator(sim_cfg)
    result = _resume_from_chunks(simulator, sim_cfg, disk)
    if result is None:
        size = chunk_steps if chunk_steps is not None else _default_chunk_steps(sim_cfg)
        result = _simulate_streaming(simulator, sim_cfg, size, disk)

    output = observe_output(result, config)
    if use_cache:
        _CACHE[key] = output
        if disk is not None:
            disk.store(disk_key, output)
    return output


def observe_output(result: SimulationResult, config: Optional[SynthConfig] = None) -> SynthOutput:
    """Observe, assemble and screen one already-integrated trace.

    The post-simulation half of :func:`generate`, exposed so callers
    that integrate traces elsewhere — a batched
    :func:`generate_fleet` pass over :func:`repro.simulation.fleet.
    seed_fleet` replicates, for instance — run the *identical*
    deployment/assembly/screening sequence and get bit-identical
    datasets for the same ``(result, config)`` pair.
    """
    config = config or SynthConfig()
    deployment = Deployment(config=config.deployment, seed=rng_mod.derive(config.seed, "deployment"))
    raw = deployment.observe(result)
    full = assemble_dataset(raw, config=config.assembly)
    analysis = preprocess(full, raw)
    return SynthOutput(full_dataset=full, analysis_dataset=analysis, raw=raw, simulation=result)


def preprocess(full: AuditoriumDataset, raw: RawDataset) -> AuditoriumDataset:
    """The paper's pre-processing: near-ground units only, screened.

    Ceiling and upper-wall units are excluded (they do not represent
    occupant comfort), unreliable units are dropped by screening, and
    the two HVAC thermostats are always kept.
    """
    near_ground = [
        sid
        for sid in full.sensor_ids
        if sid in raw.layout and raw.layout[sid].near_ground
    ]
    candidate = full.select_sensors(near_ground)
    report = screen_sensors(
        candidate.temperatures,
        candidate.sensor_ids,
        candidate.axis.day_indices(),
        thresholds=ScreeningThresholds(),
        protected_ids=THERMOSTAT_IDS,
    )
    return candidate.select_sensors(report.kept_ids)


def default_output(days: float = 98.0, seed: int = rng_mod.DEFAULT_SEED) -> SynthOutput:
    """The canonical paper-scale synthetic trace (cached)."""
    return generate(
        SynthConfig(simulation=SimulationConfig(days=days, seed=seed), seed=seed)
    )


def default_dataset(days: float = 98.0, seed: int = rng_mod.DEFAULT_SEED) -> AuditoriumDataset:
    """The canonical pre-processed analysis dataset (cached)."""
    return default_output(days=days, seed=seed).analysis_dataset


def clear_cache() -> None:
    """Drop all cached synthetic outputs (mainly for tests)."""
    _CACHE.clear()
