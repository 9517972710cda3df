"""Robustness: fault-severity sweep across the whole degraded pipeline.

The paper's pre-processing dropped 14 of 39 deployed units for
unreliable behaviour; this experiment measures how much concurrent
sensor faulting the *rest* of the pipeline tolerates.  A mixed
:class:`repro.sensing.faults.FaultCampaign` (one fault kind per
targeted sensor, cycling the full taxonomy) is scaled through a
severity sweep and, at each point, the full degraded path runs:

inject -> screen (quarantine) -> gap-segment -> cluster survivors ->
select representatives -> identify -> free-run RMSE.

The output is a degradation curve: quarantine counts, model RMSE,
selection error and selection stability (Jaccard overlap with the
fault-free selection) as functions of fault severity.  The curve is
also stored as a machine-readable artifact in the content-addressed
cache, keyed by the campaign configuration, the trace configuration
and the package source digest.

With ``replicates > 1`` the sweep averages each point over several
seed-replicate traces.  The replicate traces come from **one batched**
:class:`repro.simulation.fleet.FleetSimulator` pass over a
:func:`repro.simulation.fleet.seed_fleet` cohort (paper-default
buildings differing only in seed), then flow through the identical
post-simulation path (:func:`repro.data.synth.observe_output`) the solo
generator uses — the fleet engine's bit-parity guarantee makes the
batched traces interchangeable with serially integrated ones.

A severity at which the *modelling* stages run out of usable data is
reported as a degraded row (``n/a`` metrics plus the typed error in
the notes) rather than failing the experiment — that is the graceful
part of the degradation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import rng as rng_mod
from repro.core.artifacts import artifact_key, default_cache, source_digest
from repro.data.gaps import gap_statistics
from repro.data.modes import OCCUPIED
from repro.data.screening import ScreeningReport, screen_sensors
from repro.errors import ReproError
from repro.experiments.base import ExperimentResult
from repro.experiments.context import ExperimentContext, resolve_context
from repro.geometry.layout import THERMOSTAT_IDS
from repro.sensing.faults import FaultCampaign, apply_campaign, default_campaign

__all__ = [
    "SEVERITIES",
    "N_FAULTED",
    "FAULT_COUNTS",
    "COUNT_SWEEP_SEVERITY",
    "build_campaign",
    "replicate_analyses",
    "run",
    "run_count_sweep",
]

#: Severity sweep of the degradation curve.
SEVERITIES = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Wireless sensors targeted by the default campaign — enough to cycle
#: through several distinct fault kinds without gutting the network.
N_FAULTED = 6

#: Faulted-sensor counts swept by :func:`run_count_sweep`.
FAULT_COUNTS = (0, 2, 4, 6, 8, 10)

#: Fixed severity of the count sweep — high enough that every targeted
#: sensor is genuinely degraded, below the saturating extreme.
COUNT_SWEEP_SEVERITY = 0.75


def _campaign_for(analysis, seed: int, n_faulted: int) -> FaultCampaign:
    """The sweep campaign over one analysis dataset's wireless sensors."""
    wireless_ids = [s for s in analysis.sensor_ids if s not in THERMOSTAT_IDS]
    return default_campaign(
        wireless_ids[:n_faulted], name="robustness-mixed", seed=seed
    )


def build_campaign(context: ExperimentContext, n_faulted: int = N_FAULTED) -> FaultCampaign:
    """The experiment's campaign: a fault-kind cycle over wireless sensors.

    Thermostats are never targeted (they are part of the HVAC control
    loop and protected in screening anyway); the first ``n_faulted``
    wireless sensors of the analysis set get one fault kind each, in
    taxonomy order, so any ``n_faulted >= 3`` exercises at least three
    concurrent fault types.
    """
    return _campaign_for(context.analysis, context.seed, n_faulted)


def replicate_analyses(
    context: Optional[ExperimentContext] = None,
    replicates: int = 1,
) -> Tuple[Tuple[int, object], ...]:
    """``(seed, analysis_dataset)`` per replicate trace.

    Replicate 0 is always the context's own trace (same seed, same
    dataset object), so a single-replicate sweep is exactly the classic
    sweep.  Further replicates are paper-default buildings differing
    only in seed; they all integrate in one
    :func:`repro.data.synth.generate_fleet` pass and then flow through
    :func:`repro.data.synth.observe_output`, so each replicate's output
    is bit-identical to a solo run of its simulator.
    """
    ctx = resolve_context(context)
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if replicates == 1:
        return ((ctx.seed, ctx.analysis),)
    from repro.data.synth import SynthConfig, generate_fleet, observe_output
    from repro.simulation.fleet import seed_fleet
    from repro.simulation.simulator import SimulationConfig

    seeds = (
        int(ctx.seed),
        *(int(s) for s in rng_mod.spawn_seeds(ctx.seed, "robustness-replicates", replicates - 1)),
    )
    specs = seed_fleet(SimulationConfig(days=ctx.days, seed=ctx.seed), seeds=seeds)
    results = generate_fleet(specs=specs).results
    analyses = []
    for seed, spec, result in zip(seeds, specs, results):
        config = SynthConfig(simulation=spec.simulation, seed=seed)
        analyses.append((seed, observe_output(result, config).analysis_dataset))
    return tuple(analyses)


def _jaccard(a: Sequence[int], b: Sequence[int]) -> float:
    union = set(a) | set(b)
    if not union:
        return 1.0
    return len(set(a) & set(b)) / len(union)


def _screen(dataset) -> ScreeningReport:
    return screen_sensors(
        dataset.temperatures,
        dataset.sensor_ids,
        dataset.axis.day_indices(),
        protected_ids=THERMOSTAT_IDS,
    )


def _model_survivors(
    survivors,
) -> Tuple[float, float, List[int]]:
    """Cluster/select/identify on the surviving sensors.

    Returns ``(model_rmse_c, selection_error_c, selected_ids)``; raises
    a :class:`ReproError` subclass when the survivors cannot support a
    stage (too few sensors, no usable segments, ...).
    """
    from repro.cluster import cluster_sensors_cached
    from repro.selection import evaluate_selection, near_mean_selection
    from repro.sysid.evaluation import fit_and_evaluate

    wireless_ids = [s for s in survivors.sensor_ids if s not in THERMOSTAT_IDS]
    wireless = survivors.select_sensors(wireless_ids)
    train_w, valid_w = wireless.split_half_days(OCCUPIED)
    clustering = cluster_sensors_cached(train_w, method="correlation", k=2)
    selection = near_mean_selection(clustering, train_w)
    selection_error = evaluate_selection(selection, clustering, valid_w)

    train, valid = survivors.split_half_days(OCCUPIED)
    _, evaluation = fit_and_evaluate(train, valid, order=1, mode=OCCUPIED)
    return float(evaluation.overall_rms()), float(selection_error), selection.sensors()


@dataclass
class _PointMetrics:
    """One replicate's metrics at one sweep point."""

    n_applied: int
    quarantined: int
    survivors: int
    segments: int
    rmse_c: Optional[float]
    selection_error_c: Optional[float]
    selected: Optional[List[int]]
    overlap: Optional[float] = None
    error: Optional[str] = None


def _evaluate_point(analysis, campaign: FaultCampaign) -> _PointMetrics:
    """Run one campaign instance through the full degraded path."""
    result = apply_campaign(analysis, campaign)
    report = _screen(result.dataset)
    survivors = result.dataset.select_sensors(report.kept_ids)
    stats = gap_statistics(survivors.temperatures)
    point = _PointMetrics(
        n_applied=len(result.applied),
        quarantined=report.n_dropped,
        survivors=report.n_kept,
        segments=stats.n_segments,
        rmse_c=None,
        selection_error_c=None,
        selected=None,
    )
    try:
        rmse, selection_error, selected = _model_survivors(survivors)
        point.rmse_c = rmse
        point.selection_error_c = selection_error
        point.selected = selected
    except ReproError as exc:
        point.error = f"{type(exc).__name__}: {exc}"
    return point


def _agg_count(values: Sequence[int]):
    """Integer counts: exact for one replicate, mean beyond."""
    if len(values) == 1:
        return values[0]
    return sum(values) / len(values)


def _agg_float(values: Sequence[Optional[float]]) -> Optional[float]:
    """Mean over the replicates that produced a value (None: none did)."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(sum(present) / len(present))


def _cell(value) -> object:
    """Table cell: numbers render as-is, missing metrics as ``n/a``."""
    return value if value is not None else "n/a"


def run(
    context: Optional[ExperimentContext] = None,
    severities: Sequence[float] = SEVERITIES,
    n_faulted: int = N_FAULTED,
    replicates: int = 1,
) -> ExperimentResult:
    """Sweep fault severity and chart the pipeline's degradation.

    ``replicates`` averages every sweep point over that many seed
    replicates (trace seeds, not campaign seeds), integrated together in
    one batched fleet pass.
    """
    ctx = resolve_context(context)
    reps = replicate_analyses(ctx, replicates=replicates)
    seeds = [seed for seed, _ in reps]
    campaigns = [_campaign_for(analysis, seed, n_faulted) for seed, analysis in reps]
    base = campaigns[0]
    headers = [
        "severity",
        "faulted",
        "quarantined",
        "survivors",
        "segments",
        "model RMSE (degC)",
        "selection err (degC)",
        "selection overlap",
    ]
    rows: List[List[object]] = []
    notes: List[str] = [
        f"campaign {base.name!r}: {len(base.faults)} sensors, kinds {list(base.kinds)}",
        "quarantine = sensors screening drops at that severity (thermostats protected)",
        "overlap = Jaccard similarity of the selected sensors vs the fault-free selection",
    ]
    if len(seeds) > 1:
        notes.append(
            f"metrics averaged over {len(seeds)} seed replicates "
            f"(seeds {seeds}; traces from one batched fleet pass)"
        )
    curve = {
        "severity": [],
        "quarantined": [],
        "survivors": [],
        "model_rmse_c": [],
        "selection_error_c": [],
        "selection_overlap": [],
    }

    baselines: List[Optional[List[int]]] = [None] * len(seeds)
    for severity in severities:
        points: List[_PointMetrics] = []
        for r, ((seed, analysis), campaign) in enumerate(zip(reps, campaigns)):
            point = _evaluate_point(analysis, campaign.scaled(severity))
            if point.error is not None:
                replicate_tag = f" (replicate seed {seed})" if len(seeds) > 1 else ""
                notes.append(
                    f"severity {severity:g}{replicate_tag} degraded past modelling: "
                    f"{point.error}"
                )
            else:
                if baselines[r] is None:
                    baselines[r] = point.selected
                point.overlap = _jaccard(point.selected, baselines[r])
            points.append(point)
        quarantined = _agg_count([p.quarantined for p in points])
        survivors = _agg_count([p.survivors for p in points])
        segments = _agg_count([p.segments for p in points])
        faulted = _agg_count([p.n_applied for p in points])
        rmse_c = _agg_float([p.rmse_c for p in points])
        selection_error_c = _agg_float([p.selection_error_c for p in points])
        overlap = _agg_float([p.overlap for p in points])
        rows.append(
            [
                severity,
                faulted,
                quarantined,
                survivors,
                segments,
                _cell(rmse_c),
                _cell(selection_error_c),
                _cell(overlap),
            ]
        )
        curve["severity"].append(float(severity))
        curve["quarantined"].append(quarantined)
        curve["survivors"].append(survivors)
        curve["model_rmse_c"].append(rmse_c)
        curve["selection_error_c"].append(selection_error_c)
        curve["selection_overlap"].append(overlap)

    notes.append(
        f"max quarantined: {max(curve['quarantined'], default=0)} "
        f"of {len(base.faults)} faulted sensors"
    )

    key = artifact_key(
        "robustness-curve",
        {
            "campaign": base.cache_key(),
            "severities": tuple(float(s) for s in severities),
            "days": ctx.days,
            "seed": ctx.seed,
            "seeds": tuple(seeds),
            "source": source_digest(),
        },
    )
    default_cache().store(key, curve)

    return ExperimentResult(
        experiment_id="robustness",
        title="Fault-injection severity sweep (degradation curve)",
        headers=headers,
        rows=rows,
        notes=notes,
        extras={"curve": curve, "artifact_key": key},
    )


def run_count_sweep(
    context: Optional[ExperimentContext] = None,
    counts: Sequence[int] = FAULT_COUNTS,
    severity: float = COUNT_SWEEP_SEVERITY,
    replicates: int = 1,
) -> ExperimentResult:
    """Sweep the *number* of faulted sensors at fixed severity.

    The severity sweep asks "how broken can the faulted sensors get";
    this asks the complementary question: how *many* sensors can fault
    before the selected-representative set destabilizes.  The headline
    column is selection stability — Jaccard overlap of the selected
    sensors against the fault-free selection — charted against the
    count of concurrently faulted units.  ``replicates`` behaves exactly
    as in :func:`run`.
    """
    ctx = resolve_context(context)
    max_count = max(counts, default=0)
    if max_count > len(ctx.wireless.sensor_ids):
        raise ValueError(
            f"cannot fault {max_count} sensors: only "
            f"{len(ctx.wireless.sensor_ids)} wireless sensors exist"
        )
    reps = replicate_analyses(ctx, replicates=replicates)

    headers = [
        "faulted",
        "quarantined",
        "survivors",
        "model RMSE (degC)",
        "selection err (degC)",
        "selection overlap",
    ]
    rows: List[List[object]] = []
    notes: List[str] = [
        f"severity fixed at {severity:g}; campaign cycles the fault taxonomy",
        "overlap = Jaccard similarity of the selected sensors vs the fault-free selection",
    ]
    if len(reps) > 1:
        notes.append(
            f"metrics averaged over {len(reps)} seed replicates "
            f"(seeds {[seed for seed, _ in reps]}; traces from one batched fleet pass)"
        )
    curve = {
        "n_faulted": [],
        "quarantined": [],
        "survivors": [],
        "model_rmse_c": [],
        "selection_error_c": [],
        "selection_overlap": [],
    }

    baselines: List[Optional[List[int]]] = [None] * len(reps)
    for count in counts:
        points: List[_PointMetrics] = []
        for r, (seed, analysis) in enumerate(reps):
            campaign = _campaign_for(analysis, seed, count).scaled(severity)
            point = _evaluate_point(analysis, campaign)
            if point.error is not None:
                replicate_tag = f" (replicate seed {seed})" if len(reps) > 1 else ""
                notes.append(
                    f"{count} faulted sensors{replicate_tag} degraded past modelling: "
                    f"{point.error}"
                )
            else:
                if baselines[r] is None:
                    baselines[r] = point.selected
                point.overlap = _jaccard(point.selected, baselines[r])
            points.append(point)
        quarantined = _agg_count([p.quarantined for p in points])
        survivors = _agg_count([p.survivors for p in points])
        rmse_c = _agg_float([p.rmse_c for p in points])
        selection_error_c = _agg_float([p.selection_error_c for p in points])
        overlap = _agg_float([p.overlap for p in points])
        rows.append(
            [
                count,
                quarantined,
                survivors,
                _cell(rmse_c),
                _cell(selection_error_c),
                _cell(overlap),
            ]
        )
        curve["n_faulted"].append(int(count))
        curve["quarantined"].append(quarantined)
        curve["survivors"].append(survivors)
        curve["model_rmse_c"].append(rmse_c)
        curve["selection_error_c"].append(selection_error_c)
        curve["selection_overlap"].append(overlap)

    stable = [
        n for n, o in zip(curve["n_faulted"], curve["selection_overlap"]) if o == 1.0
    ]
    if stable:
        notes.append(
            f"selection fully stable (overlap 1.0) up to {max(stable)} faulted sensors"
        )

    key = artifact_key(
        "robustness-count-curve",
        {
            "counts": tuple(int(c) for c in counts),
            "severity": float(severity),
            "days": ctx.days,
            "seed": ctx.seed,
            "seeds": tuple(seed for seed, _ in reps),
            "source": source_digest(),
        },
    )
    default_cache().store(key, curve)

    return ExperimentResult(
        experiment_id="robustness-count",
        title="Selection stability vs number of faulted sensors",
        headers=headers,
        rows=rows,
        notes=notes,
        extras={"curve": curve, "artifact_key": key},
    )
