"""Extension: online streaming vs the batch pipeline.

Two questions the paper's batch protocol cannot ask:

1. **Convergence** — replaying the training trace tick by tick, how
   fast does the recursive (RLS) model's free-run prediction RMSE reach
   the batch fit's?  The table charts online RMSE, the batch reference
   and the relative parameter distance at trace checkpoints.
2. **Drift detection** — with a mid-stream fault campaign (a selected
   sensor freezes and the occupancy camera hangs), how long after onset
   does the CUSUM innovation monitor fire, and does the
   cluster-consistency monitor recommend re-clustering?

Both the convergence curve and the drift account are stored as a
machine-readable artifact in the content-addressed cache, like the
robustness degradation curves.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.artifacts import artifact_key, default_cache, source_digest
from repro.data.modes import OCCUPIED
from repro.errors import ReproError
from repro.experiments.base import ExperimentResult
from repro.experiments.context import ExperimentContext, resolve_context
from repro.sensing.faults import (
    FaultCampaign,
    FaultConfig,
    InputFaultConfig,
    SensorFault,
    apply_campaign,
)
from repro.streaming import (
    ClusterConsistencyMonitor,
    DriftConfig,
    OnlinePipeline,
    ReplaySource,
)
from repro.sysid.evaluation import evaluate_model
from repro.sysid.identify import IdentificationOptions, identify_cached

__all__ = [
    "CHECKPOINT_FRACTIONS",
    "DRIFT_ONSET_FRACTION",
    "run",
]

#: Trace fractions at which the online model is compared to the batch fit.
CHECKPOINT_FRACTIONS = (0.25, 0.5, 0.75, 1.0)

#: Fraction of the evaluation stream at which the mid-stream faults begin.
DRIFT_ONSET_FRACTION = 0.6


def _parameter_distance(online, batch) -> float:
    """Relative Frobenius distance between two same-order models."""
    if online.order != batch.order:
        raise ValueError("cannot compare models of different order")
    if online.order == 1:
        stack_online = np.hstack([online.A, online.B])
        stack_batch = np.hstack([batch.A, batch.B])
    else:
        stack_online = np.hstack([online.A1, online.A2, online.B])
        stack_batch = np.hstack([batch.A1, batch.A2, batch.B])
    denom = float(np.linalg.norm(stack_batch)) or 1.0
    return float(np.linalg.norm(stack_online - stack_batch)) / denom


def run(
    context: Optional[ExperimentContext] = None,
    forgetting: float = 1.0,
) -> ExperimentResult:
    """Chart online-vs-batch convergence and mid-stream drift detection."""
    ctx = resolve_context(context)

    # The deployment-phase sensor set: cluster the wireless training
    # trace and keep the near-mean representatives, as the paper does.
    from repro.cluster import cluster_sensors_cached
    from repro.selection import near_mean_selection

    clustering = cluster_sensors_cached(
        ctx.train_occupied_wireless, method="correlation", k=2
    )
    selection = near_mean_selection(clustering, ctx.train_occupied_wireless)
    selected = selection.sensors()

    train_sel = ctx.train_occupied.select_sensors(selected)
    valid_sel = ctx.valid_occupied.select_sensors(selected)
    n_inputs = train_sel.channels.n_channels

    options = IdentificationOptions(order=2)
    batch_model = identify_cached(train_sel, options)
    batch_rmse = float(evaluate_model(batch_model, valid_sel, mode=OCCUPIED).overall_rms())

    headers = [
        "trace fraction",
        "ticks",
        "updates",
        "online RMSE (degC)",
        "batch RMSE (degC)",
        "param rel dist",
    ]
    rows: List[List[object]] = []
    notes: List[str] = [
        f"streamed sensors (near-mean selection): {list(selected)}",
        "online model: order-2 RLS, forgetting "
        f"{forgetting:g}; batch reference fit on the same training rows",
    ]
    curve = {
        "fraction": [],
        "online_rmse_c": [],
        "batch_rmse_c": batch_rmse,
        "param_rel_dist": [],
    }

    pipeline = OnlinePipeline(
        train_sel.sensor_ids, n_inputs, order=2, forgetting=forgetting
    )
    n_train = train_sel.n_samples
    replayed_to = 0
    for fraction in CHECKPOINT_FRACTIONS:
        stop = int(round(fraction * n_train))
        pipeline.run(ReplaySource(train_sel, replayed_to, stop))
        replayed_to = stop
        online_rmse: object = "n/a"
        distance: object = "n/a"
        if pipeline.estimator.ready:
            online_model = pipeline.model()
            distance = _parameter_distance(online_model, batch_model)
            try:
                online_rmse = float(
                    evaluate_model(online_model, valid_sel, mode=OCCUPIED).overall_rms()
                )
            except ReproError as exc:
                notes.append(f"checkpoint {fraction:g}: evaluation degraded: {exc}")
        rows.append(
            [
                fraction,
                stop,
                pipeline.estimator.n_updates,
                online_rmse,
                batch_rmse,
                distance,
            ]
        )
        curve["fraction"].append(float(fraction))
        curve["online_rmse_c"].append(
            online_rmse if isinstance(online_rmse, float) else None
        )
        curve["param_rel_dist"].append(
            distance if isinstance(distance, float) else None
        )

    # --- mid-stream fault campaign: drift-detection delay ------------------
    stream_sel = ctx.analysis.select_sensors(selected)
    # A stuck sensor degrades the *structure* (cluster consistency) but
    # is trivially predictable one step ahead; impulsive spikes are what
    # the innovation monitor sees.  The campaign carries both, plus a
    # hanging occupancy camera.
    faults = [
        SensorFault(
            int(selected[0]),
            FaultConfig(kind="stuck", onset_fraction=DRIFT_ONSET_FRACTION),
        )
    ]
    if len(selected) > 1:
        faults.append(
            SensorFault(
                int(selected[-1]),
                FaultConfig(kind="spikes", onset_fraction=DRIFT_ONSET_FRACTION),
            )
        )
    campaign = FaultCampaign(
        name="ext-streaming-midstream",
        faults=tuple(faults),
        seed=ctx.seed,
        input_faults=(
            InputFaultConfig(
                kind="camera_freeze", onset_fraction=DRIFT_ONSET_FRACTION
            ),
        ),
    )
    faulted = apply_campaign(stream_sel, campaign).dataset
    n_stream = stream_sel.n_samples
    onset_tick = int(round(DRIFT_ONSET_FRACTION * n_stream))
    drift_config = DriftConfig()
    drift_pipeline = OnlinePipeline(
        stream_sel.sensor_ids,
        n_inputs,
        order=2,
        forgetting=forgetting,
        drift_config=drift_config,
    )
    innovations: List[object] = []
    for tick in ReplaySource(faulted):
        record = drift_pipeline.process(tick)
        innovations.append(record.innovation_rms)
    summary = drift_pipeline.summary

    drift_account = {
        "onset_tick": onset_tick,
        "fired_at_tick": summary.drift_fired_at,
        "delay_ticks": None,
        "delay_bound_ticks": None,
        "shift_sigmas": None,
    }
    detector = drift_pipeline.drift
    post = [
        v for i, v in enumerate(innovations) if v is not None and i >= onset_tick
    ]
    if detector.calibrated and post:
        shift = (float(np.mean(post)) - detector.mean) / detector.sigma
        drift_account["shift_sigmas"] = shift
        if shift > drift_config.slack:
            drift_account["delay_bound_ticks"] = drift_config.delay_bound(shift)
    if summary.drift_fired_at is not None:
        delay = summary.drift_fired_at - onset_tick
        drift_account["delay_ticks"] = delay
        bound = drift_account["delay_bound_ticks"]
        bound_text = f" (bound {bound} ticks)" if bound is not None else ""
        notes.append(
            f"drift alarm fired {delay} ticks after the onset at tick "
            f"{onset_tick}{bound_text}"
        )
    else:
        notes.append(
            f"drift alarm did not fire ({summary.n_updates} updates; "
            f"statistic {detector.statistic:.2f} of {drift_config.threshold:g})"
        )

    # --- cluster-consistency on the full wireless field --------------------
    wireless_faulted = apply_campaign(ctx.wireless, campaign).dataset
    # A week-long window with a 0.5 degC limit: tighter than the library
    # default because this deployment's clusters track within ~0.1 degC
    # when healthy, so half a degree of sustained divergence is already
    # structural.
    monitor = ClusterConsistencyMonitor.from_selection(
        clustering,
        selection,
        wireless_faulted.sensor_ids,
        window_ticks=672,
        max_divergence_c=0.5,
    )
    for row in wireless_faulted.temperatures:
        monitor.update(row)
    divergence = {c: round(v, 3) for c, v in monitor.divergence().items()}
    notes.append(
        f"cluster-consistency divergence (degC): {divergence}; "
        f"recommend re-clustering: {monitor.recommend_recluster}"
    )

    key = artifact_key(
        "ext-streaming-curve",
        {
            "campaign": campaign.cache_key(),
            "checkpoints": tuple(float(f) for f in CHECKPOINT_FRACTIONS),
            "forgetting": float(forgetting),
            "days": ctx.days,
            "seed": ctx.seed,
            "source": source_digest(),
        },
    )
    default_cache().store(key, {"convergence": curve, "drift": drift_account})

    return ExperimentResult(
        experiment_id="ext-streaming",
        title="Online streaming vs batch: convergence and drift detection",
        headers=headers,
        rows=rows,
        notes=notes,
        extras={
            "convergence": curve,
            "drift": drift_account,
            "recommend_recluster": bool(monitor.recommend_recluster),
            "artifact_key": key,
        },
    )
