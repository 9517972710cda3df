"""Evaluation of sensor-selection strategies (Table II, Figs. 9–11).

Two evaluations, both against held-out validation data:

* **Direct** (:func:`cluster_mean_errors`): how far the selected
  sensors' readings are from their cluster's mean temperature — the
  stand-in quality a deployment cares about.
* **Reduced model** (:func:`reduced_model_errors`): re-identify a
  thermal model on only the selected sensors and measure how well its
  *free-run predictions* track the cluster means — the paper's model-
  simplification result (Fig. 11).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.cluster.quality import cluster_mean_trace
from repro.cluster.spectral import ClusteringResult
from repro.data.dataset import AuditoriumDataset
from repro.data.modes import Mode, OCCUPIED
from repro.errors import SelectionError
from repro.selection.base import SelectionResult
from repro.sysid.evaluation import EvaluationOptions, evaluate_model
from repro.sysid.identify import IdentificationOptions, identify
from repro.sysid.metrics import percentile

__all__ = [
    "cluster_mean_errors",
    "evaluate_selection",
    "reduced_model_errors",
]


def cluster_mean_errors(
    selection: SelectionResult,
    clustering: ClusteringResult,
    validate: AuditoriumDataset,
    mode: Optional[Mode] = None,
) -> np.ndarray:
    """Pooled |representative − cluster mean| over clusters and time.

    When a cluster has several representatives, their mean is the
    estimator (the paper's Fig. 9).  Rows outside ``mode`` (when given)
    are ignored.
    """
    if selection.n_clusters != clustering.k:
        raise SelectionError(
            f"selection covers {selection.n_clusters} clusters, clustering has {clustering.k}"
        )
    row_mask = validate.mode_rows(mode) if mode is not None else np.ones(validate.n_samples, bool)
    pooled = []
    for cluster in range(clustering.k):
        reps = selection.representatives_of(cluster)
        rep_matrix = np.column_stack([validate.temperature_of(sid) for sid in reps])
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            rep_trace = np.nanmean(rep_matrix, axis=1)
        mean_trace = cluster_mean_trace(validate, clustering.members(cluster))
        err = np.abs(rep_trace - mean_trace)
        err = err[row_mask & np.isfinite(err)]
        pooled.append(err)
    out = np.concatenate(pooled) if pooled else np.empty(0)
    if out.size == 0:
        raise SelectionError("no finite representative/cluster-mean pairs")
    return out


def evaluate_selection(
    selection: SelectionResult,
    clustering: ClusteringResult,
    validate: AuditoriumDataset,
    mode: Optional[Mode] = OCCUPIED,
    q: float = 99.0,
) -> float:
    """The paper's headline number: the ``q``-th percentile of the
    pooled cluster-mean prediction errors (Table II uses q=99)."""
    return percentile(cluster_mean_errors(selection, clustering, validate, mode=mode), q)


def reduced_model_errors(
    selection: SelectionResult,
    clustering: ClusteringResult,
    train: AuditoriumDataset,
    validate: AuditoriumDataset,
    order: int = 2,
    mode: Mode = OCCUPIED,
    ridge: float = 0.0,
    evaluation: Optional[EvaluationOptions] = None,
) -> np.ndarray:
    """Pooled |model-predicted representative − measured cluster mean|.

    A reduced model over only the selected sensors is identified on the
    training data and free-run over each validation day; its prediction
    of each representative stands in for the cluster mean.
    """
    selected = selection.sensors()
    if len(selected) < 1:
        raise SelectionError("selection is empty")
    train_sel = train.select_sensors(selected)
    validate_sel = validate.select_sensors(selected)
    model = identify(train_sel, IdentificationOptions(order=order, ridge=ridge), mode=mode)
    result = evaluate_model(
        model, validate_sel, mode=mode, options=evaluation, keep_traces=True
    )

    column_of: Dict[int, int] = {sid: i for i, sid in enumerate(validate_sel.sensor_ids)}
    # Per cluster, not per day: the mean trace spans the whole validation set.
    clusters = [
        (
            [column_of[sid] for sid in selection.representatives_of(cluster)],
            cluster_mean_trace(validate, clustering.members(cluster)),
        )
        for cluster in range(clustering.k)
    ]
    pooled = []
    for start, predicted, _measured in result.traces.values():
        for rep_columns, mean_trace in clusters:
            rep_prediction = predicted[:, rep_columns].mean(axis=1)
            window_mean = mean_trace[start : start + predicted.shape[0]]
            err = np.abs(rep_prediction - window_mean)
            err = err[np.isfinite(err)]
            pooled.append(err)
    out = np.concatenate(pooled) if pooled else np.empty(0)
    if out.size == 0:
        raise SelectionError("no finite model-prediction/cluster-mean pairs")
    return out
