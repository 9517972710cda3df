"""Residual diagnostics for identified thermal models.

Standard system-identification checks the paper does not report but any
user of the library will want:

* one-step-ahead residuals over the gap-segmented trace,
* the residual autocorrelation function and a Ljung–Box portmanteau
  statistic (white residuals mean the model structure has captured the
  predictable dynamics; structure left in the residuals argues for a
  higher order or missing inputs), and
* a per-input contribution decomposition showing how much each input
  channel (VAV flows, occupancy, lighting, ambient) moves the
  prediction — a quick interpretability check on the identified ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.contracts import ensure_finite
from repro.data.dataset import AuditoriumDataset
from repro.data.gaps import Segment
from repro.data.modes import Mode
from repro.errors import ConfigurationError, IdentificationError
from repro.sysid.models import ThermalModel

__all__ = [
    "one_step_residuals",
    "autocorrelation",
    "LjungBoxResult",
    "ljung_box",
    "ResidualReport",
    "residual_report",
    "input_contributions",
]


def one_step_residuals(
    model: ThermalModel,
    dataset: AuditoriumDataset,
    mode: Optional[Mode] = None,
    segments: Optional[Sequence[Segment]] = None,
) -> np.ndarray:
    """Stacked one-step-ahead residuals ``T(k+1) − T̂(k+1)``.

    Returns an ``(n_rows, p)`` array, rows pooled across segments.
    """
    if segments is None:
        segments = dataset.segments(mode=mode, min_length=model.order + 1)
    rows: List[np.ndarray] = []
    for segment in segments:
        temps = dataset.temperatures[segment.start : segment.stop]
        inputs = dataset.inputs[segment.start : segment.stop]
        for k in range(model.order - 1, len(temps) - 1):
            history = temps[k - model.order + 1 : k + 1]
            predicted = model.step(history, inputs[k])
            rows.append(temps[k + 1] - predicted)
    if not rows:
        raise IdentificationError("no segment long enough for residual analysis")
    # Segments are fully-valid runs, so the residual stack must be finite.
    return ensure_finite(np.vstack(rows), "one-step residuals")


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelation of a 1-D series for lags ``1..max_lag``."""
    if max_lag < 1:
        raise ConfigurationError(f"max_lag must be >= 1, got {max_lag}")
    series = np.asarray(series, dtype=float)
    series = series[np.isfinite(series)]
    n = series.size
    if n <= max_lag + 1:
        raise IdentificationError(f"series too short ({n}) for lag {max_lag}")
    centered = series - series.mean()
    denominator = float(np.dot(centered, centered))
    if denominator <= 0:
        raise IdentificationError("series has no variance")
    return np.array(
        [float(np.dot(centered[lag:], centered[:-lag])) / denominator for lag in range(1, max_lag + 1)]
    )


@dataclass(frozen=True)
class LjungBoxResult:
    """Portmanteau whiteness test for one residual series."""

    statistic: float
    p_value: float
    lags: int
    n_samples: int

    @property
    def is_white(self) -> bool:
        """Whether whiteness is *not* rejected at the 5 % level."""
        return self.p_value > 0.05


def ljung_box(series: np.ndarray, lags: int = 10) -> LjungBoxResult:
    """Ljung–Box Q test on one residual series."""
    if lags < 1:
        raise ConfigurationError(f"lags must be >= 1, got {lags}")
    # Local import: scipy.stats costs ~0.3 s and this module is on every process's import path.
    from scipy import stats

    series = np.asarray(series, dtype=float)
    series = series[np.isfinite(series)]
    n = series.size
    acf = autocorrelation(series, lags)
    q = n * (n + 2) * float(np.sum(acf**2 / (n - np.arange(1, lags + 1))))
    p_value = float(stats.chi2.sf(q, df=lags))
    return LjungBoxResult(statistic=q, p_value=p_value, lags=lags, n_samples=n)


@dataclass
class ResidualReport:
    """Residual diagnostics for a fitted model on a dataset."""

    sensor_ids: Tuple[int, ...]
    residuals: np.ndarray
    ljung_box: Dict[int, LjungBoxResult]

    def rms_per_sensor(self) -> np.ndarray:
        return np.sqrt(np.nanmean(self.residuals**2, axis=0))

    def white_fraction(self) -> float:
        """Fraction of sensors whose residuals pass the whiteness test."""
        if not self.ljung_box:
            return 0.0
        return float(np.mean([r.is_white for r in self.ljung_box.values()]))

    def worst_sensor(self) -> int:
        """Sensor with the largest residual RMS."""
        return self.sensor_ids[int(np.argmax(self.rms_per_sensor()))]


def residual_report(
    model: ThermalModel,
    dataset: AuditoriumDataset,
    mode: Optional[Mode] = None,
    lags: int = 10,
) -> ResidualReport:
    """Run the full residual diagnostic battery."""
    residuals = one_step_residuals(model, dataset, mode=mode)
    tests = {
        sid: ljung_box(residuals[:, i], lags=lags)
        for i, sid in enumerate(dataset.sensor_ids)
    }
    return ResidualReport(
        sensor_ids=dataset.sensor_ids, residuals=residuals, ljung_box=tests
    )


def input_contributions(
    model: ThermalModel, dataset: AuditoriumDataset, mode: Optional[Mode] = None
) -> Dict[str, float]:
    """RMS one-step temperature contribution of each input channel.

    For input channel ``c``: ``rms over k of (B[:, c] * u_c(k))`` pooled
    across sensors — how strongly that channel actually drives the
    prediction on this data (coefficient magnitude × signal magnitude).
    """
    b = getattr(model, "B", None)
    if b is None:
        raise IdentificationError("model exposes no input matrix B")
    mask = dataset.mode_rows(mode) if mode is not None else np.ones(dataset.n_samples, bool)
    u = dataset.inputs[mask]
    out: Dict[str, float] = {}
    for c, name in enumerate(dataset.channels.names):
        column = u[:, c]
        column = column[np.isfinite(column)]
        if column.size == 0:
            out[name] = float("nan")
            continue
        effect = np.outer(column, b[:, c])
        out[name] = float(np.sqrt(np.mean(effect**2)))
    return out
