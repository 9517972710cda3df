"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch a single base class at API
boundaries while still being able to discriminate failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "GeometryError",
    "SimulationError",
    "SensingError",
    "DataError",
    "NoUsableSensorsError",
    "IdentificationError",
    "NoUsableSegmentsError",
    "ClusteringError",
    "SelectionError",
    "ExperimentError",
    "ExperimentTimeoutError",
    "WorkerCrashError",
    "ContractError",
    "StreamingError",
    "ServiceOverloadError",
    "SnapshotError",
    "ServingError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range."""


class GeometryError(ReproError):
    """A spatial query or construction is invalid (e.g. point outside room)."""


class SimulationError(ReproError):
    """The physics simulation failed (instability, bad inputs, ...)."""


class SensingError(ReproError):
    """A sensing-layer operation failed (unknown sensor, bad deployment, ...)."""


class DataError(ReproError):
    """A dataset operation failed (misaligned series, empty segment, ...)."""


class NoUsableSensorsError(DataError):
    """Screening quarantined every sensor; nothing usable remains.

    Raised at the point where the degraded pipeline would otherwise
    proceed with an empty sensor set — the explicit "nothing left"
    signal of graceful degradation."""


class IdentificationError(ReproError):
    """System identification failed (no usable samples, singular problem, ...)."""


class NoUsableSegmentsError(IdentificationError):
    """Gap segmentation left no segment long enough to regress on.

    The typed form of "the trace is all gaps": injected NaN bursts or
    outages consumed every continuous run the model order needs."""


class ClusteringError(ReproError):
    """Clustering failed (degenerate similarity graph, bad cluster count, ...)."""


class SelectionError(ReproError):
    """Sensor selection failed (empty cluster, unknown strategy, ...)."""


class ExperimentError(ReproError):
    """An experiment run failed (unknown experiment id, bad job count, ...)."""


class ExperimentTimeoutError(ExperimentError):
    """An experiment task ran past the runner's per-task deadline."""


class WorkerCrashError(ExperimentError):
    """An experiment worker process died (segfault, OOM-kill, ``os._exit``).

    The runner respawns the task while its retry budget lasts, then
    records this instead of aborting the whole report."""


class ContractError(ReproError):
    """A runtime contract was violated (shape mismatch, non-finite value,
    out-of-range physical quantity) — see :mod:`repro.contracts`."""


class StreamingError(ReproError):
    """An online-streaming operation failed (bad tick shape, invalid
    recursion parameters, underdetermined online model, ...)."""


class ServiceOverloadError(StreamingError):
    """The prediction service's bounded request queue is full.

    The typed backpressure signal: callers shed or retry rather than
    growing an unbounded backlog inside the service."""


class SnapshotError(StreamingError):
    """A required pipeline snapshot is missing, corrupt or disabled.

    Raised by :func:`repro.streaming.state.load_snapshot` with
    ``required=True`` — the typed form of "cannot restore", so a worker
    restart failure surfaces as a catchable error, not a traceback."""


class ServingError(StreamingError):
    """The multi-worker serving layer failed (no live workers, a worker
    pool that cannot start, a drain that cannot complete, ...)."""
