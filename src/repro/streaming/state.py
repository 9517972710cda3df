"""Snapshot/restore of online state through the artifact cache.

A deployment must survive process restarts without replaying weeks of
history, so the whole :class:`repro.streaming.pipeline.OnlinePipeline`
(gate state, RLS weights and covariance, lag buffer, drift calibration
and statistic, counters) persists through the same content-addressed
store every other artifact uses (:mod:`repro.core.artifacts`).

Snapshots are *named*, not content-addressed — they are mutable
operational state, not a pure function of configuration — so the key
hashes the snapshot name (plus the package version, via
:func:`repro.core.artifacts.artifact_key`), and saving under the same
name swaps the new value in: a concurrent load sees the old or the new
snapshot, never a half-written or missing one, and a killed writer
leaves one of the two (the store never renames onto the live file,
which would cost an ext4 data flush).  ``REPRO_CACHE_DIR`` relocates snapshots
together with the rest of the cache; with ``REPRO_CACHE=off`` saves
return ``None`` and loads miss, like every other cache interaction.
"""

from __future__ import annotations

from typing import Optional

from repro.core.artifacts import ArtifactCache, artifact_key, default_cache
from repro.errors import SnapshotError, StreamingError
from repro.streaming.pipeline import OnlinePipeline

__all__ = [
    "snapshot_key",
    "save_snapshot",
    "load_snapshot",
]


def snapshot_key(name: str) -> str:
    """Cache key of the named snapshot (stable per package version)."""
    if not name:
        raise StreamingError("snapshot name must be non-empty")
    return artifact_key("stream-snapshot", {"name": str(name)})


def save_snapshot(
    name: str, pipeline: OnlinePipeline, cache: Optional[ArtifactCache] = None
) -> Optional[str]:
    """Persist ``pipeline`` under ``name``; returns the key (None if disabled).

    The pipeline object is stored whole — it is pickle-friendly by
    construction — so a later :func:`load_snapshot` resumes from the
    exact tick the save happened at.
    """
    cache = cache or default_cache()
    key = snapshot_key(name)
    stored = cache.store(key, pipeline)
    return key if stored is not None else None


def load_snapshot(
    name: str, cache: Optional[ArtifactCache] = None, required: bool = False
) -> Optional[OnlinePipeline]:
    """The pipeline saved under ``name``, or ``None`` on a miss.

    A corrupt or foreign artifact is treated as a miss (and self-healed)
    by the cache layer; a value of the wrong type is also a miss rather
    than an error, so a stale name never poisons a restart.

    With ``required=True`` a miss raises the typed
    :class:`repro.errors.SnapshotError` instead — the contract the
    serving workers rely on: a worker that cannot restore its model
    must fail with a catchable, descriptive error, never a pickle
    traceback and never a silently empty pipeline.
    """
    cache = cache or default_cache()
    if required and not cache.enabled:
        raise SnapshotError(
            f"snapshot {name!r} is required but the artifact cache is disabled "
            "(REPRO_CACHE=off)"
        )
    value = cache.load(snapshot_key(name))
    if isinstance(value, OnlinePipeline):
        return value
    if required:
        raise SnapshotError(
            f"snapshot {name!r} is missing or corrupt in the artifact cache"
        )
    return None
