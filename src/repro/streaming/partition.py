"""Partition planning: which building streams where, and as what.

This module turns a fleet into an ingestion *plan*:

* :func:`shard_of` — stable assignment of a topic (building name) to
  one of K shards, by cryptographic hash, so the same building always
  lands on the same shard across processes, runs and machines;
* :class:`PartitionSpec` — one building's partition: the
  :class:`~repro.simulation.fleet.BuildingSpec`, a factory for its
  :class:`~repro.streaming.ingest.LiveSimSource` and its full
  gate→RLS→drift :class:`~repro.streaming.pipeline.OnlinePipeline`
  (staleness armed via the source's default thresholds), plus the
  partition's snapshot and record-log names;
* :class:`IngestPlan` — the whole run: fleet parameters, shard count,
  bus bounds, snapshot cadence, and a content-derived snapshot
  *namespace* so two different plans can never resume from each
  other's state;
* :func:`record_line` — the canonical byte serialization of a
  :class:`~repro.streaming.pipeline.TickRecord`.  The sharded-vs-serial
  correctness bar is defined over these bytes: a building's record log
  under the shard runner must equal, byte for byte, the log of a plain
  serial run of that building's pipeline (:func:`run_partition_serial`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro import rng as rng_mod
from repro.errors import StreamingError
from repro.simulation.fleet import BuildingSpec, FleetConfig, build_fleet
from repro.streaming.bus import BusConfig
from repro.streaming.ingest import LiveSimSource
from repro.streaming.pipeline import OnlinePipeline, TickRecord

__all__ = [
    "shard_of",
    "record_line",
    "PartitionSpec",
    "IngestPlan",
    "run_partition_serial",
]


def shard_of(topic: str, n_shards: int) -> int:
    """Stable shard index of ``topic`` under ``n_shards`` shards.

    Uses a keyed-nothing BLAKE2b digest of the topic bytes, so the
    assignment is a pure function of the name — identical in every
    process, on every platform, and across runs — which is what lets a
    respawned shard recover exactly its own partitions.
    """
    if n_shards < 1:
        raise StreamingError("n_shards must be >= 1")
    digest = hashlib.blake2b(topic.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


def record_line(record: TickRecord) -> bytes:
    """Canonical one-line byte serialization of a tick record.

    Keys are sorted and separators fixed, so equal records serialize to
    equal bytes — the unit of the sharded-vs-serial parity contract.
    """
    payload = {
        "index": record.index,
        "updated": record.updated,
        "quarantined": {
            str(sid): record.quarantined[sid] for sid in sorted(record.quarantined)
        },
        "innovation_rms": record.innovation_rms,
        "drift_fired": record.drift_fired,
    }
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "ascii"
    )


@dataclass(frozen=True)
class PartitionSpec:
    """One building's partition: topic, source factory, pipeline factory."""

    topic: str
    building: BuildingSpec
    #: Simulation steps per live chunk (None: the source's 1-day default).
    chunk_steps: Optional[int] = None
    #: Online model order maintained by the partition's pipeline.
    order: int = 2

    def source(self) -> LiveSimSource:
        """A fresh live tick source for this building."""
        return LiveSimSource(building=self.building, chunk_steps=self.chunk_steps)

    def pipeline(self, source: Optional[LiveSimSource] = None) -> OnlinePipeline:
        """A fresh pipeline for this partition, staleness gate armed."""
        source = source or self.source()
        return OnlinePipeline(
            source.sensor_ids,
            source.channels.n_channels,
            order=self.order,
            gate_thresholds=source.default_thresholds(),
        )

    def snapshot_name(self, namespace: str) -> str:
        """This partition's snapshot name under ``namespace``."""
        return f"{namespace}/{self.topic}"

    @property
    def records_name(self) -> str:
        """File name of this partition's record log."""
        return f"{self.topic}.records.jsonl"


@dataclass(frozen=True)
class IngestPlan:
    """Everything one partitioned ingest run is a function of."""

    #: Fleet size (one topic/partition per building).
    n_buildings: int = 4
    #: Simulated days per building.
    days: float = 1.0
    #: Fleet spec-distribution seed (:func:`build_fleet`).
    seed: int = rng_mod.DEFAULT_SEED
    #: Simulation step, seconds (shared across the fleet).
    dt: float = 60.0
    #: Shard processes consuming the partitions.
    n_shards: int = 2
    #: Simulation steps per live chunk (None: 1-day slabs).
    chunk_steps: Optional[int] = None
    #: Online model order per partition.
    order: int = 2
    #: Ticks between partition snapshot reseals.
    snapshot_every_ticks: int = 96
    #: Partition queue bounds and overflow policy.
    bus: BusConfig = field(default_factory=BusConfig)

    def __post_init__(self) -> None:
        if self.n_buildings < 1:
            raise StreamingError("an ingest plan needs at least one building")
        if self.n_shards < 1:
            raise StreamingError("an ingest plan needs at least one shard")
        if self.snapshot_every_ticks < 1:
            raise StreamingError("snapshot_every_ticks must be >= 1")

    def buildings(self) -> Tuple[BuildingSpec, ...]:
        """The fleet members this plan ingests."""
        return build_fleet(
            FleetConfig(
                n_buildings=self.n_buildings,
                days=self.days,
                dt=self.dt,
                seed=self.seed,
            )
        )

    def partitions(self) -> Tuple[PartitionSpec, ...]:
        """One partition per building, in fleet order."""
        return tuple(
            PartitionSpec(
                topic=spec.name,
                building=spec,
                chunk_steps=self.chunk_steps,
                order=self.order,
            )
            for spec in self.buildings()
        )

    def assignment(self) -> Dict[int, Tuple[PartitionSpec, ...]]:
        """Shard index → its partitions (stable-hash routing).

        Every shard index appears, so a shard that hashes to no
        partitions still boots, reports and exits cleanly.
        """
        routed: Dict[int, list] = {shard: [] for shard in range(self.n_shards)}
        for spec in self.partitions():
            routed[shard_of(spec.topic, self.n_shards)].append(spec)
        return {shard: tuple(specs) for shard, specs in routed.items()}

    def namespace(self) -> str:
        """Content-derived snapshot namespace of this plan.

        Hashes every field that changes what a partition's pipeline
        computes, so resuming under the wrong plan is impossible: a
        different plan has a different namespace and simply finds no
        snapshots.  The shard count is deliberately excluded — partition
        state is per building, so a run may resume under a different
        ``n_shards``.
        """
        identity = json.dumps(
            {
                "n_buildings": self.n_buildings,
                "days": self.days,
                "seed": self.seed,
                "dt": self.dt,
                "chunk_steps": self.chunk_steps,
                "order": self.order,
            },
            sort_keys=True,
        )
        digest = hashlib.blake2b(identity.encode("ascii"), digest_size=8).hexdigest()
        return f"ingest-{digest}"


def run_partition_serial(
    spec: PartitionSpec,
    records_path: Union[str, Path],
    should_stop: Optional[Callable[[], bool]] = None,
) -> OnlinePipeline:
    """Run one building's pipeline serially, logging canonical records.

    This is the reference the sharded runner is held to: no bus, no
    shards, no snapshots — just source → pipeline → record log.  Returns
    the finished pipeline (for summaries and tick rates).
    """
    source = spec.source()
    pipeline = spec.pipeline(source)
    path = Path(records_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        for tick in source:
            if should_stop is not None and should_stop():
                break
            handle.write(record_line(pipeline.process(tick)))
    return pipeline
