"""A local partitioned event bus: per-building topics, bounded queues.

The paper's online story is one auditorium's sensors feeding one
pipeline; the fleet axis multiplies that into thousands of sensors
across many buildings.  This module is the fan-in layer between the
producers (one building's ticks each, drawn from a single batched
:class:`~repro.simulation.fleet.FleetSimulator` pass per shard) and the
per-partition consumers (one full gate→RLS→drift
:class:`~repro.streaming.pipeline.OnlinePipeline` each, run by the
shard layer in :mod:`repro.streaming.shards`).

The shape follows the Event-Hub producer pattern (one topic per
building, partition-per-key routing) implemented locally:

* an :class:`EventBus` owns one :class:`Partition` per topic, created
  on first publish;
* partitions are bounded FIFO queues with an explicit overflow policy —
  ``block`` refuses the offer (the producer must let the consumer
  drain: *backpressure*), ``drop_oldest`` evicts the head,
  ``drop_newest`` discards the offered tick — and every outcome is
  accounted in :class:`PartitionStats`.

Because partitions are strictly FIFO per topic and consumers are
per-partition, no interleaving (and no overflow policy short of a
drop) can change what one building's pipeline sees — that is the
bus-level half of the sharded-vs-serial byte-parity contract.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro.errors import StreamingError
from repro.streaming.ingest import StreamTick

__all__ = [
    "BusConfig",
    "PartitionStats",
    "Partition",
    "EventBus",
]

#: Valid partition overflow policies.
OVERFLOW_POLICIES = ("block", "drop_oldest", "drop_newest")


@dataclass(frozen=True)
class BusConfig:
    """Bounds and overflow policy shared by every partition of a bus."""

    #: Most ticks one partition may buffer (queued, not yet consumed).
    max_queue_ticks: int = 256
    #: What a full partition does with the next offer: ``block``
    #: (refuse — lossless backpressure, the ingest runner's default),
    #: ``drop_oldest`` or ``drop_newest`` (lossy, but accounted).
    policy: str = "block"

    def __post_init__(self) -> None:
        if self.max_queue_ticks < 1:
            raise StreamingError("max_queue_ticks must be >= 1")
        if self.policy not in OVERFLOW_POLICIES:
            raise StreamingError(
                f"unknown overflow policy {self.policy!r}; "
                f"expected one of {OVERFLOW_POLICIES}"
            )


@dataclass
class PartitionStats:
    """Full accounting of one partition's traffic."""

    published: int = 0
    consumed: int = 0
    #: Ticks lost to a drop policy (``drop_oldest``/``drop_newest``).
    dropped: int = 0
    #: Offers refused by a full queue under the ``block`` policy.
    blocked: int = 0
    #: Deepest the queue has ever been.
    high_water: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict form for reports and the CLI."""
        return {
            "published": self.published,
            "consumed": self.consumed,
            "dropped": self.dropped,
            "blocked": self.blocked,
            "high_water": self.high_water,
        }


class Partition:
    """One topic's bounded FIFO tick queue with overflow accounting."""

    def __init__(self, topic: str, config: BusConfig) -> None:
        """An empty partition for ``topic`` under ``config``'s bounds."""
        if not topic:
            raise StreamingError("a partition needs a non-empty topic")
        self.topic = topic
        self.config = config
        self.stats = PartitionStats()
        self._queue: Deque[StreamTick] = deque()

    def __len__(self) -> int:
        """Ticks currently buffered."""
        return len(self._queue)

    def offer(self, tick: StreamTick) -> bool:
        """Publish one tick; returns whether it was accepted.

        Under ``block`` a full queue refuses the offer (returns
        ``False``, counts ``blocked``) — the producer must drain the
        consumer side and retry; the tick is never silently lost.
        Under the drop policies the offer always "succeeds" but a tick
        is lost and counted: the oldest buffered one (``drop_oldest``)
        or the offered one itself (``drop_newest``).
        """
        if len(self._queue) >= self.config.max_queue_ticks:
            if self.config.policy == "block":
                self.stats.blocked += 1
                return False
            self.stats.dropped += 1
            if self.config.policy == "drop_newest":
                return True
            self._queue.popleft()
        self._queue.append(tick)
        self.stats.published += 1
        if len(self._queue) > self.stats.high_water:
            self.stats.high_water = len(self._queue)
        return True

    def poll(self) -> Optional[StreamTick]:
        """Consume the oldest buffered tick (``None`` when empty)."""
        if not self._queue:
            return None
        self.stats.consumed += 1
        return self._queue.popleft()


class EventBus:
    """Per-topic partitions behind one publish/poll surface."""

    def __init__(self, config: Optional[BusConfig] = None) -> None:
        """An empty bus; partitions are created on first use."""
        self.config = config or BusConfig()
        self._partitions: Dict[str, Partition] = {}

    @property
    def topics(self) -> Tuple[str, ...]:
        """Topics seen so far, in sorted order."""
        return tuple(sorted(self._partitions))

    def partition(self, topic: str) -> Partition:
        """The partition for ``topic`` (created on demand)."""
        part = self._partitions.get(topic)
        if part is None:
            part = Partition(topic, self.config)
            self._partitions[topic] = part
        return part

    def publish(self, topic: str, tick: StreamTick) -> bool:
        """Offer one tick to ``topic``'s partition (see :meth:`Partition.offer`)."""
        return self.partition(topic).offer(tick)

    def backlog(self) -> int:
        """Total ticks buffered across every partition."""
        return sum(len(part) for part in self._partitions.values())

    def stats(self) -> Dict[str, PartitionStats]:
        """Per-topic stats, keyed by topic."""
        return {topic: self._partitions[topic].stats for topic in self.topics}

    def stats_dict(self) -> Dict[str, Dict[str, int]]:
        """JSON-ready per-topic stats."""
        return {topic: stats.as_dict() for topic, stats in self.stats().items()}
