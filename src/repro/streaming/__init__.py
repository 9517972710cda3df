"""Online streaming subsystem: the deployment phase, live.

The batch pipeline (screen → cluster → select → identify) runs on a
recorded dataset; this package runs the same mathematics against a tick
stream:

* :mod:`repro.streaming.ingest` — replay a dataset (or CSV) as
  timestamped ticks, or stream them live off the chunked simulator
  through an event-level sensing model (:class:`LiveSimSource`), and
  gate each reading for physical plausibility and staleness.
* :mod:`repro.streaming.rls` — recursive least squares maintaining the
  Eq. 1 / Eq. 2 parameter vectors incrementally; on a static stream the
  final weights match the batch fit to numerical precision.
* :mod:`repro.streaming.drift` — CUSUM innovation monitoring with a
  provable detection-delay bound, plus a cluster-consistency check that
  recommends re-clustering when the training-phase structure decays.
* :mod:`repro.streaming.pipeline` — the composed gate → estimator →
  monitors object with snapshot-friendly state.
* :mod:`repro.streaming.service` — a bounded-queue, micro-batching
  predict-ahead service (the ``repro serve`` backend).
* :mod:`repro.streaming.state` — snapshot/restore of a live pipeline
  through the artifact cache.
* :mod:`repro.streaming.supervisor` — a supervised multi-process worker
  pool (request routing, timeout retry on a different worker, explicit
  load-shedding) on the supervision core :mod:`repro.core.supervise`.
* :mod:`repro.streaming.server` — the asyncio JSON-lines TCP front end
  over that pool (``repro serve --workers N --port P``).
* :mod:`repro.streaming.shutdown` — cooperative SIGINT/SIGTERM handling
  so stream loops drain and snapshot instead of dying mid-tick.
* :mod:`repro.streaming.bus` — a local partitioned event bus: one
  bounded topic/partition per building, explicit backpressure/drop
  accounting, seeded deterministic producer interleaving.
* :mod:`repro.streaming.partition` — ingestion planning: stable
  topic→shard hashing, per-building partition specs, the canonical
  tick-record byte serialization and the serial reference runner.
* :mod:`repro.streaming.shards` — the shared-nothing shard runner:
  K worker processes on the same supervision core, each owning their
  partitions end to end, with crash respawn from per-partition
  snapshots and graceful drain (``repro ingest --buildings B --shards K``).
"""

from __future__ import annotations

from repro.streaming.bus import (
    BusConfig,
    EventBus,
    Partition,
    PartitionStats,
)
from repro.streaming.drift import (
    ClusterConsistencyMonitor,
    CusumDriftDetector,
    DriftConfig,
)
from repro.streaming.ingest import (
    GatedTick,
    GateThresholds,
    LiveSensing,
    LiveSimSource,
    ReplaySource,
    StreamTick,
    TickGate,
    building_sensor_layout,
)
from repro.streaming.partition import (
    IngestPlan,
    PartitionSpec,
    record_line,
    run_partition_serial,
    shard_of,
)
from repro.streaming.pipeline import OnlinePipeline, StreamSummary, TickRecord
from repro.streaming.rls import OnlineModelEstimator, RecursiveLeastSquares
from repro.streaming.service import (
    PredictionRequest,
    PredictionResponse,
    PredictionService,
    ServiceConfig,
    ServiceStats,
    build_request,
)
from repro.streaming.server import PredictionServer, ServerConfig, ServerStats, run_server
from repro.streaming.shards import (
    IngestReport,
    ShardRunnerOptions,
    run_ingest,
    run_serial,
    verify_parity,
)
from repro.streaming.shutdown import GracefulShutdown
from repro.streaming.state import load_snapshot, save_snapshot, snapshot_key
from repro.streaming.supervisor import PoolStats, Supervisor, WorkerPoolConfig

__all__ = [
    "StreamTick",
    "ReplaySource",
    "LiveSimSource",
    "LiveSensing",
    "building_sensor_layout",
    "GateThresholds",
    "GatedTick",
    "TickGate",
    "BusConfig",
    "PartitionStats",
    "Partition",
    "EventBus",
    "IngestPlan",
    "PartitionSpec",
    "shard_of",
    "record_line",
    "run_partition_serial",
    "ShardRunnerOptions",
    "IngestReport",
    "run_ingest",
    "run_serial",
    "verify_parity",
    "RecursiveLeastSquares",
    "OnlineModelEstimator",
    "DriftConfig",
    "CusumDriftDetector",
    "ClusterConsistencyMonitor",
    "OnlinePipeline",
    "StreamSummary",
    "TickRecord",
    "ServiceConfig",
    "PredictionRequest",
    "PredictionResponse",
    "PredictionService",
    "ServiceStats",
    "build_request",
    "snapshot_key",
    "save_snapshot",
    "load_snapshot",
    "GracefulShutdown",
    "WorkerPoolConfig",
    "PoolStats",
    "Supervisor",
    "ServerConfig",
    "ServerStats",
    "PredictionServer",
    "run_server",
]
