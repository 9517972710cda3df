"""Request/response prediction service over the online model.

The deployment-phase product: given the current online model and a
planned VAV/occupancy/lighting/ambient input trajectory, answer
"what will the selected sensors read over the next N ticks?".

Design points:

* **Bounded queue** — :meth:`PredictionService.submit` refuses work
  beyond ``max_queue`` with the typed
  :class:`repro.errors.ServiceOverloadError`; backpressure is explicit,
  never an unbounded backlog.
* **Micro-batching** — :meth:`PredictionService.drain` answers up to
  ``max_batch`` queued requests against *one* model snapshot, so a
  batch amortizes the snapshot cost.  Each request is still answered by
  the same pure function a lone request gets, so batched responses are
  byte-identical to single-request responses (asserted by the tests).
* **Counters** — per-request latency and service throughput accumulate
  in :class:`ServiceStats` for operational visibility.

The service is deliberately transport-free: the CLI (``repro serve``)
speaks JSON-lines over stdin/stdout, tests drive it in-process, and a
network front end would wrap :meth:`submit`/:meth:`drain` the same way.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import ServiceOverloadError, StreamingError
from repro.streaming.pipeline import OnlinePipeline

__all__ = [
    "ServiceConfig",
    "PredictionRequest",
    "PredictionResponse",
    "ServiceStats",
    "PredictionService",
    "build_request",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Queueing and batching limits of the prediction service."""

    #: Most requests allowed to wait; submit beyond this raises.
    max_queue: int = 64
    #: Most requests answered per drain against one model snapshot.
    max_batch: int = 8
    #: Longest accepted prediction horizon, ticks (672 = one week at 15 min).
    max_horizon_ticks: int = 672

    def __post_init__(self) -> None:
        if self.max_queue < 1 or self.max_batch < 1:
            raise StreamingError("max_queue and max_batch must be positive")
        if self.max_horizon_ticks < 1:
            raise StreamingError("max_horizon_ticks must be positive")


@dataclass(frozen=True)
class PredictionRequest:
    """One predict-ahead request.

    ``horizon_inputs`` is the planned input trajectory ``u(k)``, shape
    ``(N, m)``; ``history`` optionally overrides the service's live
    temperature buffer as the simulation seed (shape ``(order, p)``).
    """

    request_id: str
    horizon_inputs: np.ndarray
    history: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        horizon = np.asarray(self.horizon_inputs, dtype=float)
        if horizon.ndim != 2:
            raise StreamingError("horizon_inputs must be a 2-D (N, m) array")
        object.__setattr__(self, "horizon_inputs", horizon)
        if self.history is not None:
            history = np.asarray(self.history, dtype=float)
            if history.ndim != 2:
                raise StreamingError("history must be a 2-D (order, p) array")
            object.__setattr__(self, "history", history)


@dataclass(frozen=True)
class PredictionResponse:
    """The service's answer to one request."""

    request_id: str
    #: Predicted temperatures, shape ``(N, p)``.
    predictions: np.ndarray
    #: RLS rows absorbed by the model that answered.
    n_model_updates: int
    #: Wall-clock seconds from submit to answer.
    latency_s: float

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable form (used by the ``repro serve`` CLI)."""
        return {
            "id": self.request_id,
            "predictions": self.predictions.tolist(),
            "n_model_updates": int(self.n_model_updates),
            "latency_s": float(self.latency_s),
        }


@dataclass
class ServiceStats:
    """Operational counters of a prediction service."""

    served: int = 0
    #: Requests refused because they were invalid (bad horizon, shape).
    rejected: int = 0
    #: Requests shed by backpressure: the bounded queue was full.
    shed: int = 0
    batches: int = 0
    total_latency_s: float = 0.0
    #: Wall-clock seconds spent inside drain calls.
    busy_s: float = 0.0

    @property
    def mean_latency_s(self) -> float:
        """Mean submit-to-answer latency over served requests."""
        return self.total_latency_s / self.served if self.served else 0.0

    def throughput_rps(self) -> float:
        """Requests served per second of drain time."""
        return self.served / self.busy_s if self.busy_s > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for reports and the CLI."""
        return {
            "served": self.served,
            "rejected": self.rejected,
            "shed": self.shed,
            "batches": self.batches,
            "mean_latency_s": self.mean_latency_s,
            "throughput_rps": self.throughput_rps(),
        }


@dataclass
class _Pending:
    """A queued request plus its submission timestamp."""

    request: PredictionRequest
    submitted_at: float = 0.0


class PredictionService:
    """Micro-batching predict-ahead service over an online pipeline."""

    def __init__(
        self, pipeline: OnlinePipeline, config: Optional[ServiceConfig] = None
    ) -> None:
        """Serve predictions from ``pipeline``'s live model."""
        self.pipeline = pipeline
        self.config = config or ServiceConfig()
        self._queue: List[_Pending] = []
        self.stats = ServiceStats()
        self._auto_ids = itertools.count(1)

    @property
    def pending(self) -> int:
        """Requests currently waiting in the queue."""
        return len(self._queue)

    def submit(self, request: PredictionRequest) -> None:
        """Queue one request; raises when the bounded queue is full.

        An invalid request counts as ``rejected``; a request refused
        only because the bounded queue is full counts as ``shed`` — the
        two failure modes are separated so operators can tell bad
        clients from genuine overload.
        """
        horizon = request.horizon_inputs.shape[0]
        if horizon < 1 or horizon > self.config.max_horizon_ticks:
            self.stats.rejected += 1
            raise StreamingError(
                f"horizon of {horizon} ticks outside [1, {self.config.max_horizon_ticks}]"
            )
        if len(self._queue) >= self.config.max_queue:
            self.stats.shed += 1
            raise ServiceOverloadError(
                f"request queue full ({self.config.max_queue} pending)"
            )
        self._queue.append(_Pending(request=request, submitted_at=time.perf_counter()))

    def _answer(
        self, request: PredictionRequest, model, history: Optional[np.ndarray]
    ) -> np.ndarray:
        """Pure per-request prediction against a fixed model snapshot."""
        seed = request.history if request.history is not None else history
        if seed is None:
            raise StreamingError(
                "request carries no history and the pipeline has no buffered state"
            )
        return model.simulate(seed, request.horizon_inputs)

    def drain(self) -> List[PredictionResponse]:
        """Answer up to ``max_batch`` queued requests against one snapshot.

        Returns responses in submission order.  An empty queue returns
        an empty list; callers loop until then to flush everything.
        """
        if not self._queue:
            return []
        started = time.perf_counter()
        batch = self._queue[: self.config.max_batch]
        del self._queue[: len(batch)]
        model = self.pipeline.model()
        history = self.pipeline.estimator.history()
        n_updates = self.pipeline.estimator.n_updates
        responses: List[PredictionResponse] = []
        for pending in batch:
            predictions = self._answer(pending.request, model, history)
            answered_at = time.perf_counter()
            latency = answered_at - pending.submitted_at
            responses.append(
                PredictionResponse(
                    request_id=pending.request.request_id,
                    predictions=predictions,
                    n_model_updates=n_updates,
                    latency_s=latency,
                )
            )
            self.stats.served += 1
            self.stats.total_latency_s += latency
        self.stats.batches += 1
        self.stats.busy_s += time.perf_counter() - started
        return responses

    def handle(self, request: PredictionRequest) -> PredictionResponse:
        """Submit one request and answer it immediately (batch of one)."""
        self.submit(request)
        return self.drain()[-1]

    def next_request_id(self) -> str:
        """A fresh id for payloads that did not bring their own."""
        return f"req-{next(self._auto_ids)}"


def build_request(
    payload: Dict[str, Any],
    fallback_inputs: Optional[np.ndarray],
    request_id: str,
    max_horizon_ticks: int,
    buffered_history: bool = True,
) -> PredictionRequest:
    """Turn a JSON payload into a validated request.

    Accepted fields: ``id`` (optional), ``horizon_ticks`` (with inputs
    held at ``fallback_inputs`` — typically the last observed input
    vector), or an explicit ``inputs`` matrix.  ``history`` optionally
    seeds the simulation; it is required when ``buffered_history`` is
    false (the serving pipeline holds no temperature buffer to seed
    from), so such a request is refused here instead of failing the
    whole micro-batch in :meth:`PredictionService.drain`.
    """
    rid = str(payload.get("id", request_id))
    if "inputs" in payload:
        horizon_inputs = np.asarray(payload["inputs"], dtype=float)
    elif "horizon_ticks" in payload:
        horizon = int(payload["horizon_ticks"])
        if not 1 <= horizon <= max_horizon_ticks:
            raise StreamingError(
                f"horizon_ticks {horizon} outside [1, {max_horizon_ticks}]"
            )
        if fallback_inputs is None:
            raise StreamingError(
                "horizon_ticks requests need observed inputs to hold; none available"
            )
        horizon_inputs = np.tile(fallback_inputs, (horizon, 1))
    else:
        raise StreamingError("request payload needs 'inputs' or 'horizon_ticks'")
    history = payload.get("history")
    if history is None and not buffered_history:
        raise StreamingError(
            "request carries no history and the pipeline has no buffered state"
        )
    return PredictionRequest(
        request_id=rid,
        horizon_inputs=horizon_inputs,
        history=None if history is None else np.asarray(history, dtype=float),
    )
