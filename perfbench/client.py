"""Open-loop load generator for the prediction server.

Requests go out on a fixed schedule, whatever the server does, over at
most two connections: one sender thread paces the schedule with
``time.sleep`` (sub-millisecond on Linux) and one reader thread per
connection timestamps every response line as it arrives.  Latency runs
from the *scheduled* send time to the response, so a stall in the
server (or in this generator) is charged to every request it delays.  A
request that is shed, errored or never answered counts as failed and as
over any latency limit (``inf`` in the latency sample).  Every served
line is byte-compared with the in-process service's answer by a
:class:`~gates.ResponseChecker`.
"""

from __future__ import annotations

import json
import math
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import percentile
from gates import ResponseChecker

#: The two horizons of the request mix: short and the benchmark's maximum.
SHORT_HORIZON = 8
LONG_HORIZON = 64
#: Distinct planned input trajectories per horizon.
PLANS_PER_HORIZON = 16
#: Connections the generator holds open (the host has two CPUs).
N_CONNECTIONS = 2
#: How long to wait for stragglers after the last scheduled send.
DRAIN_TIMEOUT_S = 5.0


class RequestFormat:
    """The request mix over one sealed snapshot: what each request line holds.

    Requests take the two payload shapes ``docs/streaming.md`` documents,
    each with even odds, and either horizon with even odds (no measured
    traffic exists to weigh them otherwise):

    * *held*: ``{"id", "horizon_ticks"}``, inputs held at the snapshot's
      last observed vector, as ``repro loadtest`` sends them;
    * *planned*: ``{"id", "inputs"}``, one of :data:`PLANS_PER_HORIZON`
      seeded trajectories per horizon around that vector, as a
      controller comparing candidate plans would send them.

    A snapshot that holds no buffered state (no observed inputs, no
    trailing temperatures) cannot answer a held request, so over such a
    snapshot every request is planned and carries a seeded ``history``.
    A request is named by its key (``held-8``, ``plan-64-3``, ...).
    """

    def __init__(
        self,
        seed: int,
        order: int,
        n_sensors: int,
        held_inputs: Optional[List[float]],
        n_inputs: int,
    ) -> None:
        rng = random.Random(f"perfbench-serve-request:{seed}")
        self.seed = seed
        self.buffered = held_inputs is not None
        base = held_inputs if self.buffered else [rng.random() for _ in range(n_inputs)]
        extra: Dict[str, object] = {}
        if not self.buffered:
            extra["history"] = [
                [round(21.0 + rng.gauss(0.0, 0.5), 3) for _ in range(n_sensors)]
                for _ in range(order)
            ]
        self._bodies: Dict[str, Dict[str, object]] = {}
        for horizon in (SHORT_HORIZON, LONG_HORIZON):
            if self.buffered:
                self._bodies[f"held-{horizon}"] = {"horizon_ticks": horizon}
            for j in range(PLANS_PER_HORIZON):
                inputs = [
                    [round(u + rng.gauss(0.0, 0.1 * abs(u) + 0.01), 4) for u in base]
                    for _ in range(horizon)
                ]
                self._bodies[f"plan-{horizon}-{j}"] = {"inputs": inputs, **extra}
        # Everything after '{"id": "...", ' of the json.dumps line.
        self._tails = {
            key: json.dumps(body)[1:].encode() + b"\n" for key, body in self._bodies.items()
        }

    def keys(self) -> List[str]:
        return list(self._bodies)

    def payload(self, rid: str, key: str) -> Dict[str, object]:
        return {"id": rid, **self._bodies[key]}

    def line(self, rid: str, key: str) -> bytes:
        """``json.dumps(self.payload(rid, key))`` plus a newline, prebuilt."""
        return b'{"id": ' + json.dumps(rid).encode() + b", " + self._tails[key]

    def mix(self, n: int, prefix: str) -> List[Tuple[str, str]]:
        """``n`` seeded ``(id, key)`` pairs."""
        rng = random.Random(f"perfbench-serve-mix:{self.seed}:{prefix}")
        pairs = []
        for i in range(n):
            horizon = LONG_HORIZON if rng.random() < 0.5 else SHORT_HORIZON
            plan = rng.randrange(PLANS_PER_HORIZON)
            held = self.buffered and rng.random() < 0.5
            key = f"held-{horizon}" if held else f"plan-{horizon}-{plan}"
            pairs.append((f"{prefix}-{i}", key))
        return pairs


@dataclass
class WindowResult:
    """Full accounting of one fixed-rate window."""

    rate_rps: float
    sent: int = 0
    served: int = 0
    shed: int = 0
    errors: int = 0
    lost: int = 0
    #: Responses whose bytes differ from the in-process service's.
    mismatched: List[str] = field(default_factory=list)
    #: Scheduled-send-to-answer seconds; ``inf`` for failed requests.
    latencies_s: List[float] = field(default_factory=list)
    #: Actual minus scheduled send time, seconds, per request.
    late_s: List[float] = field(default_factory=list)
    #: First scheduled send to last answer.
    elapsed_s: float = 0.0
    #: Stats control replies sampled during the window.
    stats: List[Dict[str, object]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.shed + self.errors + self.lost

    def p_ms(self, pct: float) -> float:
        return percentile(self.latencies_s, pct) * 1000.0

    def late_p99_ms(self) -> float:
        return percentile(self.late_s, 99) * 1000.0

    def served_rps(self) -> float:
        return self.served / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def mean_served_ms(self) -> float:
        finite = [v for v in self.latencies_s if math.isfinite(v)]
        return 1000.0 * sum(finite) / len(finite) if finite else math.inf


class _Connection:
    """One socket plus the thread reading its response lines."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.lines: List[Tuple[float, bytes]] = []
        self.thread = threading.Thread(target=self._read, daemon=True)
        self.thread.start()

    def _read(self) -> None:
        stream = self.sock.makefile("rb")
        try:
            for raw in stream:
                self.lines.append((time.perf_counter(), raw))
        except OSError:
            pass  # closed under us at the end of the window

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.thread.join(timeout=10.0)
        self.sock.close()


def _account(
    result: WindowResult,
    replies: List[Tuple[float, bytes]],
    due: Dict[str, float],
    keys: Dict[str, str],
    checker: ResponseChecker,
    start: float,
) -> None:
    """Classify and byte-check every reply line; charge the rest as lost.

    ``due`` maps each sent request's id to the time its latency counts
    from.  A shed, errored or lost request enters the latency sample as
    ``inf``, so it is over any limit.
    """
    answered = set()
    last = start
    for stamp, raw in replies:
        if raw.startswith(b'{"control"'):
            result.stats.append(json.loads(raw).get("stats", {}))
            continue
        rid = ResponseChecker.request_id(raw)
        if rid is None or rid not in due or rid in answered:
            result.errors += 1
            continue
        answered.add(rid)
        last = max(last, stamp)
        if b'"predictions"' in raw:
            result.served += 1
            result.latencies_s.append(stamp - due[rid])
            if not checker.matches(raw, rid, keys[rid]):
                result.mismatched.append(rid)
        elif b'"overloaded"' in raw:
            result.shed += 1
        else:
            result.errors += 1
    result.elapsed_s = last - start
    result.lost = result.sent - len(answered)
    result.latencies_s.extend([math.inf] * (result.sent - result.served))


def run_window(
    port: int,
    requests: List[Tuple[str, str]],
    rate_rps: float,
    fmt: RequestFormat,
    checker: ResponseChecker,
    stats_every_s: Optional[float] = None,
) -> WindowResult:
    """Send ``requests`` at ``rate_rps`` and account for every one."""
    result = WindowResult(rate_rps=rate_rps)
    conns = [_Connection(port) for _ in range(N_CONNECTIONS)]
    due: Dict[str, float] = {}
    interval = 1.0 / rate_rps
    start = time.perf_counter() + 0.05
    next_stats = start
    n_stats = 0
    try:
        for i, (rid, key) in enumerate(requests):
            when = start + i * interval
            delay = when - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sock = conns[i % N_CONNECTIONS].sock
            line = fmt.line(rid, key)
            if stats_every_s is not None and when >= next_stats:
                line = b'{"control": "stats"}\n' + line
                next_stats += stats_every_s
                n_stats += 1
            due[rid] = when
            sock.sendall(line)
            result.late_s.append(time.perf_counter() - when)
            result.sent += 1
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        expected = result.sent + n_stats
        while time.perf_counter() < deadline:
            if sum(len(c.lines) for c in conns) >= expected:
                break
            time.sleep(0.002)
    finally:
        for conn in conns:
            conn.close()
    replies = [line for conn in conns for line in conn.lines]
    _account(result, replies, due, dict(requests), checker, start)
    return result


def run_closed(
    port: int,
    requests: List[Tuple[str, str]],
    in_flight: int,
    fmt: RequestFormat,
    checker: ResponseChecker,
) -> WindowResult:
    """Saturate the server: keep ``in_flight`` requests outstanding per connection.

    A closed loop: each connection sends its next request as soon as
    an answer comes back, so the server sets the pace.  ``served_rps``
    of the result is the server's throughput at that concurrency.  A
    connection that waits :data:`DRAIN_TIMEOUT_S` for an answer stops;
    its unanswered and unsent requests count as lost.
    """
    result = WindowResult(rate_rps=0.0)
    shares = [requests[i::N_CONNECTIONS] for i in range(N_CONNECTIONS)]
    sent_at: Dict[str, float] = {}
    replies: List[List[Tuple[float, bytes]]] = [[] for _ in shares]

    def drive(share: List[Tuple[str, str]], out: List[Tuple[float, bytes]]) -> None:
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(DRAIN_TIMEOUT_S)
            stream = sock.makefile("rb")
            sent = 0

            def send() -> None:
                nonlocal sent
                rid, key = share[sent]
                sent += 1
                sent_at[rid] = time.perf_counter()
                sock.sendall(fmt.line(rid, key))

            while sent < min(in_flight, len(share)):
                send()
            for _ in range(len(share)):
                try:
                    raw = stream.readline()
                except OSError:  # timed out: the server stopped answering
                    return
                if not raw:
                    return
                out.append((time.perf_counter(), raw))
                if sent < len(share):
                    send()

    start = time.perf_counter()
    threads = [
        threading.Thread(target=drive, args=(share, out), daemon=True)
        for share, out in zip(shares, replies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.sent = len(requests)
    due = {rid: sent_at.get(rid, start) for rid, _ in requests}
    _account(result, [r for out in replies for r in out], due, dict(requests), checker, start)
    return result


def ask(port: int, payload: Dict[str, object]) -> bytes:
    """One request on a fresh connection; returns the response line."""
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        with sock.makefile("rb") as stream:
            return stream.readline()
