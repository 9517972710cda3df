"""``serve`` workload: a supervised 2-worker prediction server under load.

Set-up (three times, median reported): a fresh cache directory, then
``repro serve --workers 2 --port 0`` seals the snapshot from a 7-day
trace and boots, up to its first answered request.  The timed legs run
against the last set-up's sealed snapshot:

* cold starts: the server relaunched on the sealed snapshot, launch to
  first answer, five times;
* on each of those servers, after a short warm-up, a fixed-rate window
  at the heavy rate (600 req/s) and a closed loop that keeps 16
  requests in flight per connection (saturation throughput); the last
  server also answers a window at the light rate (250 req/s).  The
  traced run climbs a rate ladder instead of the closed loop, for
  ``serve.max_rps``.

Requests carry a seeded mix of 8- and 64-tick horizons in both payload
shapes the service documents (see :class:`client.RequestFormat`); every
served response, the warm-up's and the first answer of each server
included, is byte-compared with an in-process ``PredictionService``
restored from the same snapshot.
"""

from __future__ import annotations

import json
import math
import os
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from client import RequestFormat, WindowResult, ask, run_closed, run_window
from common import (
    GateFailure,
    Result,
    Workdir,
    pinned_env,
    repro_argv,
    use_cache,
)
from gates import ResponseChecker, service_templates

#: Trace days behind the sealed snapshot.
SNAPSHOT_DAYS = "7"
SNAPSHOT_NAME = "serve"
#: Fixed offered rates, req/s.
LIGHT_RPS = 250.0
HEAVY_RPS = 600.0
#: Ladder step (ratio between rungs) and bisection rounds at the knee.
LADDER_STEP = 1.5
BISECT_ROUNDS = 4
#: A rung passes only under all of these.
P99_LIMIT_MS = 10.0
#: The generator "falls behind" when its p99 lateness exceeds this.
GEN_LATE_LIMIT_MS = 5.0
#: Requests per measured window: enough for ten samples beyond p99.
MIN_REQUESTS = 1000
#: Seconds per ladder rung above ``MIN_REQUESTS / RUNG_S`` req/s.
RUNG_S = 1.0
#: Requests each server answers at the heavy rate before anything is measured.
WARMUP_REQUESTS = 100
#: Saturation: a closed loop with this many requests in flight per connection.
IN_FLIGHT = 16
SATURATION_REQUESTS = 8000
SETUP_REPEATS = 3
COLD_REPEATS = 5


class Server:
    """One ``repro serve --workers 2`` process."""

    def __init__(self, cache: Path, seed: int) -> None:
        self.proc = subprocess.Popen(
            repro_argv(
                "serve", "--workers", "2", "--port", "0",
                "--days", SNAPSHOT_DAYS, "--seed", str(seed),
            ),
            env=pinned_env(cache),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.port: Optional[int] = None
        self.peak_rss_mb = 0.0

    def wait_port(self, timeout_s: float = 120.0) -> None:
        """Block until the server listens (its snapshot is sealed by then)."""
        timer = threading.Timer(timeout_s, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line.startswith("serving on "):
            raise RuntimeError(f"server did not come up: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def first_answer(self, served: "Served") -> None:
        """One request, whose answer must match the in-process service's."""
        key = served.fmt.keys()[0]
        reply = ask(self.port, served.fmt.payload("boot", key))
        if not served.checker.matches(reply, "boot", key):
            raise GateFailure(
                f"the server's first answer differs from the in-process service's: {reply!r}"
            )

    def stats(self) -> Dict[str, object]:
        return json.loads(ask(self.port, {"control": "stats"}))["stats"]

    def stop(self) -> None:
        """Graceful drain, then reap; records the tree's peak RSS."""
        if self.proc.returncode is not None:
            return
        try:
            if self.port is None:
                raise ConnectionError("the server never listened")
            ask(self.port, {"control": "shutdown"})
        except (ConnectionError, OSError):
            self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(60.0, self.proc.kill)
        timer.start()
        try:
            self.proc.stdout.read()
            self.proc.stdout.close()
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        finally:
            timer.cancel()


class Served:
    """The request format and the response checker for one sealed snapshot."""

    def __init__(self, cache: Path, seed: int) -> None:
        from repro.streaming import load_snapshot

        use_cache(cache)
        self.pipeline = load_snapshot(SNAPSHOT_NAME, required=True)
        estimator = self.pipeline.estimator
        held = estimator.last_inputs()
        buffered = held is not None and estimator.history() is not None
        self.fmt = RequestFormat(
            seed,
            self.pipeline.order,
            len(self.pipeline.sensor_ids),
            held.tolist() if buffered else None,
            estimator.n_inputs,
        )
        self.checker = ResponseChecker(service_templates(self.pipeline, self.fmt, 672))


def _boot(cache: Path, seed: int, served: Optional[Served] = None) -> Tuple[Server, float, Served]:
    """Launch a server on ``cache``; time to its first answer.

    The server prints its port once its workers are up.  Without
    ``served`` (a set-up from an empty cache) the request format and the
    references are then read from the snapshot the server just sealed;
    that is the benchmark's own work, so the clock stops while it runs.
    """
    started = time.perf_counter()
    server = Server(cache, seed)
    booted = False
    try:
        server.wait_port()
        took = time.perf_counter() - started
        served = served or Served(cache, seed)
        asked = time.perf_counter()
        server.first_answer(served)
        took += time.perf_counter() - asked
        booted = True
    finally:
        if not booted:
            server.stop()
    return server, took, served


@dataclass
class Ladder:
    """The rate ladder's rungs, in the order they ran."""

    rungs: List[WindowResult]
    max_rps: float


def _passes(window: WindowResult) -> bool:
    return (
        window.failed == 0
        and window.p_ms(99) <= P99_LIMIT_MS
        and window.late_p99_ms() <= GEN_LATE_LIMIT_MS
    )


def _window(port, rate, tag, served, stats_every=None, n=None) -> WindowResult:
    n = n or max(MIN_REQUESTS, int(rate * RUNG_S))
    return run_window(port, served.fmt.mix(n, tag), rate, served.fmt, served.checker, stats_every)


def _ladder(port: int, served: Served) -> Ladder:
    """Highest rate meeting every limit: climb from 2.25x the heavy rate, then bisect.

    A failing rung is run once more before the climb stops, so one
    scheduling hiccup on a shared host does not end the ladder early.
    """
    rungs: List[WindowResult] = []
    passed: Optional[WindowResult] = None

    def attempt(rate: float, tries: int) -> bool:
        nonlocal passed
        for _ in range(tries):
            window = _window(port, rate, f"R{len(rungs)}", served)
            rungs.append(window)
            if _passes(window):
                if passed is None or rate > passed.rate_rps:
                    passed = window
                return True
        return False

    rate = HEAVY_RPS * LADDER_STEP**2
    while attempt(rate, tries=2):
        rate *= LADDER_STEP
    high = rate
    if passed is None:  # even the first rung fails: walk down
        while rate > 50.0 and not attempt(rate, tries=1):
            high, rate = rate, rate / LADDER_STEP
    if passed is None:
        raise RuntimeError("no ladder rate met the limits")
    for _ in range(BISECT_ROUNDS):
        rate = math.sqrt(passed.rate_rps * high)
        if not attempt(rate, tries=1):
            high = rate
    return Ladder(rungs, passed.served_rps())


def _gate(windows: List[WindowResult]) -> None:
    for window in windows:
        if window.mismatched:
            raise GateFailure(
                f"{len(window.mismatched)} served responses at {window.rate_rps:.0f} "
                f"req/s differ from the in-process service (first: "
                f"{window.mismatched[0]})"
            )


def _pooled(windows: List[WindowResult]) -> WindowResult:
    pooled = WindowResult(rate_rps=windows[0].rate_rps)
    for window in windows:
        pooled.sent += window.sent
        pooled.latencies_s.extend(window.latencies_s)
        pooled.late_s.extend(window.late_s)
    return pooled


def run(seed: int, seconds: int, trace: bool, work: Workdir, result: Result) -> None:
    """Measure the end-to-end legs, or (``trace``) collect what the traced run needs.

    The traced run also climbs the rate ladder for ``serve.max_rps``;
    the timed run measures saturation throughput instead (see README).
    """
    setups: List[float] = []
    for _ in range(1 if trace else SETUP_REPEATS):
        cache = work.fresh("serve-cache")
        server, took, served = _boot(cache, seed)
        setups.append(took)
        server.stop()

    colds: List[float] = []
    warmups: List[WindowResult] = []
    heavies: List[WindowResult] = []
    loaded: List[WindowResult] = []
    n_servers = 1 if trace else COLD_REPEATS
    for k in range(n_servers):
        server, took, _ = _boot(cache, seed, served)
        colds.append(took)
        try:
            warmups.append(
                _window(server.port, HEAVY_RPS, f"W{k}", served, n=WARMUP_REQUESTS)
            )
            if k == n_servers - 1:
                light = _window(server.port, LIGHT_RPS, f"L{k}", served)
            heavies.append(
                _window(
                    server.port, HEAVY_RPS, f"H{k}", served,
                    stats_every=0.1 if trace else None,
                )
            )
            if trace:
                final_stats = server.stats()
                ladder = _ladder(server.port, served)
                loaded = ladder.rungs
            else:
                # One saturation leg per server spreads them over the run.
                requests = served.fmt.mix(SATURATION_REQUESTS, f"S{k}")
                loaded.append(
                    run_closed(server.port, requests, IN_FLIGHT, served.fmt, served.checker)
                )
        finally:
            server.stop()
    # Each boot's first answer is one more (byte-checked) request.
    result.attempted += len(setups) + len(colds)
    # The ladder's failing rungs are overload probes, not failed operations.
    counted = warmups + [light] + heavies + [w for w in loaded if not trace or _passes(w)]
    for window in counted:
        result.attempted += window.sent
        result.failed += window.failed
    _gate(warmups + [light] + heavies + loaded)
    if not served.fmt.buffered:
        result.note(
            "serve: the sealed snapshot holds no buffered state, so every request "
            "is planned and carries its own history (no horizon_ticks requests)"
        )
    heavy = _pooled(heavies)
    result.note(
        f"serve.light.p50_ms {light.p_ms(50):.3f} ms, serve.light.p99_ms "
        f"{light.p_ms(99):.3f} ms ({light.sent} requests at {LIGHT_RPS:.0f} req/s, "
        f"generator p99 late {light.late_p99_ms():.3f} ms)"
    )
    result.note(
        f"serve.heavy.p50_ms {heavy.p_ms(50):.3f} ms, serve.heavy.p99_ms "
        f"{heavy.p_ms(99):.3f} ms ({heavy.sent} requests at {HEAVY_RPS:.0f} req/s over "
        f"{len(heavies)} servers, generator p99 late {heavy.late_p99_ms():.3f} ms)"
    )
    if trace:
        result.extra.update(light=light, heavy=heavies[0], stats=final_stats, served=served)
        for rung in ladder.rungs:
            result.note(
                f"  rung {rung.rate_rps:7.1f} req/s: p50 {rung.p_ms(50):.3f} ms, p99 "
                f"{rung.p_ms(99):.3f} ms, shed {rung.shed}, errors {rung.errors}, "
                f"lost {rung.lost}, late p99 {rung.late_p99_ms():.3f} ms"
                f"{'' if _passes(rung) else '  (over the limits)'}"
            )
        result.note(f"serve.max_rps {ladder.max_rps:.1f} req/s")
        return

    rates = [w.served_rps() for w in loaded]
    result.put("setup_s", statistics.median(setups), "s")
    result.put("cold_s", statistics.median(colds), "s")
    # Latency at the fixed rates swings by 15-30 % from run to run on a
    # shared 2-CPU host (idle-CPU wake-ups); under saturation it is as
    # steady as the throughput, so that is the gated serving latency.
    result.put("warm_s", statistics.median(w.p_ms(50) for w in loaded) / 1000.0, "s")
    result.put("rate_per_s", statistics.median(rates), "1/s")
    result.put("peak_rss_mb", server.peak_rss_mb, "MB")
    result.note(
        f"serve: setup {statistics.median(setups):.3f} s (x{len(setups)}), cold start "
        f"{statistics.median(colds):.3f} s (x{len(colds)}), peak RSS "
        f"{server.peak_rss_mb:.1f} MB"
    )
    result.note(
        f"serve saturation: {statistics.median(rates):.1f} req/s answered with "
        f"{IN_FLIGHT} in flight per connection (x{len(rates)}: "
        + ", ".join(f"{r:.0f}" for r in rates)
        + f"), p50 latency {statistics.median(w.p_ms(50) for w in loaded):.3f} ms"
    )
