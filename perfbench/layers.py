"""The traced run: per-layer metrics, coverage and tracing overhead.

Separate from the timed legs.  Spans come from :mod:`tracer`, which
wraps the program's public functions from outside ``src/``:

* ``report``: a second cold ``repro report --jobs 2`` process (and one
  warm replay) launched through the tracer; its ``fork`` children (the
  worker pools and the trace worker) inherit the wrappers.
* ``ingest``: shard processes are ``spawn`` children and cannot be
  wrapped from outside, so ``shard_main`` runs for each shard of the
  same plan in this process, one after another, with stand-ins for the
  heartbeat, result queue and stop event.
* ``serve``: the request sequence of the light and heavy windows is
  replayed through an in-process ``PredictionService`` restored from the
  same snapshot, which gives compute and serialization per request;
  queue wait plus IPC is client latency minus those two.

Every per-layer metric is printed on every workload; a layer the
workload does not exercise reads 0 there.  Coverage is the time within
the traced wall time during which some named layer's span was open
(the catch-all task and context spans do not count), divided by that
wall time; overhead is traced wall time over untraced wall time, minus 1.
"""

from __future__ import annotations

import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import tracer
from common import (
    GateFailure,
    Result,
    Workdir,
    declared_metrics,
    pinned_env,
    percentile,
    use_cache,
)
from tracer import Span, by_name, covered_s, read_spans

TRACER_SCRIPT = Path(tracer.__file__).resolve()
#: Spans that wrap whole units of work rather than one layer's calls.
CATCH_ALL_SPANS = frozenset({"experiments.task", "experiments.context"})


def _busy(spans: List[Span]) -> float:
    return sum(s.duration for s in spans)


def _total(spans: List[Span]) -> int:
    return sum(int(s.extra) for s in spans if s.extra.isdigit())


def _self_time(outer: List[Span], spans: List[Span]) -> float:
    """Time inside ``outer`` spans that no named layer's span in the same process covers."""
    layered: Dict[int, List[Span]] = {}
    for s in spans:
        if s.name not in CATCH_ALL_SPANS:
            layered.setdefault(s.pid, []).append(s)
    return sum(
        s.duration - covered_s(layered.get(s.pid, []), s.start, s.end) for s in outer
    )


def _ratio(spans: List[Span]) -> float:
    return sum(s.extra == "1" for s in spans) / len(spans) if spans else 0.0


class Layers:
    """Every per-layer metric, zero until a workload measures it."""

    def __init__(self, declared: Dict[str, str], experiment_ids: List[str]) -> None:
        self.declared = declared
        self.values: Dict[str, Tuple[float, str]] = {
            name: (0.0, unit) for name, unit in declared.items()
        }
        self.experiment_ids = experiment_ids

    def set(self, name: str, value: float) -> None:
        if name not in self.declared:
            raise KeyError(f"per-layer metric {name} is not declared in BENCHMARK.json")
        self.values[name] = (float(value), self.declared[name])

    def from_spans(self, spans: List[Span]) -> None:
        """The layers every workload's spans can feed."""
        g = by_name(spans)
        get = lambda name: g.get(name, [])  # noqa: E731
        solo, fleet = get("simulation.solo"), get("simulation.fleet")
        self.set("simulation.solo_busy_s", _busy(solo))
        self.set("simulation.solo_steps_per_s", _total(solo) / _busy(solo) if solo else 0.0)
        self.set("simulation.fleet_busy_s", _busy(fleet))
        self.set(
            "simulation.fleet_building_steps_per_s",
            _total(fleet) / _busy(fleet) if fleet else 0.0,
        )
        self.set("sensing.observe_busy_s", _busy(get("sensing.observe")))
        self.set("sensing.live_ticks_busy_s", _busy(get("sensing.live_ticks")))
        self.set("data.assemble_busy_s", _busy(get("data.assemble")))
        self.set("data.screen_busy_s", _busy(get("data.screen")))
        for name in ("cluster_sensors", "cluster_mean_trace"):
            self.set(f"cluster.{name}_calls", len(get(f"cluster.{name}")))
            self.set(f"cluster.{name}_busy_s", _busy(get(f"cluster.{name}")))
        for name in ("reduced_model_errors", "cluster_mean_errors"):
            self.set(f"selection.{name}_busy_s", _busy(get(f"selection.{name}")))
        for name in ("identify", "simulate"):
            self.set(f"sysid.{name}_calls", len(get(f"sysid.{name}")))
            self.set(f"sysid.{name}_busy_s", _busy(get(f"sysid.{name}")))
        loads, stores = get("core.artifacts.load"), get("core.artifacts.store")
        for kind, group in (("load", loads), ("store", stores)):
            self.set(f"core.artifacts.{kind}_calls", len(group))
            self.set(f"core.artifacts.{kind}_bytes", _total(group))
            self.set(f"core.artifacts.{kind}_busy_s", _busy(group))
        hits = sum(s.extra != "miss" for s in loads)
        self.set("core.artifacts.hit_ratio", hits / len(loads) if loads else 0.0)
        self.set("core.artifacts.source_digest_s", _busy(get("core.artifacts.source_digest")))
        gate, rls = get("streaming.gate"), get("streaming.rls")
        self.set("streaming.gate.busy_s", _busy(gate))
        self.set("streaming.gate.quarantined_ratio", _ratio(gate))
        self.set("streaming.rls.busy_s", _busy(rls))
        self.set("streaming.rls.update_ratio", _ratio(rls))
        self.set("streaming.drift.busy_s", _busy(get("streaming.drift")))
        records, seals = get("streaming.records"), get("streaming.state.seal")
        self.set("streaming.records.busy_s", _busy(records))
        self.set("streaming.records.bytes", _total(records))
        self.set("streaming.state.seal_calls", len(seals))
        self.set("streaming.state.seal_busy_s", _busy(seals))
        self.set("streaming.state.seal_bytes", _total(seals))

    def experiments(self, spans: List[Span], graph_deps: Dict[str, Tuple[str, ...]],
                    context_end: float, window_start: float, jobs: int) -> None:
        tasks = by_name(spans).get("experiments.task", [])
        busy: Dict[str, float] = {i: 0.0 for i in self.experiment_ids}
        runs: Dict[str, int] = {}
        duration: Dict[str, float] = {}
        for s in tasks:
            experiment_id, task_id = s.extra.split("|", 1)
            busy[experiment_id] = busy.get(experiment_id, 0.0) + s.duration
            runs[task_id] = runs.get(task_id, 0) + 1
            if s.ok:
                duration[task_id] = s.duration
        for experiment_id, seconds in busy.items():
            self.set(f"experiments.{experiment_id}.busy_s", seconds)
        self.set("experiments.task_self_s", _self_time(tasks, spans))
        self.set("experiments.tasks", sum(s.ok for s in tasks))
        self.set("experiments.task_failures", sum(not s.ok for s in tasks))
        self.set("experiments.retries", sum(n - 1 for n in runs.values()))
        finish: Dict[str, float] = {}

        def finish_of(task_id: str) -> float:
            if task_id not in finish:
                deps = [d for d in graph_deps.get(task_id, ()) if d in graph_deps]
                finish[task_id] = duration.get(task_id, 0.0) + max(
                    (finish_of(d) for d in deps), default=0.0
                )
            return finish[task_id]

        longest = max((finish_of(t) for t in duration), default=0.0)
        self.set("experiments.critical_path_s", (context_end - window_start) + longest)
        if tasks:
            first = min(s.start for s in tasks)
            last = max(s.end for s in tasks)
            lanes = jobs * (last - first)
            self.set("experiments.worker_idle_share", 1.0 - _busy(tasks) / lanes)

    def coverage(self, spans: List[Span], start: float, end: float, untraced_s: float) -> None:
        """Share of the traced wall time that some named layer's span covers.

        The catch-all spans (a whole task, the whole context build) are
        left out: time inside them that no layer below accounts for is
        not covered.
        """
        wall = end - start
        layered = [s for s in spans if s.name not in CATCH_ALL_SPANS]
        self.set("trace.coverage", covered_s(layered, start, end) / wall)
        self.set("trace.overhead", wall / untraced_s - 1.0)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _report(seed: int, result: Result, work: Workdir, layers: Layers) -> None:
    import report_wl
    from repro.experiments.graph import build_graph, build_plans

    reference = result.extra["reference"]
    cache = report_wl.fresh_cold_cache(work, result.extra["model"])
    spans_dir = work.fresh("report-spans")
    launcher = [sys.executable, str(TRACER_SCRIPT), str(spans_dir)]
    legs = []
    for label in ("traced cold", "traced warm"):
        out = cache / f"{label.replace(' ', '-')}.txt"
        started = time.perf_counter()
        run = report_wl.run_report(seed, cache, out, launcher)
        report_wl.checked(run, out, reference, label)
        legs.append((started, started + run.wall_s))
    spans = read_spans(spans_dir)
    cold_start, cold_end = legs[0]
    cold_spans = [s for s in spans if s.start < cold_end]
    layers.from_spans(spans)
    layers.coverage(cold_spans, cold_start, cold_end, result.extra["cold"].wall_s)

    ids = list(layers.experiment_ids)
    plans = build_plans(ids, days=report_wl.DAYS, seed=seed)
    deps = {task.task_id: task.deps for task in build_graph(plans.values()).tasks}
    # The first context call is the real one; later calls hit its cache.
    context_end = min(
        (s.end for s in cold_spans if s.name == "experiments.context"), default=cold_start
    )
    layers.experiments(cold_spans, deps, context_end, cold_start, int(report_wl.JOBS))
    imports = [_import_seconds(work) for _ in range(3)]
    layers.set("report.import_s", statistics.median(imports))
    result.note(
        f"traced report: cold {cold_end - cold_start:.3f} s vs untraced "
        f"{result.extra['cold'].wall_s:.3f} s, {len(spans)} spans"
    )


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "from repro.experiments.runner import resolve_ids; resolve_ids(['all']); "
    "print(time.perf_counter() - t)"
)


def _import_seconds(work: Workdir) -> float:
    """A fresh interpreter's import of ``repro.cli`` plus the experiment registry."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=pinned_env(work.fresh("import-cache")),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.strip())


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


class _Heartbeat:
    value = 0.0


class _Results(list):
    def put(self, item) -> None:
        self.append(item)


class _NeverStop:
    @staticmethod
    def is_set() -> bool:
        return False


def _shards_in_process(plan, work: Workdir, label: str) -> Tuple[List[float], Dict, Path]:
    """``shard_main`` for every shard of ``plan``, in turn, in this process."""
    from repro.streaming.shards import shard_main

    use_cache(work.fresh(f"{label}-cache"))
    out = work.fresh(f"{label}-out")
    seconds: List[float] = []
    stats: Dict[int, Dict] = {}
    handlers = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        for shard_id in range(plan.n_shards):
            results = _Results()
            started = time.perf_counter()
            shard_main(shard_id, plan, str(out), False, _Heartbeat(), results, _NeverStop())
            seconds.append(time.perf_counter() - started)
            kind, _, payload = results[-1]
            if kind != "done":
                raise RuntimeError(f"in-process shard {shard_id} failed: {payload}")
            stats[shard_id] = payload
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    return seconds, stats, out


def _ingest(seed: int, result: Result, work: Workdir, layers: Layers) -> None:
    from gates import check_records

    plan, serial, topics = (result.extra[k] for k in ("plan", "serial", "topics"))
    # Two untraced passes; the faster one is the base (the first also
    # pays this process's first use of the shard code).
    passes = []
    for k in range(2):
        seconds, _, out = _shards_in_process(plan, work, f"ingest-inproc{k}")
        check_records(serial, out, topics, "in-process shards")
        passes.append(seconds)
    plain = min(passes, key=sum)
    spans_dir = work.fresh("ingest-spans")
    tracer.install(spans_dir)
    try:
        started = time.perf_counter()
        traced, stats, traced_out = _shards_in_process(plan, work, "ingest-traced")
        ended = time.perf_counter()
    finally:
        tracer.uninstall()
    check_records(serial, traced_out, topics, "traced in-process shards")
    spans = read_spans(spans_dir)
    layers.from_spans(spans)
    layers.coverage(spans, started, ended, sum(plain))

    partitions = [p for s in stats.values() for p in s["partitions"].values()]
    layers.set("streaming.bus.offers", sum(p["published"] + p["blocked"] for p in partitions))
    layers.set("streaming.bus.polls", sum(p["consumed"] for p in partitions))
    layers.set("streaming.bus.blocked", sum(p["blocked"] for p in partitions))
    layers.set("streaming.bus.high_water", max(p["high_water"] for p in partitions))
    layers.set("streaming.shards.overhead_s", result.extra["cold_s"] - max(plain))
    per_shard = [sum(p["n_ticks"] for p in s["partitions"].values()) for s in stats.values()]
    layers.set("streaming.shards.balance", max(per_shard) / statistics.mean(per_shard))
    result.note(
        f"traced ingest: in-process shards {', '.join(f'{s:.3f}' for s in plain)} s "
        f"untraced, {ended - started:.3f} s traced; ticks per shard {per_shard}"
    )


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def _replay(requests, pipeline, fmt) -> Tuple[float, List[bytes]]:
    """Answer ``requests`` one at a time, as a worker would; serialize like the server."""
    from repro.streaming import PredictionService, ServiceConfig, build_request

    service = PredictionService(pipeline, ServiceConfig(max_horizon_ticks=672))
    held = pipeline.estimator.last_inputs()
    lines: List[bytes] = []
    started = time.perf_counter()
    for rid, key in requests:
        payload = json.loads(fmt.line(rid, key))
        request = build_request(payload, held, rid, 672)
        service.submit(request)
        (response,) = service.drain()
        with tracer.span("streaming.serve.serialize"):
            lines.append(json.dumps(response.to_payload()).encode())
    return time.perf_counter() - started, lines


def _serve(seed: int, result: Result, work: Workdir, layers: Layers) -> None:
    import serve_wl

    light, heavy, served = (result.extra[k] for k in ("light", "heavy", "served"))
    pipeline = served.pipeline
    fmt = served.fmt
    requests = fmt.mix(serve_wl.WARMUP_REQUESTS, "W0")
    requests += fmt.mix(light.sent, "L0")
    requests += fmt.mix(heavy.sent, "H0")
    plain_s, _ = _replay(requests, pipeline, served.fmt)
    spans_dir = work.fresh("serve-spans")
    tracer.install(spans_dir)
    try:
        started = time.perf_counter()
        _, traced_lines = _replay(requests, pipeline, served.fmt)
        ended = time.perf_counter()
    finally:
        tracer.uninstall()
    for (rid, key), line in zip(requests, traced_lines):
        if not served.checker.matches(line, rid, key):
            raise GateFailure(f"traced replay answer to {rid} differs from the service's")
    spans = read_spans(spans_dir)
    layers.from_spans(spans)
    layers.coverage(spans, started, ended, plain_s)
    g = by_name(spans)
    n = len(requests)
    compute_ms = 1000.0 * _busy(g.get("streaming.service.compute", [])) / n
    serialize_ms = 1000.0 * _busy(g.get("streaming.serve.serialize", [])) / n
    layers.set("streaming.service.compute_ms", compute_ms)
    layers.set("streaming.serve.serialize_ms", serialize_ms)
    for label, window in (("light", light), ("heavy", heavy)):
        queue_ipc_ms = window.mean_served_ms() - compute_ms - serialize_ms
        layers.set(f"streaming.serve.queue_ipc_ms.{label}", queue_ipc_ms)
    stats = result.extra["stats"]
    for key in ("shed", "retried", "restarts", "deadline_misses"):
        layers.set(f"streaming.supervisor.{key}", stats.get(key, 0))
    depths = [
        worker["queue_depth"]
        for sample in heavy.stats
        for worker in sample.get("per_worker", {}).values()
    ]
    layers.set("streaming.supervisor.queue_high_water", max(depths, default=0))
    late = light.late_s + heavy.late_s
    layers.set("serve.gen_late_ms", percentile(late, 99) * 1000.0)
    result.note(
        f"traced serve replay: {n} requests, {plain_s:.3f} s untraced, "
        f"{ended - started:.3f} s traced"
    )


def traced(workload: str, seed: int, result: Result, work: Workdir) -> None:
    """Run the traced legs of ``workload`` and replace the metrics with per-layer ones."""
    from repro.experiments.runner import resolve_ids

    layers = Layers(declared_metrics("per_layer"), resolve_ids(["all"]))
    {"report": _report, "ingest": _ingest, "serve": _serve}[workload](
        seed, result, work, layers
    )
    result.metrics = dict(layers.values)
