"""Spans around the program's public functions, recorded from outside ``src/``.

:func:`install` wraps each target in :data:`TARGETS` and rebinds every
reference to it in the loaded ``repro`` modules (after importing all of
them, so ``from x import f`` copies are caught too).  A call becomes a
span named after its layer; a generator's span covers each ``next``.
Each closed span is appended at once, as one line, to a file of its
process (``spans-<pid>.tsv`` in the span directory), so fork children
that inherit the wrappers and leave through ``os._exit`` lose nothing.

Line format (tab-separated)::

    name  start  end  ok  extra

``start``/``end`` are ``time.perf_counter()`` readings (the system-wide
monotonic clock, comparable across processes) and ``extra`` is the
target's count (steps, bytes, a flag or a task id).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

@dataclass(frozen=True)
class Target:
    """One public function or method of the program, and its span name."""

    name: str
    module: str
    qualname: str
    #: ``(args, kwargs, result) -> str`` for the line's ``extra`` field.
    extra: Optional[Callable[..., str]] = None


def _steps(args, kwargs, chunk) -> str:
    return str(chunk.stop - chunk.start)


def _building_steps(args, kwargs, chunk) -> str:
    return str((chunk.stop - chunk.start) * chunk.zone_temps.shape[0])


def _file_size(path) -> str:
    try:
        return str(os.path.getsize(path))
    except (OSError, TypeError):
        return "0"


def _load_extra(args, kwargs, value) -> str:
    if value is None:
        return "miss"
    cache, key = args[0], args[1]
    return _file_size(cache.path_for(key))


def _store_extra(args, kwargs, path) -> str:
    return _file_size(path)


def _seal_extra(args, kwargs, key) -> str:
    if key is None:
        return "0"
    from repro.core.artifacts import default_cache

    return _file_size(default_cache().path_for(key))


def _task_extra(args, kwargs, value) -> str:
    task = args[0]
    return f"{task.experiment_id}|{task.task_id}"


def _flag(test: Callable[[Any], bool]) -> Callable[..., str]:
    return lambda args, kwargs, value: "1" if test(value) else "0"


def _length(args, kwargs, value) -> str:
    return str(len(value))


TARGETS: List[Target] = [
    Target("simulation.solo", "repro.simulation.simulator", "AuditoriumSimulator.iter_chunks", _steps),
    Target("simulation.fleet", "repro.simulation.fleet", "_Cohort.iter_chunks", _building_steps),
    Target("sensing.observe", "repro.sensing.deployment", "Deployment.observe"),
    Target("sensing.live_ticks", "repro.streaming.ingest", "LiveSensing.ticks"),
    Target("data.synth", "repro.data.synth", "generate"),
    Target("data.assemble", "repro.data.assemble", "assemble_dataset"),
    Target("data.screen", "repro.data.screening", "screen_sensors"),
    Target("cluster.cluster_sensors", "repro.cluster.spectral", "cluster_sensors"),
    Target("cluster.cluster_mean_trace", "repro.cluster.quality", "cluster_mean_trace"),
    Target("selection.reduced_model_errors", "repro.selection.evaluate", "reduced_model_errors"),
    Target("selection.cluster_mean_errors", "repro.selection.evaluate", "cluster_mean_errors"),
    Target("sysid.identify", "repro.sysid.identify", "identify"),
    Target("sysid.simulate", "repro.sysid.models", "ThermalModel.simulate"),
    Target("experiments.context", "repro.experiments.context", "get_context"),
    Target("experiments.task", "repro.experiments.graph", "Task.execute", _task_extra),
    Target("core.artifacts.load", "repro.core.artifacts", "ArtifactCache.load", _load_extra),
    Target("core.artifacts.store", "repro.core.artifacts", "ArtifactCache.store", _store_extra),
    Target("core.artifacts.source_digest", "repro.core.artifacts", "source_digest"),
    Target("streaming.gate", "repro.streaming.ingest", "TickGate.check", _flag(lambda g: bool(g.quarantined))),
    Target("streaming.rls", "repro.streaming.rls", "OnlineModelEstimator.observe", _flag(lambda v: v is not None)),
    Target("streaming.drift", "repro.streaming.drift", "CusumDriftDetector.update"),
    Target("streaming.records", "repro.streaming.partition", "record_line", _length),
    Target("streaming.state.seal", "repro.streaming.state", "save_snapshot", _seal_extra),
    Target("streaming.service.build_request", "repro.streaming.service", "build_request"),
    Target("streaming.service.compute", "repro.streaming.service", "PredictionService.drain", _length),
]


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class _Recorder:
    """Per-process span file plus a per-thread stack of open spans."""

    def __init__(self, span_dir: Path) -> None:
        self.span_dir = span_dir
        self.pid = -1
        self.fd = -1
        self.local = threading.local()

    def stack(self) -> List[str]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def after_fork(self) -> None:
        self.local = threading.local()
        self.pid = -1

    def write(self, line: str) -> None:
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.fd = os.open(
                self.span_dir / f"spans-{self.pid}.tsv",
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        os.write(self.fd, line.encode())

    def close(self, name: str, start: float, ok: bool, extra: str) -> None:
        end = time.perf_counter()
        self.stack().pop()
        self.write(f"{name}\t{start:.9f}\t{end:.9f}\t{int(ok)}\t{extra}\n")


_RECORDER: Optional[_Recorder] = None
_WRAPPED = False


def _skip(name: str) -> bool:
    """Not recording, or re-entered: the outer span already covers the call."""
    return _RECORDER is None or name in _RECORDER.stack()


def _wrap_call(target: Target, fn: Callable) -> Callable:
    name, extra_fn = target.name, target.extra

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _skip(name):
            return fn(*args, **kwargs)
        _RECORDER.stack().append(name)
        start = time.perf_counter()
        ok, extra = False, ""
        try:
            value = fn(*args, **kwargs)
            ok = True
            if extra_fn is not None:
                extra = extra_fn(args, kwargs, value)
            return value
        finally:
            _RECORDER.close(name, start, ok, extra)

    return wrapper


def _wrap_generator(target: Target, fn: Callable) -> Callable:
    name, extra_fn = target.name, target.extra

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                if _skip(name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    yield item
                    continue
                _RECORDER.stack().append(name)
                start = time.perf_counter()
                ok, extra = False, ""
                try:
                    item = next(inner)
                    ok = True
                    if extra_fn is not None:
                        extra = extra_fn(args, kwargs, item)
                except StopIteration:
                    ok = True
                    return
                finally:
                    _RECORDER.close(name, start, ok, extra)
                yield item
        finally:
            inner.close()

    return wrapper


@contextmanager
def span(name: str, extra: str = "") -> Iterator[None]:
    """A span around benchmark-side code (serialization in the serve replay)."""
    if _RECORDER is None:
        yield
        return
    _RECORDER.stack().append(name)
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        _RECORDER.close(name, start, ok, extra)


def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def install(span_dir: Path) -> None:
    """Record spans into ``span_dir`` from this process and its fork children.

    The first call wraps every target; the wrappers stay in place and
    pass straight through while no recorder is installed.
    """
    global _RECORDER, _WRAPPED
    if _RECORDER is not None:
        raise RuntimeError("tracing is already installed")
    span_dir = Path(span_dir)
    span_dir.mkdir(parents=True, exist_ok=True)
    _RECORDER = _Recorder(span_dir)
    os.register_at_fork(after_in_child=_RECORDER.after_fork)
    if _WRAPPED:
        return
    _WRAPPED = True
    _import_all()
    for target in TARGETS:
        module = importlib.import_module(target.module)
        owner: Any = module
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, attr)
        wrap = _wrap_generator if inspect.isgeneratorfunction(original) else _wrap_call
        wrapped = wrap(target, original)
        setattr(owner, attr, wrapped)
        if owner is module:
            for name, loaded in list(sys.modules.items()):
                if not name.startswith("repro") or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)


def uninstall() -> None:
    """Stop recording in this process; the wrappers become pass-throughs."""
    global _RECORDER
    if _RECORDER is not None and _RECORDER.fd >= 0:
        os.close(_RECORDER.fd)
    _RECORDER = None


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    pid: int
    name: str
    start: float
    end: float
    ok: bool
    extra: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def read_spans(span_dir: Path) -> List[Span]:
    spans: List[Span] = []
    for path in sorted(Path(span_dir).glob("spans-*.tsv")):
        pid = int(path.stem.split("-", 1)[1])
        for line in path.read_text().splitlines():
            name, start, end, ok, extra = line.split("\t")
            spans.append(Span(pid, name, float(start), float(end), ok == "1", extra))
    return spans


def covered_s(spans: List[Span], window_start: float, window_end: float) -> float:
    """Time within the window during which at least one of ``spans`` was open.

    The union of the spans, so nested spans and fork children working
    in parallel are counted once.
    """
    intervals = sorted(
        (max(s.start, window_start), min(s.end, window_end))
        for s in spans
        if s.end > window_start and s.start < window_end
    )
    total, cur_start, cur_end = 0.0, None, None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def by_name(spans: List[Span]) -> Dict[str, List[Span]]:
    grouped: Dict[str, List[Span]] = {}
    for s in spans:
        grouped.setdefault(s.name, []).append(s)
    return grouped


if __name__ == "__main__":
    # Launcher for a traced program process:
    #   python3 perfbench/tracer.py <span-dir> <repro cli args...>
    started = time.perf_counter()
    install(Path(sys.argv[1]))
    _RECORDER.stack().append("report.import")
    _RECORDER.close("report.import", started, True, "")
    from repro.cli import main

    sys.exit(main(sys.argv[2:]))
