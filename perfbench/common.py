"""Shared plumbing of the benchmark: environment, work dirs, timing, output.

Everything here runs in the benchmark's own process.  The program under
test (``src/repro``) is driven either as fresh ``python3 -m repro.cli``
processes or, for the in-process legs, imported from ``src/`` after
:func:`pin_environment` has fixed the interpreter-wide settings.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parents[1]
#: The program's sources; the benchmark builds nothing, it imports these.
SRC = ROOT / "src"
#: Every run's scratch space: cache dirs, outputs, span files.  Lives in
#: the checkout, so it shares the checkout's (disk) filesystem.
WORK_ROOT = ROOT / ".perfbench_work"

#: BLAS threads pinned for the benchmark and every process it starts.
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The held-out workload seed (``--seed heldout``): no tuning ever ran on
#: it, so a claim made on other seeds can be re-checked here.
HELDOUT_SEED = 20140611


class LayoutError(RuntimeError):
    """The checkout does not hold the program the benchmark drives."""


def check_layout() -> None:
    """Refuse to run anywhere but the root of a full checkout."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise LayoutError(
            f"no program sources under {SRC}: run the benchmark from the root "
            "of a full checkout"
        )


def pinned_env(cache_dir: Optional[Path] = None) -> Dict[str, str]:
    """The environment every measured process runs under.

    Every inherited ``REPRO_*`` switch is dropped, so the program runs
    with its defaults; only the cache location is set.  BLAS is pinned
    to one thread and ``PYTHONPATH`` to the checkout's ``src``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for name in _BLAS_VARS:
        env[name] = BLAS_THREADS
    env["PYTHONPATH"] = str(SRC)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def pin_environment() -> None:
    """Apply :func:`pinned_env` to this process (before numpy loads)."""
    env = pinned_env()
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            del os.environ[key]
    os.environ.update(env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def use_cache(cache_dir: Path) -> None:
    """Point this process's artifact cache at ``cache_dir``."""
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)


class Workdir:
    """One run's scratch directory; removed when the run ends."""

    def __init__(self, workload: str, seed: int) -> None:
        self.path = WORK_ROOT / f"{workload}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._n = 0

    def fresh(self, name: str) -> Path:
        """A new, empty subdirectory (a cache dir, an output dir)."""
        self._n += 1
        path = self.path / f"{self._n:03d}-{name}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


@dataclass
class ProcessRun:
    """Outcome of one measured child process."""

    wall_s: float
    returncode: int
    #: Largest resident set of the process and every descendant it
    #: reaped, in MB (``wait4`` rusage).
    peak_rss_mb: float


def run_process(argv: Sequence[str], env: Dict[str, str], timeout_s: float = 170.0) -> ProcessRun:
    """Run ``argv`` to completion; wall time from launch to reap."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        list(argv),
        env=env,
        cwd=str(ROOT),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(wall, proc.returncode, usage.ru_maxrss / 1024.0)


#: ``prctl`` option that makes a process the reaper of its orphaned descendants.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of every descendant that loses its parent.

    Some of the program's helper processes outlive the process that
    started them: ``multiprocessing``'s resource tracker, for one, exits
    only after its parent has.  Without this they would be handed to
    init and could still run after the benchmark has exited; with it
    they come back here, where :func:`reap_all` ends them.  Linux only;
    elsewhere a no-op.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    """Pids of this process's children, zombies included (from ``/proc``)."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for name in entries:
        if not name.isdigit():
            continue
        try:
            stat = Path("/proc", name, "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces and parentheses: split after it.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(name))
    return pids


def _reap_children() -> List[int]:
    """Reap every child that has ended; return those still running."""
    alive = []
    for pid in _children():
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        if done == 0:
            alive.append(pid)
    return alive


def reap_all(grace_s: float = 5.0, term_s: float = 2.0) -> None:
    """End and reap every process this run started, directly or not.

    This process's own resource tracker is stopped the way
    ``multiprocessing`` stops it (close its pipe, wait).  Every other
    child, adopted orphans included, gets ``grace_s`` to end on its own,
    then ``SIGTERM`` for ``term_s``, then ``SIGKILL``; the call returns
    once no child is left, so nothing it started outlives the run.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    started = time.monotonic()
    while True:
        alive = _reap_children()
        if not alive:
            return
        waited = time.monotonic() - started
        if waited >= grace_s:
            sig = signal.SIGKILL if waited >= grace_s + term_s else signal.SIGTERM
            for pid in alive:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def repro_argv(*args: str) -> List[str]:
    """``python3 -m repro.cli <args>`` with this interpreter."""
    return [sys.executable, "-m", "repro.cli", *args]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; ``inf`` entries stand for failed requests."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(0, min(len(ordered) - 1, math.ceil(pct / 100.0 * len(ordered)) - 1))
    return float(ordered[rank])


# ---------------------------------------------------------------------------
# Host record
# ---------------------------------------------------------------------------


def _fs_type(path: Path) -> str:
    probe = path
    while not probe.exists() and probe != probe.parent:
        probe = probe.parent
    try:
        out = subprocess.run(
            ["stat", "-f", "-c", "%T", str(probe)],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def host_record() -> Dict[str, object]:
    """What the numbers were measured on."""
    default_cache = Path.home() / ".cache" / "repro"
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": int(BLAS_THREADS),
        "cache_fs": _fs_type(WORK_ROOT),
        "default_cache_fs": _fs_type(default_cache),
    }


# ---------------------------------------------------------------------------
# Result and output
# ---------------------------------------------------------------------------


class GateFailure(Exception):
    """An output disagreed with its reference: no numbers may be reported."""


@dataclass
class Result:
    """What one workload run measured, before it is printed."""

    attempted: int = 0
    failed: int = 0
    #: Metric name -> (value, unit), in print order.
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Human-readable lines printed before the JSON line.
    notes: List[str] = field(default_factory=list)
    #: Workload-private state handed from the timed legs to the traced run.
    extra: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, line: str) -> None:
        self.notes.append(line)


def emit(result: Result, names: Sequence[str]) -> None:
    """Print the notes, then the one-line JSON result with ``names``."""
    for line in result.notes:
        print(line)
    missing = [n for n in names if n not in result.metrics]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    payload = {
        "correct": True,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": result.metrics[name][0], "unit": result.metrics[name][1]}
            for name in names
        },
    }
    print(json.dumps(payload), flush=True)


def emit_refusal(result: Result, reason: str) -> None:
    """A failed gate: say why, report counts, report no numbers.

    The operation whose output disagreed counts as failed.
    """
    for line in result.notes:
        print(line)
    print(f"GATE FAILED: {reason}", file=sys.stderr)
    failed = result.failed + 1
    payload = {
        "correct": False,
        "attempted": max(int(result.attempted), failed),
        "failed": failed,
        "metrics": {},
    }
    print(json.dumps(payload), flush=True)


def declared_metrics(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}
