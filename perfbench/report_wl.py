"""``report`` workload: the paper's 98-day reproduction, cold and warm.

Set-up builds the reference: ``repro report --days 98 --jobs 1
--schedule registry`` in its own cache directory, which also learns the
task cost model.  Only that cost model is carried into a fresh cache
directory (``CostModel.load``/``save``).  The timed legs are then fresh
processes of ``repro report --days 98 --jobs 2`` (default ``--schedule
cost``): one cold, then warm replays of the same command on the cache
the cold process filled, until ``--seconds`` have passed.  Every report
must equal the reference byte for byte.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path
from typing import List, Sequence

from common import (
    GateFailure,
    ProcessRun,
    Result,
    Workdir,
    pinned_env,
    repro_argv,
    run_process,
    use_cache,
)
from gates import check_report

DAYS = 98.0
JOBS = "2"
MIN_WARM = 5
MAX_WARM = 15


def report_args(seed: int, output: Path, *extra: str) -> List[str]:
    return ["report", "--days", f"{DAYS:g}", "--seed", str(seed), "--output", str(output), *extra]


def make_reference(seed: int, work: Workdir):
    """The ``--jobs 1 --schedule registry`` report, and the cost model it learned.

    The reference's cache directory is deleted once the model is read:
    only the model is carried into the timed runs, and dropping the
    rest early keeps its unwritten pages from competing with them.
    """
    from repro.experiments.costs import CostModel

    cache = work.fresh("report-ref-cache")
    output = cache / "reference.txt"
    run = run_process(
        repro_argv(*report_args(seed, output, "--jobs", "1", "--schedule", "registry")),
        pinned_env(cache),
    )
    if run.returncode != 0 or not output.is_file():
        raise RuntimeError(f"reference report failed (exit {run.returncode})")
    reference = output.read_bytes()
    use_cache(cache)
    model = CostModel.load(DAYS)
    shutil.rmtree(cache)
    return reference, model


def run_report(
    seed: int, cache: Path, output: Path, launcher: Sequence[str] = ()
) -> ProcessRun:
    """One ``repro report --jobs 2`` process on ``cache``.

    ``launcher`` replaces ``python3 -m repro.cli`` (the traced run uses it).
    """
    args = report_args(seed, output, "--jobs", JOBS)
    argv = [*launcher, *args] if launcher else repro_argv(*args)
    return run_process(argv, pinned_env(cache))


def checked(run: ProcessRun, output: Path, reference: bytes, label: str) -> None:
    """Exit code, ``FAILED`` section and bytes, in that order."""
    text = output.read_bytes() if output.is_file() else b""
    if run.returncode != 0 or b"FAILED experiments" in text:
        raise GateFailure(f"{label} report exited {run.returncode} or lists failures")
    check_report(reference, text, label)


def n_experiments() -> int:
    from repro.experiments.runner import resolve_ids

    return len(resolve_ids(["all"]))


def fresh_cold_cache(work: Workdir, model) -> Path:
    """An empty cache directory holding only the learned cost model."""
    cache = work.fresh("report-cache")
    use_cache(cache)
    model.save()
    return cache


def run(seed: int, seconds: int, trace: bool, work: Workdir, result: Result) -> None:
    started = time.perf_counter()
    reference, model = make_reference(seed, work)
    cache = fresh_cold_cache(work, model)
    setup_s = time.perf_counter() - started
    experiments = n_experiments()

    measuring = time.perf_counter()
    cold_out = cache / "cold.txt"
    result.attempted += experiments
    cold = run_report(seed, cache, cold_out)
    checked(cold, cold_out, reference, "cold")
    warms: List[ProcessRun] = []
    n_warm = 1 if trace else MAX_WARM
    while len(warms) < n_warm and (
        len(warms) < (1 if trace else MIN_WARM)
        or time.perf_counter() - measuring < seconds
    ):
        out = cache / f"warm-{len(warms)}.txt"
        result.attempted += experiments
        warm = run_report(seed, cache, out)
        checked(warm, out, reference, f"warm replay {len(warms)}")
        warms.append(warm)
    shutil.rmtree(cache)
    result.extra.update(reference=reference, model=model, cold=cold)

    warm_s = statistics.median(w.wall_s for w in warms)
    peak = max([cold.peak_rss_mb] + [w.peak_rss_mb for w in warms])
    result.note(
        f"report: setup {setup_s:.3f} s, report.cold_s {cold.wall_s:.3f} s, "
        f"report.warm_s {warm_s:.3f} s (median of {len(warms)}), "
        f"report.peak_rss_mb {peak:.1f} MB; all reports equal the reference"
    )
    result.put("setup_s", setup_s, "s")
    result.put("cold_s", cold.wall_s, "s")
    result.put("warm_s", warm_s, "s")
    result.put("rate_per_s", experiments / cold.wall_s, "1/s")
    result.put("peak_rss_mb", peak, "MB")
