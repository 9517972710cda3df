"""``ingest`` workload: 8-building fleets through ``run_ingest`` on 2 shards.

One run ingests four fleets, each an ``IngestPlan`` of 8 buildings whose
seed is drawn from the workload seed (``4 * seed + k``): fleet
composition and BLAKE2b shard routing vary a lot from one plan seed to
the next, and four fleets per run average that out.  Set-up runs each
fleet's serial reference (``run_serial``: no bus, no shards, no
snapshots); the median of the four is the set-up time.  The timed legs
then go through the fleets in turn, until ``--seconds`` have passed and
every fleet ran equally often:

* cold: ``run_ingest`` of the plan from an empty cache directory;
* warm: ``run_ingest(resume=True)`` over the cold run's snapshots and
  logs, which restores every partition, replays the producers and
  skips every tick already recorded.

Each run must complete with no restart, process every tick of the plan
and leave record logs byte-identical to the serial reference
(``verify_parity``).  Bus and snapshot cadence are the plan defaults;
``days`` is sized so one cold run takes about two seconds.
"""

from __future__ import annotations

import resource
import statistics
import time
from pathlib import Path
from typing import List

from common import Result, Workdir, use_cache
from gates import check_ingest_report, check_records

N_FLEETS = 4
N_BUILDINGS = 8
N_SHARDS = 2
DAYS = 2.0


def make_plan(seed: int):
    from repro.streaming import IngestPlan

    return IngestPlan(n_buildings=N_BUILDINGS, days=DAYS, seed=seed, n_shards=N_SHARDS)


def serial_reference(plan, work: Workdir) -> Path:
    from repro.streaming import run_serial

    out = work.fresh("ingest-serial")
    run_serial(plan, out)
    return out


def timed_ingest(plan, cache: Path, out: Path, resume: bool):
    from repro.streaming import run_ingest
    from repro.streaming.shards import ShardRunnerOptions

    use_cache(cache)
    started = time.perf_counter()
    report = run_ingest(plan, out, ShardRunnerOptions(resume=resume))
    return time.perf_counter() - started, report


class Fleet:
    """One plan, its serial reference and its timed runs."""

    def __init__(self, plan, work: Workdir) -> None:
        started = time.perf_counter()
        self.plan = plan
        self.serial = serial_reference(plan, work)
        self.setup_s = time.perf_counter() - started
        self.topics = tuple(spec.topic for spec in plan.partitions())
        self.ticks = sum(
            len((self.serial / f"{topic}.records.jsonl").read_bytes().splitlines())
            for topic in self.topics
        )
        self.colds: List[float] = []
        self.warms: List[float] = []

    def round(self, work: Workdir, result: Result) -> None:
        """One cold run from an empty cache, then one resume over it."""
        label = f"fleet seed {self.plan.seed}, round {len(self.colds)}"
        cache = work.fresh("ingest-cache")
        out = work.fresh("ingest-out")
        wall, report = timed_ingest(self.plan, cache, out, resume=False)
        result.attempted += self.ticks
        result.failed += max(0, self.ticks - report.ticks) + report.restarts
        check_ingest_report(report, self.ticks, f"{label} cold")
        check_records(self.serial, out, self.topics, f"{label} cold")
        self.colds.append(wall)
        wall, report = timed_ingest(self.plan, cache, out, resume=True)
        result.failed += report.restarts
        check_ingest_report(report, self.ticks, f"{label} warm")
        check_records(self.serial, out, self.topics, f"{label} warm")
        self.warms.append(wall)


def run(seed: int, seconds: int, trace: bool, work: Workdir, result: Result) -> None:
    n_fleets = 1 if trace else N_FLEETS
    fleets = [Fleet(make_plan(N_FLEETS * seed + k), work) for k in range(n_fleets)]
    measuring = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        for fleet in fleets:
            fleet.round(work, result)
        now = time.perf_counter()
        if trace or now + (now - cycle) - measuring > seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    colds = [statistics.median(f.colds) for f in fleets]
    warms = [statistics.median(f.warms) for f in fleets]
    ticks = sum(f.ticks for f in fleets)
    rate = ticks / sum(colds)
    result.note(
        f"ingest: {n_fleets} fleets of {N_BUILDINGS} buildings x {DAYS:g} days on "
        f"{N_SHARDS} shards ({len(fleets[0].colds)} rounds each); setup "
        f"{statistics.median(f.setup_s for f in fleets):.3f} s, ingest.ticks_per_s {rate:.1f} "
        "ticks/s (cold runs: " + ", ".join(f"{c:.3f}" for c in colds) + " s), resume "
        f"{statistics.mean(warms):.3f} s, ingest.peak_rss_mb {peak:.1f} MB; every "
        "record log equals run_serial's"
    )
    first = fleets[0]
    result.extra.update(
        plan=first.plan, serial=first.serial, topics=first.topics, cold_s=colds[0]
    )
    result.put("setup_s", statistics.median(f.setup_s for f in fleets), "s")
    result.put("cold_s", statistics.mean(colds), "s")
    result.put("warm_s", statistics.mean(warms), "s")
    result.put("rate_per_s", rate, "1/s")
    result.put("peak_rss_mb", peak, "MB")
