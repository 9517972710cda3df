"""Step-kernel simulator benchmark → ``sim`` + ``fleet`` sections of
``BENCH_report.json``.

Times the closed-loop auditorium simulation under two drivers:

* ``kernel``  — the staged step-kernel pipeline (``run``), one trace in
  one monolithic chunk,
* ``chunked`` — the same kernels driven through ``iter_chunks`` in
  1-day slabs, the shape the streaming/caching layers consume.

Both must produce *bit-identical* traces (asserted with
``np.array_equal`` before any number is reported).  Parity against the
monolithic reference loop is a test-suite concern
(``tests/test_sim_kernels.py``), not a benchmark row.

The ``fleet`` section then batches a generated building fleet through
:class:`repro.simulation.fleet.FleetSimulator` and compares one
vectorized pass against running every building's solo simulator
sequentially — again gated on per-building bit-identity first.

Environment knobs:

* ``REPRO_BENCH_SIM_DAYS``      — simulated days per timing (default 3),
* ``REPRO_BENCH_SIM_REPEATS``   — repeats per engine, best-of (default 2),
* ``REPRO_BENCH_FLEET_SIZE``    — buildings in the fleet section (default 8).

Run via ``make bench-json`` (or directly:
``PYTHONPATH=src python benchmarks/bench_sim.py``).  The section is
*merged* into an existing ``BENCH_report.json`` so the cache benchmark's
numbers survive.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.simulation import AuditoriumSimulator, SimulationConfig  # noqa: E402
from repro.simulation.fleet import FleetConfig, FleetSimulator, build_fleet  # noqa: E402

SIM_DAYS = float(os.environ.get("REPRO_BENCH_SIM_DAYS", "3"))
REPEATS = int(os.environ.get("REPRO_BENCH_SIM_REPEATS", "2"))
FLEET_SIZE = int(os.environ.get("REPRO_BENCH_FLEET_SIZE", "8"))

#: Result arrays compared across engines for bit-identity.
PARITY_FIELDS = (
    "zone_temps",
    "mass_temps",
    "vav_flows",
    "vav_temps",
    "co2",
    "humidity_ratio",
    "thermostat_readings",
    "thermostat_true",
)


def _time_engine(run):
    """Best-of-``REPEATS`` wall-clock of one engine; returns (s, result)."""
    best, result = float("inf"), None
    for _ in range(REPEATS):
        begin = time.perf_counter()
        candidate = run()
        best = min(best, time.perf_counter() - begin)
        result = candidate
    return best, result


def _bench_fleet():
    """Batched fleet pass vs sequential solo runs; returns the section.

    Returns ``None`` when the per-building parity gate fails — the
    caller treats that as a hard error, exactly like the engine gate.
    """
    specs = build_fleet(FleetConfig(n_buildings=FLEET_SIZE, days=SIM_DAYS))
    n_steps = specs[0].simulation.n_steps

    print(f"benchmarking a {FLEET_SIZE}-building fleet at {SIM_DAYS:g} days each ...")
    batched_s, fleet = _time_engine(lambda: FleetSimulator(specs).run())

    def run_sequential():
        return [spec.simulator().run() for spec in specs]

    sequential_s, solos = _time_engine(run_sequential)

    bit_identical = all(
        np.array_equal(getattr(batched, field), getattr(solo, field))
        for batched, solo in zip(fleet.results, solos)
        for field in PARITY_FIELDS
    )
    if not bit_identical:
        return None

    building_steps = FLEET_SIZE * n_steps
    cohorts = [cohort.n_buildings for cohort in FleetSimulator(specs).cohorts]
    print(
        f"  batched   : {batched_s:7.2f} s  ({building_steps / batched_s:8.0f} building-steps/s, "
        f"cohorts {cohorts})"
    )
    print(f"  sequential: {sequential_s:7.2f} s  ({building_steps / sequential_s:8.0f} building-steps/s)")
    return {
        "buildings": FLEET_SIZE,
        "days": SIM_DAYS,
        "n_steps": n_steps,
        "cohorts": cohorts,
        "building_steps_per_second": {
            "batched": round(building_steps / batched_s, 1),
            "sequential": round(building_steps / sequential_s, 1),
        },
        "speedup": {"batched_vs_sequential": round(sequential_s / batched_s, 2)},
        "bit_identical": True,
    }


def main() -> int:
    config = SimulationConfig(days=SIM_DAYS)
    n_steps = config.n_steps
    day_steps = max(1, int(round(86400.0 / config.dt)))
    engines = {
        "kernel": lambda: AuditoriumSimulator(config).run(),
        "chunked": lambda: AuditoriumSimulator(config).run(chunk_steps=day_steps),
    }

    print(f"benchmarking the simulator at {SIM_DAYS:g} days ({n_steps} steps) ...")
    seconds, results = {}, {}
    for name, run in engines.items():
        seconds[name], results[name] = _time_engine(run)
        print(f"  {name:8s}: {seconds[name]:7.2f} s  ({n_steps / seconds[name]:8.0f} steps/s)")

    reference = results["kernel"]
    bit_identical = all(
        np.array_equal(getattr(results[name], field), getattr(reference, field))
        for name in engines
        for field in PARITY_FIELDS
    )
    if not bit_identical:
        print("ERROR: engines disagree on the trace; refusing to report timings", file=sys.stderr)
        return 1

    section = {
        "days": SIM_DAYS,
        "n_steps": n_steps,
        "chunk_steps": day_steps,
        "steps_per_second": {k: round(n_steps / v, 1) for k, v in seconds.items()},
        "bit_identical": bit_identical,
    }

    fleet_section = _bench_fleet()
    if fleet_section is None:
        print(
            "ERROR: batched fleet disagrees with solo runs; refusing to report timings",
            file=sys.stderr,
        )
        return 1

    target = ROOT / "BENCH_report.json"
    try:
        payload = json.loads(target.read_text())
        if not isinstance(payload, dict):
            payload = {}
    except (OSError, ValueError):
        payload = {}
    payload["sim"] = section
    payload["fleet"] = fleet_section
    target.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote the sim and fleet sections of {target}")
    print(
        json.dumps(
            {**section["steps_per_second"], **fleet_section["speedup"]}, indent=2
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
