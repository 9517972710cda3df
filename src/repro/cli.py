"""``repro`` command-line interface.

Subcommands::

    repro simulate    generate the synthetic trace and save it as CSV
    repro synth       generate the trace with chunk/engine control
    repro fleet       batch-simulate a building fleet (``--parity``
                      checks every building against its solo run)
    repro info        summarize a dataset (synthetic or loaded from CSV)
    repro fit         identify thermal models and report prediction error
    repro cluster     spectral-cluster the sensors and print memberships
    repro select      run a sensor-selection strategy and score it
    repro snapshot    render a temperature snapshot on the ASCII floor plan
    repro experiment  run one (or all) of the paper's tables/figures
    repro report      run every experiment and write a combined report
    repro robustness  fault-injection sweeps (severity or faulted-count)
    repro stream      replay the trace through the online pipeline
                      (``--live``: drive it off the chunked simulator
                      through event-level sensing instead of a replay;
                      ``--building-index I``: stream fleet member I)
    repro ingest      partitioned event-bus ingestion of a building
                      fleet, sharded over supervised worker processes
                      (``--parity`` byte-compares every building's
                      record log against its serial single-pipeline run)
    repro serve       answer predict-ahead requests from the online model
                      (``--workers N --port P``: supervised multi-worker
                      TCP server; ``--workers 0``: stdin JSON-lines)
    repro loadtest    drive a running server at a fixed request rate,
                      optionally killing a worker mid-run

Every subcommand accepts ``--days`` and ``--seed`` to control the
synthetic trace; the trace is cached per configuration within a process
*and* persistently under ``~/.cache/repro`` (see
:mod:`repro.core.artifacts`; ``REPRO_CACHE_DIR`` relocates it,
``REPRO_CACHE=off`` disables it).  ``experiment`` and ``report`` default
to the paper's 98-day protocol and accept ``--jobs N`` to fan
experiments out over worker processes.

Failing experiments no longer abort a report: survivors render
normally, a "FAILED experiments" section lists the casualties, and the
exit code is 1 on partial failure (see ``docs/robustness.md``;
``REPRO_RUNNER_TIMEOUT_S`` and ``REPRO_RUNNER_RETRIES`` tune the
runner's timeout/retry policy).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import rng as rng_mod
from repro.version import __version__

__all__ = [
    "main",
]

#: Default trace length for the quick interactive subcommands.  The
#: experiment/report subcommands default to the paper protocol instead
#: (``repro.experiments.context.DEFAULT_DAYS``, 98 days).
QUICK_DAYS = 28.0


def _add_common(parser: argparse.ArgumentParser, days_default: float = QUICK_DAYS) -> None:
    parser.add_argument(
        "--days",
        type=float,
        default=days_default,
        help=f"length of the synthetic trace (days; default {days_default:g})",
    )
    parser.add_argument(
        "--seed", type=int, default=rng_mod.DEFAULT_SEED, help="root random seed"
    )


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for running experiment tasks (default 1 = serial)",
    )
    parser.add_argument(
        "--schedule",
        choices=("cost", "registry"),
        default="cost",
        help="task dispatch order: 'cost' starts the longest tasks first "
        "using the persisted cost model (falls back to registry order "
        "when no costs are recorded yet); 'registry' keeps registry "
        "order.  Output is byte-identical either way.",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Thermal modeling for an HVAC-controlled auditorium (ICDCS 2014 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate the synthetic trace and save as CSV")
    _add_common(p)
    p.add_argument("--output", required=True, help="output file stem (writes <stem>.csv)")
    p.add_argument(
        "--full", action="store_true", help="save all 41 units instead of the screened analysis set"
    )

    p = sub.add_parser(
        "synth", help="generate the synthetic trace with chunk/engine control"
    )
    _add_common(p)
    p.add_argument(
        "--chunk-steps",
        type=int,
        default=None,
        help="simulation steps per streamed chunk (default: 7-day slabs)",
    )
    p.add_argument(
        "--engine",
        choices=("kernel", "loop"),
        default="kernel",
        help="trace generator: staged step-kernels (default) or the reference loop",
    )
    p.add_argument("--output", help="optional output file stem (writes <stem>.csv)")
    p.add_argument(
        "--full", action="store_true", help="save all 41 units instead of the screened analysis set"
    )
    p.add_argument(
        "--no-cache", action="store_true", help="bypass the in-process and on-disk caches"
    )

    p = sub.add_parser(
        "fleet", help="batch-simulate a fleet of buildings in one vectorized pass"
    )
    p.add_argument(
        "--buildings", type=int, default=8, help="fleet size (default 8)"
    )
    p.add_argument(
        "--days", type=float, default=3.0, help="trace length per building (default 3)"
    )
    p.add_argument(
        "--seed", type=int, default=rng_mod.DEFAULT_SEED, help="fleet distribution seed"
    )
    p.add_argument(
        "--chunk-steps",
        type=int,
        default=None,
        help="simulation steps per streamed chunk (default: 7-day slabs)",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="bypass the on-disk artifact cache"
    )
    p.add_argument(
        "--parity",
        action="store_true",
        help="re-run every building solo and bit-compare against the batched pass",
    )

    p = sub.add_parser("info", help="summarize a dataset")
    _add_common(p)
    p.add_argument("--input", help="CSV stem to load (default: synthesize)")

    p = sub.add_parser("fit", help="identify thermal models and report errors")
    _add_common(p)
    p.add_argument("--order", type=int, choices=(1, 2), default=2)
    p.add_argument("--mode", choices=("occupied", "unoccupied"), default="occupied")
    p.add_argument("--ridge", type=float, default=0.0)

    p = sub.add_parser("cluster", help="spectral-cluster the sensors")
    _add_common(p)
    p.add_argument("--method", choices=("euclidean", "correlation"), default="correlation")
    p.add_argument("--k", type=int, default=None, help="cluster count (default: eigengap)")

    p = sub.add_parser("select", help="run a sensor-selection strategy")
    _add_common(p)
    p.add_argument(
        "--strategy", choices=("sms", "srs", "rs", "thermostats", "gp"), default="sms"
    )
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--per-cluster", type=int, default=1)

    p = sub.add_parser("snapshot", help="render a temperature snapshot on the floor plan")
    _add_common(p)
    p.add_argument("--tick", type=int, default=None, help="axis tick (default: busiest instant)")

    from repro.experiments.context import DEFAULT_DAYS

    p = sub.add_parser("experiment", help="run one of the paper's tables/figures")
    _add_common(p, days_default=DEFAULT_DAYS)
    _add_jobs(p)
    p.add_argument(
        "id",
        help="experiment id (table1, table2, fig2..fig11, ext-control, "
        "ext-occupancy, ext-order, ext-stability, ext-streaming, "
        "ext-fleet, robustness, robustness-count, or 'all')",
    )

    p = sub.add_parser("report", help="run every experiment and write a combined report")
    _add_common(p, days_default=DEFAULT_DAYS)
    _add_jobs(p)
    p.add_argument("--output", help="write the report to this file (default: stdout)")
    p.add_argument(
        "--profile",
        action="store_true",
        help="after the report, print the persisted per-task cost model "
        "the cost-aware schedule draws from",
    )

    p = sub.add_parser(
        "robustness", help="fault-injection sweeps (severity or faulted-count)"
    )
    _add_common(p, days_default=DEFAULT_DAYS)
    p.add_argument(
        "--faulted",
        type=int,
        default=None,
        help="wireless sensors targeted by the campaign (default 6; severity sweep only)",
    )
    p.add_argument(
        "--sweep",
        choices=("severity", "count"),
        default="severity",
        help="sweep fault severity (default) or the number of faulted sensors",
    )
    p.add_argument(
        "--replicates",
        type=int,
        default=1,
        help="seed replicates per sweep point, batch-simulated as one fleet "
        "(default 1 = the paper trace only)",
    )
    p.add_argument(
        "--serial-traces",
        action="store_true",
        help="integrate replicate traces one by one instead of as a batched "
        "fleet (slow; for parity checking)",
    )

    p = sub.add_parser(
        "stream", help="replay the synthetic trace through the online pipeline"
    )
    _add_common(p)
    p.add_argument("--order", type=int, choices=(1, 2), default=2)
    p.add_argument(
        "--forgetting",
        type=float,
        default=1.0,
        help="RLS forgetting factor in (0, 1] (default 1.0 = infinite memory)",
    )
    p.add_argument(
        "--snapshot",
        help="save the finished pipeline under this snapshot name",
    )
    p.add_argument(
        "--live",
        action="store_true",
        help="drive the pipeline off the chunked simulator through event-level "
        "sensing (packets, loss, outages) instead of replaying a dataset",
    )
    p.add_argument(
        "--chunk-steps",
        type=int,
        default=None,
        help="simulation steps per live chunk (default: 1-day slabs; --live only)",
    )
    p.add_argument(
        "--max-age",
        type=float,
        default=None,
        help="staleness gate limit, seconds (default: 1.5 heartbeats; --live only)",
    )
    p.add_argument(
        "--building-index",
        type=int,
        default=None,
        metavar="I",
        help="stream fleet member I (via build_fleet) instead of the paper "
        "building (--live only)",
    )
    p.add_argument(
        "--building-seed",
        type=int,
        default=None,
        metavar="S",
        help="fleet distribution seed for --building-index (default: --seed)",
    )

    p = sub.add_parser(
        "ingest",
        help="partitioned event-bus ingestion: one pipeline per building, "
        "sharded over supervised worker processes",
    )
    p.add_argument(
        "--buildings", type=int, default=4, help="fleet size (default 4)"
    )
    p.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shard worker processes consuming the partitions (default 2)",
    )
    p.add_argument(
        "--days", type=float, default=1.0, help="trace length per building (default 1)"
    )
    p.add_argument(
        "--seed", type=int, default=rng_mod.DEFAULT_SEED, help="fleet distribution seed"
    )
    p.add_argument(
        "--out",
        default="ingest-out",
        metavar="DIR",
        help="directory for per-building record logs (default ingest-out/)",
    )
    p.add_argument(
        "--chunk-steps",
        type=int,
        default=None,
        help="simulation steps per live chunk (default: 1-day slabs)",
    )
    p.add_argument(
        "--solo-producers",
        action="store_true",
        help="interleave per-building solo sources instead of one batched "
        "fleet pass per shard",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume partitions from their snapshots (continue an "
        "interrupted run)",
    )
    p.add_argument(
        "--kill-shard-after",
        type=int,
        default=None,
        metavar="N",
        help="chaos hook: SIGKILL the first shard that owns partitions once "
        "it has resealed N partition snapshots (a progress count, not "
        "seconds; it respawns and resumes from its partition snapshots)",
    )
    p.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        help="respawn budget per shard before the run fails",
    )
    p.add_argument(
        "--parity",
        action="store_true",
        help="re-run every building serially and byte-compare the record logs",
    )

    p = sub.add_parser(
        "serve", help="answer predict-ahead requests from the online model"
    )
    _add_common(p)
    p.add_argument("--order", type=int, choices=(1, 2), default=2)
    p.add_argument(
        "--restore",
        help="restore the pipeline from this snapshot instead of streaming afresh",
    )
    p.add_argument(
        "--demo",
        type=int,
        default=0,
        metavar="N",
        help="answer N built-in demo requests instead of reading stdin",
    )
    p.add_argument(
        "--horizon",
        type=int,
        default=8,
        help="prediction horizon of demo requests, ticks (default 8 = 2 h)",
    )
    p.add_argument("--max-queue", type=int, default=64)
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="supervised worker processes behind a TCP front end "
        "(default 0 = single-process stdin JSON-lines mode)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (TCP mode)")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = ephemeral, printed on startup; TCP mode)",
    )
    p.add_argument(
        "--final-snapshot",
        metavar="NAME",
        help="save the pipeline back under this snapshot name on graceful "
        "shutdown (TCP mode)",
    )
    p.add_argument(
        "--allow-chaos",
        action="store_true",
        help="honour kill-worker/hang-worker control commands (fault injection)",
    )
    p.add_argument(
        "--request-timeout",
        type=float,
        default=5.0,
        metavar="S",
        help="per-request deadline before retry on another worker (seconds)",
    )
    p.add_argument(
        "--liveness-deadline",
        type=float,
        default=3.0,
        metavar="S",
        help="heartbeat age at which a worker counts as hung (seconds)",
    )
    p.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        help="respawn budget per worker before permanent downgrade",
    )

    p = sub.add_parser(
        "loadtest", help="drive a running prediction server at a fixed rate"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--requests", type=int, default=100, help="total requests to send")
    p.add_argument(
        "--rate", type=float, default=0.0, help="aggregate requests/s (0 = unpaced)"
    )
    p.add_argument("--connections", type=int, default=4)
    p.add_argument(
        "--horizon", type=int, default=8, help="prediction horizon per request, ticks"
    )
    p.add_argument(
        "--kill-worker-after",
        type=float,
        default=None,
        metavar="S",
        help="inject a kill-worker control command this many seconds in "
        "(needs --allow-chaos on the server)",
    )
    p.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the server to shut down gracefully after the run",
    )
    p.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="how long to retry the initial connect while the server boots",
    )

    return parser


def _context(args):
    from repro.experiments.context import get_context

    return get_context(days=args.days, seed=args.seed)


def _cmd_simulate(args) -> int:
    from repro.data.io import save_dataset_csv
    from repro.data.synth import SynthConfig, generate
    from repro.simulation.simulator import SimulationConfig

    output = generate(
        SynthConfig(simulation=SimulationConfig(days=args.days, seed=args.seed), seed=args.seed)
    )
    dataset = output.full_dataset if args.full else output.analysis_dataset
    path = save_dataset_csv(dataset, args.output)
    print(f"wrote {dataset.n_sensors} sensors x {dataset.n_samples} ticks to {path}")
    return 0


def _cmd_synth(args) -> int:
    from repro.data.synth import SynthConfig, generate
    from repro.simulation.simulator import SimulationConfig

    output = generate(
        SynthConfig(simulation=SimulationConfig(days=args.days, seed=args.seed), seed=args.seed),
        use_cache=not args.no_cache,
        chunk_steps=args.chunk_steps,
        engine=args.engine,
    )
    dataset = output.full_dataset if args.full else output.analysis_dataset
    print(
        f"generated {args.days:g} days with the {args.engine} engine: "
        f"{dataset.n_sensors} sensors x {dataset.n_samples} ticks"
    )
    if args.output:
        from repro.data.io import save_dataset_csv

        path = save_dataset_csv(dataset, args.output)
        print(f"wrote {path}")
    return 0


#: Trajectory fields compared by ``repro fleet --parity``.
_FLEET_PARITY_FIELDS = (
    "zone_temps",
    "mass_temps",
    "vav_flows",
    "vav_temps",
    "co2",
    "humidity_ratio",
    "thermostat_readings",
    "thermostat_true",
)


def _cmd_fleet(args) -> int:
    import numpy as np

    from repro.data.synth import generate_fleet
    from repro.simulation.fleet import FleetConfig, FleetSimulator, build_fleet

    config = FleetConfig(n_buildings=args.buildings, days=args.days, seed=args.seed)
    specs = build_fleet(config)
    fleet = generate_fleet(
        specs=specs, use_cache=not args.no_cache, chunk_steps=args.chunk_steps
    )
    cohorts = FleetSimulator(specs).cohorts
    print(
        f"fleet of {fleet.n_buildings} buildings, {args.days:g} days each, "
        f"{len(cohorts)} cohort(s) "
        f"({', '.join(str(c.n_buildings) for c in cohorts)} buildings)"
    )
    for spec, result in zip(fleet.specs, fleet.results):
        mean_temp = float(result.zone_temps.mean())
        print(
            f"  {spec.name:14s} {spec.width:5.1f}x{spec.depth:4.1f}x{spec.height:3.1f} m, "
            f"{spec.capacity:3d} seats, {spec.n_vavs} VAVs, "
            f"setpoint {spec.simulation.hvac.setpoint:5.2f} degC, "
            f"mean zone temp {mean_temp:5.2f} degC"
        )
    if args.parity:
        failures = []
        for spec, result in zip(fleet.specs, fleet.results):
            solo = spec.simulator().run()
            for field in _FLEET_PARITY_FIELDS:
                if not np.array_equal(getattr(result, field), getattr(solo, field)):
                    failures.append(f"{spec.name}.{field}")
        if failures:
            print(f"PARITY FAILED: {', '.join(failures)}", file=sys.stderr)
            return 1
        print(
            f"parity: all {fleet.n_buildings} buildings bit-identical to their solo runs"
        )
    return 0


def _cmd_info(args) -> int:
    from repro.data.modes import OCCUPIED, UNOCCUPIED

    if args.input:
        from repro.data.io import load_dataset_csv

        dataset = load_dataset_csv(args.input)
    else:
        dataset = _context(args).analysis
    print(f"sensors ({dataset.n_sensors}): {list(dataset.sensor_ids)}")
    print(f"ticks: {dataset.n_samples} at {dataset.axis.period:.0f}s from {dataset.axis.epoch}")
    print(f"temperature coverage: {dataset.coverage():.1%}")
    for mode in (OCCUPIED, UNOCCUPIED):
        usable = dataset.usable_days(mode)
        print(f"usable {mode.name} days: {len(usable)}")
    segments = dataset.segments()
    print(f"continuous segments: {len(segments)} (longest {max((len(s) for s in segments), default=0)} ticks)")
    return 0


def _cmd_fit(args) -> int:
    from repro.data.modes import OCCUPIED, UNOCCUPIED
    from repro.experiments.table1 import OCCUPIED_EVAL, UNOCCUPIED_EVAL
    from repro.sysid.evaluation import fit_and_evaluate

    ctx = _context(args)
    mode = OCCUPIED if args.mode == "occupied" else UNOCCUPIED
    train = ctx.train_occupied if mode is OCCUPIED else ctx.train_unoccupied
    valid = ctx.valid_occupied if mode is OCCUPIED else ctx.valid_unoccupied
    evaluation_options = OCCUPIED_EVAL if mode is OCCUPIED else UNOCCUPIED_EVAL
    model, evaluation = fit_and_evaluate(
        train, valid, order=args.order, mode=mode, ridge=args.ridge, evaluation=evaluation_options
    )
    print(f"order-{args.order} model, {mode.name} mode, {evaluation.n_days} evaluated days")
    print(f"90th-percentile RMS error: {evaluation.overall_percentile(90):.3f} degC")
    print(f"overall RMS error:        {evaluation.overall_rms():.3f} degC")
    print(f"model spectral radius:    {model.spectral_radius():.4f}")
    return 0


def _cmd_cluster(args) -> int:
    from repro.cluster import cluster_mean_temperatures, cluster_sensors_cached

    ctx = _context(args)
    clustering = cluster_sensors_cached(ctx.train_occupied_wireless, method=args.method, k=args.k)
    means = cluster_mean_temperatures(clustering, ctx.train_occupied_wireless)
    print(f"{args.method} similarity, k = {clustering.k} (eigengap pick)")
    for cluster in range(clustering.k):
        members = clustering.members(cluster)
        print(f"cluster {cluster}: mean {means[cluster]:.2f} degC, members {members}")
    return 0


def _cmd_select(args) -> int:
    from repro.cluster import cluster_sensors_cached
    from repro.selection import (
        evaluate_selection,
        gp_selection,
        near_mean_selection,
        random_selection,
        stratified_random_selection,
        thermostat_selection,
    )

    ctx = _context(args)
    train, valid = ctx.train_occupied_wireless, ctx.valid_occupied_wireless
    clustering = cluster_sensors_cached(train, method="correlation", k=args.k)
    if args.strategy == "sms":
        selection = near_mean_selection(clustering, train, n_per_cluster=args.per_cluster)
    elif args.strategy == "srs":
        selection = stratified_random_selection(
            clustering, seed=args.seed, n_per_cluster=args.per_cluster
        )
    elif args.strategy == "rs":
        selection = random_selection(clustering, seed=args.seed, n_per_cluster=args.per_cluster)
    elif args.strategy == "thermostats":
        selection = thermostat_selection(clustering, ctx.train_occupied)
        train, valid = ctx.train_occupied, ctx.valid_occupied
    else:
        selection = gp_selection(clustering, train)
    error = evaluate_selection(selection, clustering, valid)
    print(f"strategy {selection.strategy}, k = {clustering.k}")
    for cluster, sensors in sorted(selection.assignment.items()):
        print(f"cluster {cluster}: representatives {list(sensors)}")
    print(f"99th-percentile cluster-mean error: {error:.3f} degC")
    return 0


def _cmd_experiment(args) -> int:
    from repro.errors import ExperimentError
    from repro.experiments.runner import RunnerOptions, run_experiments_detailed

    try:
        report = run_experiments_detailed(
            [args.id],
            days=args.days,
            seed=args.seed,
            jobs=args.jobs,
            options=RunnerOptions.from_env(),
            schedule=args.schedule,
        )
    except ExperimentError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for _, rendered in report.results:
        print(rendered)
        print()
    if report.failures:
        print(report.render_failures(), file=sys.stderr)
        # Partial failure renders what survived; total failure is the
        # same hard error a bad invocation gets.
        return 1 if report.results else 2
    return 0


def _report_header(days: float, seed: int) -> List[str]:
    """Report preamble, making off-protocol trace lengths visible.

    The paper's protocol is the 98-day semester trace; a shorter run is
    perfectly fine for smoke-testing but must not masquerade as the
    real thing, so the header states the active length either way.
    """
    from repro.experiments.context import DEFAULT_DAYS

    if days == DEFAULT_DAYS:
        protocol = f"paper protocol ({DEFAULT_DAYS:g} days)"
    else:
        protocol = f"OFF-PROTOCOL: paper uses {DEFAULT_DAYS:g} days"
    return [
        f"Experiment report: {days:g}-day synthetic trace, seed {seed}",
        f"trace length: {days:g} days [{protocol}]",
        "",
    ]


def _render_cost_profile(days: float) -> str:
    """The ``--profile`` rendering of the persisted per-task cost model."""
    from repro.experiments.costs import CostModel

    model = CostModel.load(days)
    lines = [
        f"== task cost model ({days:g}-day protocol, {len(model.ewma_s)} tasks) =="
    ]
    for task_id, cost_s, n_samples in model.table():
        plural = "s" if n_samples != 1 else ""
        lines.append(f"  {task_id:<28} {cost_s:9.3f} s  ({n_samples} sample{plural})")
    if not model.known():
        lines.append("  (empty - run a cold report to populate it)")
    return "\n".join(lines)


def _cmd_report(args) -> int:
    from repro.experiments.runner import RunnerOptions, run_experiments_detailed

    report = run_experiments_detailed(
        ["all"],
        days=args.days,
        seed=args.seed,
        jobs=args.jobs,
        options=RunnerOptions.from_env(),
        schedule=args.schedule,
    )
    chunks = _report_header(args.days, args.seed)
    for _, rendered in report.results:
        chunks.append(rendered)
        chunks.append("")
    if report.failures:
        chunks.append(report.render_failures())
        chunks.append("")
    text = "\n".join(chunks)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote report to {args.output}")
    else:
        print(text)
    if args.profile:
        print(_render_cost_profile(args.days))
    if report.failures:
        print(report.render_failures(), file=sys.stderr)
        return 1
    return 0


def _cmd_robustness(args) -> int:
    from repro.experiments import EXPERIMENTS
    from repro.experiments.robustness import N_FAULTED

    if args.sweep == "count":
        result = EXPERIMENTS["robustness-count"].run(
            context=_context(args),
            replicates=args.replicates,
            batched=not args.serial_traces,
        )
    else:
        n_faulted = args.faulted if args.faulted is not None else N_FAULTED
        result = EXPERIMENTS["robustness"].run(
            context=_context(args),
            n_faulted=n_faulted,
            replicates=args.replicates,
            batched=not args.serial_traces,
        )
    print(result.render())
    return 0


def _stream_sensor_ids(ctx) -> List[int]:
    """The deployment-phase streamed sensors: the near-mean selection."""
    from repro.cluster import cluster_sensors_cached
    from repro.selection import near_mean_selection

    clustering = cluster_sensors_cached(
        ctx.train_occupied_wireless, method="correlation", k=2
    )
    return near_mean_selection(clustering, ctx.train_occupied_wireless).sensors()


def _build_pipeline(args, forgetting: float = 1.0, should_stop=None):
    """Stream the analysis trace (selected sensors) into a fresh pipeline."""
    from repro.streaming import OnlinePipeline, ReplaySource

    ctx = _context(args)
    stream_ds = ctx.analysis.select_sensors(_stream_sensor_ids(ctx))
    pipeline = OnlinePipeline(
        stream_ds.sensor_ids,
        stream_ds.channels.n_channels,
        order=args.order,
        forgetting=forgetting,
    )
    pipeline.run(ReplaySource(stream_ds), should_stop=should_stop)
    return pipeline


def _resolve_fleet_building(index: int, days: float, seed: int):
    """Fleet member ``index`` of the seeded spec distribution.

    Per-building draws are independent derived streams, so resolving
    member ``index`` only needs a fleet of ``index + 1`` — the spec is
    identical in any larger fleet with the same seed.
    """
    from repro.errors import StreamingError
    from repro.simulation.fleet import FleetConfig, build_fleet

    if index < 0:
        raise StreamingError("--building-index must be >= 0")
    return build_fleet(FleetConfig(n_buildings=index + 1, days=days, seed=seed))[index]


def _build_live_pipeline(args, should_stop=None):
    """Run the online pipeline straight off the chunked simulator."""
    from repro.simulation.simulator import SimulationConfig
    from repro.streaming import GateThresholds, LiveSimSource, OnlinePipeline

    if args.building_index is not None:
        fleet_seed = (
            args.building_seed if args.building_seed is not None else args.seed
        )
        building = _resolve_fleet_building(args.building_index, args.days, fleet_seed)
        print(
            f"streaming fleet member {args.building_index} "
            f"({building.name}, seed {fleet_seed})"
        )
        source = LiveSimSource(building=building, chunk_steps=args.chunk_steps)
    else:
        source = LiveSimSource(
            SimulationConfig(days=args.days, seed=args.seed),
            chunk_steps=args.chunk_steps,
        )
    thresholds = source.default_thresholds()
    if args.max_age is not None:
        import dataclasses

        thresholds = dataclasses.replace(thresholds, max_age_s=args.max_age)
    pipeline = OnlinePipeline(
        source.sensor_ids,
        source.channels.n_channels,
        order=args.order,
        forgetting=args.forgetting,
        gate_thresholds=thresholds,
    )
    pipeline.run(source, should_stop=should_stop)
    return pipeline


#: Snapshot name used when an interrupted ``repro stream`` has no
#: ``--snapshot`` of its own: state is never silently discarded.
AUTOSAVE_SNAPSHOT = "stream-autosave"


def _cmd_stream(args) -> int:
    from repro.streaming import GracefulShutdown, save_snapshot

    if args.building_index is not None and not args.live:
        print("--building-index needs --live (fleet members stream live)", file=sys.stderr)
        return 2
    with GracefulShutdown() as stop:
        if args.live:
            pipeline = _build_live_pipeline(args, should_stop=stop.requested)
        else:
            pipeline = _build_pipeline(
                args, forgetting=args.forgetting, should_stop=stop.requested
            )
        interrupted = stop.triggered
        interrupt_signal = stop.signal_number
    snapshot_name = args.snapshot
    if interrupted:
        snapshot_name = snapshot_name or AUTOSAVE_SNAPSHOT
        print(
            f"interrupted by signal {interrupt_signal}; drained between ticks, "
            f"saving snapshot {snapshot_name!r}",
            file=sys.stderr,
        )
    print(f"streamed sensors: {list(pipeline.sensor_ids)}")
    print(pipeline.summary.describe())
    if pipeline.gate.reason_counts:
        reasons = ", ".join(
            f"{category}: {count}"
            for category, count in sorted(pipeline.gate.reason_counts.items())
        )
        print(f"quarantine reasons: {reasons}")
    for sid, count in sorted(pipeline.summary.quarantine_counts.items()):
        print(f"  sensor {sid}: {count} quarantined readings")
    if pipeline.estimator.ready:
        model = pipeline.model()
        print(
            f"online model: order {model.order}, "
            f"spectral radius {model.spectral_radius():.4f}"
        )
    else:
        print("online model: underdetermined (not enough clean ticks)")
    if snapshot_name:
        key = save_snapshot(snapshot_name, pipeline)
        if key is None:
            print("cache disabled; snapshot not saved", file=sys.stderr)
            return 1
        print(f"snapshot {snapshot_name!r} saved ({key[:16]}...)")
    return 0


def _cmd_ingest(args) -> int:
    """``repro ingest``: sharded fleet ingestion with optional parity."""
    from pathlib import Path

    from repro.errors import ReproError
    from repro.streaming import (
        IngestPlan,
        ShardRunnerOptions,
        run_ingest,
        run_serial,
        verify_parity,
    )

    plan = IngestPlan(
        n_buildings=args.buildings,
        days=args.days,
        seed=args.seed,
        n_shards=args.shards,
        chunk_steps=args.chunk_steps,
        batched=not args.solo_producers,
    )
    out = Path(args.out)
    sharded_dir = out / "sharded"
    assignment = plan.assignment()
    print(
        f"ingesting {args.buildings} buildings over {args.shards} shard(s), "
        f"{args.days:g} day(s) each"
    )
    for shard_id in sorted(assignment):
        topics = ", ".join(spec.topic for spec in assignment[shard_id]) or "(idle)"
        print(f"  shard {shard_id}: {topics}")
    try:
        report = run_ingest(
            plan,
            sharded_dir,
            ShardRunnerOptions(
                resume=args.resume,
                kill_shard_after_seals=args.kill_shard_after,
                max_restarts=args.max_restarts,
            ),
        )
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if report.killed_shard is not None:
        print(f"chaos: killed shard {report.killed_shard} (respawned and resumed)")
    print(
        f"processed {report.ticks} ticks in {report.elapsed_s:.2f} s "
        f"({report.ticks_per_s:.0f} ticks/s), restarts {report.restarts}"
    )
    for shard_id, stats in sorted(report.shards.items()):
        for topic, part in sorted(stats.get("partitions", {}).items()):
            print(
                f"  shard {shard_id} {topic}: {part['n_ticks']} ticks, "
                f"high water {part['high_water']}, blocked {part['blocked']}, "
                f"dropped {part['dropped']}"
            )
    if report.interrupted:
        state = "clean" if report.drain_clean else "DIRTY"
        print(
            f"drain {state}: every partition snapshot resealed; "
            f"rerun with --resume to continue",
            file=sys.stderr,
        )
        return 0 if report.drain_clean else 1
    if not report.completed:
        print("ingest did not complete", file=sys.stderr)
        return 1
    if args.parity:
        serial_dir = out / "serial"
        print("parity: re-running every building serially ...")
        run_serial(plan, serial_dir)
        mismatched = verify_parity(sharded_dir, serial_dir, report.topics)
        if mismatched:
            print(f"PARITY FAILED: {', '.join(mismatched)}", file=sys.stderr)
            return 1
        print(
            f"parity OK: all {len(report.topics)} buildings byte-identical "
            f"to their serial runs"
        )
    return 0


def _serve_tcp(args) -> int:
    """``repro serve --workers N``: the supervised multi-worker server."""
    import asyncio

    from repro.errors import ReproError
    from repro.streaming import (
        PredictionServer,
        ServerConfig,
        WorkerPoolConfig,
        load_snapshot,
        save_snapshot,
    )

    snapshot_name = args.restore or "serve"
    if load_snapshot(snapshot_name) is None:
        if args.restore:
            print(
                f"snapshot {args.restore!r} not found; streaming afresh",
                file=sys.stderr,
            )
        pipeline = _build_pipeline(args)
        if save_snapshot(snapshot_name, pipeline) is None:
            print(
                "multi-worker serving needs the artifact cache; "
                "unset REPRO_CACHE=off or use --workers 0",
                file=sys.stderr,
            )
            return 2
    config = ServerConfig(
        host=args.host,
        port=args.port,
        pool=WorkerPoolConfig(
            n_workers=args.workers,
            snapshot_name=snapshot_name,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            request_timeout_s=args.request_timeout,
            liveness_deadline_s=args.liveness_deadline,
            max_restarts=args.max_restarts,
        ),
        final_snapshot=args.final_snapshot,
        allow_chaos=args.allow_chaos,
    )

    async def _run():
        server = PredictionServer(config)
        port = await server.start()
        print(
            f"serving on {config.host}:{port} with {args.workers} workers",
            flush=True,
        )
        return await server.serve_until_shutdown()

    try:
        summary = asyncio.run(_run())
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(
        f"drain {'clean' if summary['drain_clean'] else 'DIRTY'}: "
        f"served {summary['served']}, shed {summary['shed']}, "
        f"retried {summary['retried']}, restarts {summary['restarts']}, "
        f"deadline misses {summary['deadline_misses']} "
        f"(reason: {summary['reason']})",
        file=sys.stderr,
    )
    for wid, worker in sorted(summary.get("per_worker", {}).items()):
        print(
            f"  worker {wid}: {worker['state']}, "
            f"queue depth {worker['queue_depth']}, "
            f"restarts {worker['restarts']}, shed {worker['shed']}",
            file=sys.stderr,
        )
    if summary.get("final_snapshot_key"):
        print(f"final snapshot {args.final_snapshot!r} saved", file=sys.stderr)
    return 0 if summary["drain_clean"] else 1


def _cmd_serve(args) -> int:
    import json

    from repro.errors import ReproError
    from repro.streaming import (
        PredictionService,
        ServiceConfig,
        build_request,
        load_snapshot,
    )

    if args.workers > 0:
        return _serve_tcp(args)
    pipeline = None
    if args.restore:
        pipeline = load_snapshot(args.restore)
        if pipeline is None:
            print(
                f"snapshot {args.restore!r} not found; streaming afresh",
                file=sys.stderr,
            )
    if pipeline is None:
        pipeline = _build_pipeline(args)
    service = PredictionService(
        pipeline, ServiceConfig(max_queue=args.max_queue, max_batch=args.max_batch)
    )

    def flush() -> None:
        while True:
            responses = service.drain()
            if not responses:
                return
            for response in responses:
                print(json.dumps(response.to_payload()))

    if args.demo:
        held_inputs = pipeline.estimator.last_inputs()
        try:
            for _ in range(args.demo):
                request = build_request(
                    {"horizon_ticks": args.horizon},
                    held_inputs,
                    service.next_request_id(),
                    service.config.max_horizon_ticks,
                )
                service.submit(request)
            flush()
        except ReproError as exc:
            print(f"demo request failed: {exc}", file=sys.stderr)
            return 2
    else:
        held_inputs = pipeline.estimator.last_inputs()
        buffered_history = pipeline.estimator.history() is not None
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                request = build_request(
                    payload,
                    held_inputs,
                    service.next_request_id(),
                    service.config.max_horizon_ticks,
                    buffered_history,
                )
                service.submit(request)
            except (ValueError, ReproError) as exc:
                print(json.dumps({"error": str(exc)}))
                continue
            if service.pending >= service.config.max_batch:
                flush()
        flush()
    stats = service.stats.as_dict()
    print(
        f"served {stats['served']} requests in {stats['batches']} batches, "
        f"shed {stats['shed']}, rejected {stats['rejected']} "
        f"(mean latency {stats['mean_latency_s'] * 1000.0:.2f} ms)",
        file=sys.stderr,
    )
    return 0


def _cmd_loadtest(args) -> int:
    from repro.errors import ServingError
    from repro.streaming.loadtest import LoadTestConfig, run_loadtest

    try:
        result = run_loadtest(
            LoadTestConfig(
                host=args.host,
                port=args.port,
                n_requests=args.requests,
                rate_rps=args.rate,
                n_connections=args.connections,
                horizon_ticks=args.horizon,
                kill_worker_after_s=args.kill_worker_after,
                connect_timeout_s=args.connect_timeout,
                shutdown_after=args.shutdown,
            )
        )
    except ServingError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    summary = result.as_dict()
    print(
        f"sent {summary['sent']}, served {summary['served']}, "
        f"shed {summary['shed']}, errors {summary['errors']}, "
        f"lost {summary['lost']}"
    )
    print(
        f"throughput {summary['req_per_s']:.1f} req/s; latency "
        f"p50 {summary['p50_latency_s'] * 1000.0:.2f} ms, "
        f"p95 {summary['p95_latency_s'] * 1000.0:.2f} ms, "
        f"p99 {summary['p99_latency_s'] * 1000.0:.2f} ms"
    )
    if result.killed_worker is not None:
        print(f"fault injection: killed worker {result.killed_worker}")
    if result.lost > 0:
        print(f"LOADTEST FAILED: {result.lost} accepted requests lost", file=sys.stderr)
        return 1
    if result.served == 0:
        print("LOADTEST FAILED: no requests served", file=sys.stderr)
        return 1
    return 0


def _cmd_snapshot(args) -> int:
    from repro.experiments.floorplan import busiest_tick, render_floorplan

    dataset = _context(args).analysis
    tick = args.tick if args.tick is not None else busiest_tick(dataset)
    print(render_floorplan(dataset, tick))
    occupancy = dataset.input_channel("occupancy")[tick]
    print(f"occupancy at snapshot: ~{occupancy:.0f}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "synth": _cmd_synth,
    "fleet": _cmd_fleet,
    "snapshot": _cmd_snapshot,
    "info": _cmd_info,
    "fit": _cmd_fit,
    "cluster": _cmd_cluster,
    "select": _cmd_select,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
    "robustness": _cmd_robustness,
    "stream": _cmd_stream,
    "ingest": _cmd_ingest,
    "serve": _cmd_serve,
    "loadtest": _cmd_loadtest,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
