"""Benchmark entry point.

    python3 perfbench/run.py --workload {report,ingest,serve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with nothing instrumented; ``--trace 1`` is the separate traced
run that prints the per-layer metrics.  Either way the outputs are
checked against references built in set-up first; if a check fails the
run prints no numbers and exits 1.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--seed heldout`` selects the held-out seed (see ``README.md``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("report", "ingest", "serve")


def _seed(text: str) -> int:
    return common.HELDOUT_SEED if text == "heldout" else int(text)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _terminate(signum, frame) -> None:
    # Unwind through ``main``'s ``finally``, which ends every child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        common.check_layout()
    except common.LayoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    common.adopt_orphans()
    previous = signal.signal(signal.SIGTERM, _terminate)
    common.pin_environment()
    host = common.host_record()
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(
        f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
        f"trace {args.trace}"
    )

    if args.workload == "report":
        import report_wl as workload
    elif args.workload == "ingest":
        import ingest_wl as workload
    else:
        import serve_wl as workload

    work = common.Workdir(args.workload, args.seed)
    result = common.Result()
    try:
        workload.run(args.seed, args.seconds, bool(args.trace), work, result)
        if args.trace:
            import layers

            layers.traced(args.workload, args.seed, result, work)
    except common.GateFailure as exc:
        common.emit_refusal(result, str(exc))
        return 1
    finally:
        common.reap_all()
        work.close()
        signal.signal(signal.SIGTERM, previous)
    common.emit(result, common.declared_metrics("per_layer" if args.trace else "end_to_end"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
