"""Command-line entry point: `bevx-bench run` and `bevx-bench check`.

Exit codes: 0 success, 1 equivalence-check failure, 2 usage or config error,
or a request that runs out of memory.
"""
from __future__ import annotations

import argparse
import sys

from ..errors import BevxError
from . import emit_check_json, emit_csv, emit_json, run_bench, run_check


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bevx-bench",
        description="Benchmark and verify camera-to-BEV transform backends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="time backends across settings and emit CSV/JSON"
    )
    run_p.add_argument("--config", required=True, help="scene config (JSON)")
    run_p.add_argument(
        "--settings",
        default="S1",
        help="comma-separated setting names (default: S1)",
    )
    run_p.add_argument(
        "--backends",
        default="matrixvt,ftm",
        help="comma-separated backends (default: matrixvt,ftm)",
    )
    run_p.add_argument("--repeats", type=int, default=20)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--out", default=None, help="CSV output path (default: stdout)"
    )
    run_p.add_argument(
        "--json", dest="json_out", default=None, help="also write JSON here"
    )

    check_p = sub.add_parser("check", help="run the equivalence suite")
    check_p.add_argument("--config", required=True, help="scene config (JSON)")
    check_p.add_argument("--trials", type=int, default=50)
    check_p.add_argument("--seed", type=int, default=7)
    check_p.add_argument(
        "--flip-ring-bit",
        action="store_true",
        help="corrupt one ring entry first (the suite must then fail)",
    )
    check_p.add_argument(
        "--json",
        dest="json_out",
        default=None,
        help="also write the report as JSON here",
    )
    return parser


def _split(raw):
    return [part for part in (p.strip() for p in raw.split(",")) if part]


def _cmd_run(args):
    records = run_bench(
        args.config, _split(args.settings), _split(args.backends), args.repeats, args.seed
    )
    text = emit_csv(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            f.write(emit_json(records))
    return 0


def _cmd_check(args):
    report = run_check(args.config, args.trials, args.seed, args.flip_ring_bit)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            f.write(emit_check_json(report))
    print("\n".join(report.lines()))
    return 0 if report.passed else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_check(args)
    except (BevxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # past every preflight: a bad request, not a mismatch
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
