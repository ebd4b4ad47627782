"""Command line of the end-to-end benchmark.

``run --workload W --seed N --seconds S --trace 0|1``
    The contract form: one pass of one workload in this interpreter;
    the last line of stdout is the contract's JSON object.
``run [--seed N] [--workload W] [--seconds S] [--runs R] [--out F]``
    The full report: every workload (or the one named), each pass in
    its own fresh interpreter, untraced (``R`` times) for the
    end-to-end metrics and once more traced for the per-layer metrics;
    prints every metric by name with its unit and writes the same as
    JSON.
``compare A.json B.json``
    One row per (workload, end-to-end metric) of two full reports.

Exit status is non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.e2e import ROOT, spec

#: ``--seconds`` of ``run --smoke``: a few ops per workload.
SMOKE_SECONDS = 1.0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m benchmarks.e2e`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of the whole chain.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run", help="measure one workload, or all of them")
    run.add_argument("--workload", choices=spec.workload_names())
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="nominal measured seconds per pass "
                          "(default: run_seconds of BENCHMARK.json)")
    run.add_argument("--smoke", action="store_true",
                     help=f"same as --seconds {SMOKE_SECONDS:g}")
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="contract form: a single pass, untraced (0) "
                          "or traced (1), in this interpreter")
    run.add_argument("--runs", type=int, default=1,
                     help="full report: untraced runs per workload "
                          "(compare takes their median and spread)")
    run.add_argument("--out", type=Path, default=None,
                     help="full report: where to write the JSON")
    compare = commands.add_parser(
        "compare", help="compare two full reports")
    compare.add_argument("before", type=Path)
    compare.add_argument("after", type=Path)
    return parser


def _single_pass(args, seconds: float) -> int:
    try:
        from benchmarks.e2e import runner
    except ImportError as exc:
        print(f"benchmarks.e2e: the program under test is not "
              f"importable from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    result = runner.run_pass(args.workload, args.seed, seconds,
                             traced=bool(args.trace))
    print(runner.render(result))
    print(runner.detail_line(result))
    print(json.dumps(result.contract()))
    return 1 if result.failures else 0


def _child_pass(workload: str, seed: int, seconds: float,
                trace: int) -> Optional[Dict]:
    """One pass in a fresh interpreter; its ``detail`` record."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("__main__.py")),
         "run", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    detail = None
    for line in completed.stdout.splitlines():
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
        elif not line.startswith("{"):
            print(line)
    if detail is None:
        sys.stderr.write(completed.stderr)
    return detail


def _full_report(args, seconds: float) -> int:
    names = [args.workload] if args.workload else spec.workload_names()
    report = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    failed = False
    for name in names:
        untraced = [_child_pass(name, args.seed, seconds, 0)
                    for _ in range(max(1, args.runs))]
        traced = [_child_pass(name, args.seed, seconds, 1)]
        for detail in untraced + traced:
            if detail is None or detail["failures"]:
                failed = True
        report["workloads"][name] = {
            "end_to_end": [d for d in untraced if d is not None],
            "per_layer": [d for d in traced if d is not None],
        }
        print()
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2,
                                       sort_keys=True) + "\n")
        print(f"report written to {args.out}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        from benchmarks.e2e.compare import compare_files

        return compare_files(args.before, args.after)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else spec.run_seconds()
    if args.trace is not None:
        if args.workload is None:
            print("--trace needs --workload", file=sys.stderr)
            return 2
        return _single_pass(args, seconds)
    return _full_report(args, seconds)
