"""Command line of the benchmark (``python3 -m bench``)."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench import ROOT
from bench.harness import load_spec, print_result, run_workload
from bench.selfcheck import selfcheck
from bench.workloads import WORKLOADS


def run_each(names: list[str], args: argparse.Namespace) -> int:
    """Every workload in a process of its own, as the driver runs them:
    ``peak_rss_mb`` is a process's high-water mark, so a second workload in
    the same process would report the first one's peak."""
    worst, parts = 0, []
    for name in names:
        command = [
            sys.executable, "-m", "bench", "--workload", name,
            "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
            "--trace", str(args.trace),
        ]
        if args.quick:
            command.append("--quick")
        if args.out is not None:
            parts.append(args.out.with_name(f"{args.out.name}.{name}.part"))
            command += ["--out", str(parts[-1])]
        sys.stdout.flush()
        worst = max(worst, abs(subprocess.run(command, cwd=ROOT, check=False).returncode))
    if args.out is not None:
        parts = [part for part in parts if part.exists()]  # a run that died wrote none
        merged = [entry for part in parts for entry in json.loads(part.read_text())]
        args.out.write_text(json.dumps(merged, indent=2) + "\n")
        for part in parts:
            part.unlink()
    return worst


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="python3 -m bench",
        description="End-to-end benchmark: six workloads, host-time and "
        "simulated-time metrics, and a per-layer traced run.",
    )
    parser.add_argument(
        "--workload", choices=[*WORKLOADS, "all"], default="all",
        help="which workload to run (default: all six, one after another, "
        "each in a fresh process)",
    )
    parser.add_argument("--seed", type=int, default=1, help="input seed")
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="how long one run measures",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="0: end-to-end metrics, tracing off; 1: per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="one repeat at reduced size: same checks, numbers not for comparison",
    )
    parser.add_argument(
        "--out", type=Path,
        help="also write the full result (environment, per-repeat samples) as JSON",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run every workload as two back-to-back sets and judge each "
        "end-to-end metric against its bound",
    )
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.selfcheck:
        return selfcheck(spec, names, args.seed, args.seconds)
    if args.out is not None:
        args.out = args.out.resolve()
        args.out.parent.mkdir(parents=True, exist_ok=True)
    if len(names) > 1:
        return run_each(names, args)
    result = run_workload(names[0], args.seed, args.seconds, bool(args.trace), args.quick)
    print_result(result, spec)
    if args.out is not None:
        args.out.write_text(json.dumps([result.to_json()], indent=2) + "\n")
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
