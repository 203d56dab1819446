"""``--selfcheck``: is the benchmark steady enough for its own bounds?

Runs every workload as two back-to-back sets, each of ten runs with seeds
``seed .. seed+9``, every run in a fresh process exactly as the driver
starts it. Per end-to-end metric it prints both medians, their relative
gap, each set's spread (inter-quartile distance over the median) and a
verdict against the bound in ``BENCHMARK.json``: the second median may not
be worse than the first by more than the bound, and the spread may not
exceed it (set-up time's spread is exempt). The two sets share their seeds,
so every simulated metric must agree exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys

from bench import ROOT
from bench.harness import metric_kind
from bench.reducers import summarize

#: Runs per set, as in the driver's acceptance test. The committed bounds
#: were judged on quartiles of ten values; fewer would not justify them.
SELFCHECK_RUNS = 10


def _run(name: str, seed: int, seconds: float) -> tuple[dict, float]:
    """One run in its own process; returns the parsed result line and the
    run's ``trace.machine_speed`` (printed, but not an end-to-end metric)."""
    done = subprocess.run(
        [
            sys.executable, "-m", "bench", "--workload", name, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{name} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}"
        )
    lines = done.stdout.strip().splitlines()
    speed = next(line for line in lines if line.startswith("trace.machine_speed"))
    return json.loads(lines[-1]), float(speed.split()[2])


def selfcheck(spec: dict, names: list[str], seed: int, seconds: float) -> int:
    failures = 0
    for name in names:
        sets: list[dict[str, list[float]]] = []
        speeds: list[float] = []
        for _ in range(2):
            values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
            for offset in range(SELFCHECK_RUNS):
                line, speed = _run(name, seed + offset, seconds)
                speeds.append(speed)
                if not line["correct"] or line["failed"]:
                    print(f"{name} seed {seed + offset}: output check failed")
                    failures += 1
                for metric, entry in line["metrics"].items():
                    values[metric].append(entry["value"])
            sets.append(values)
        print(
            f"## {name}: 2 sets x {SELFCHECK_RUNS} seeds x {seconds:g} s "
            f"(machine speed {min(speeds):.2f}-{max(speeds):.2f})"
        )
        print("| metric | median A | median B | gap | spread A | spread B | bound | verdict |")
        print("|---|---|---|---|---|---|---|---|")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            first, second = summarize(sets[0][key]), summarize(sets[1][key])
            if metric["better"] == "higher":
                gap = (first.median - second.median) / first.median
            else:
                gap = (second.median - first.median) / first.median
            spread = max(first.iqr_share, second.iqr_share)
            passed = gap <= bound and (key == "setup_s" or spread <= bound)
            if metric_kind(key) == "sim":
                passed = passed and sets[0][key] == sets[1][key]
            failures += not passed
            print(
                f"| {key} | {first.median:.6g} | {second.median:.6g} | {gap:+.3f} "
                f"| {first.iqr_share:.3f} | {second.iqr_share:.3f} | {bound:g} "
                f"| {'pass' if passed else 'FAIL'} |"
            )
        sys.stdout.flush()
    return 1 if failures else 0
