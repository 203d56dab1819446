"""Compare a ``python3 -m bench --quick --out`` result with the pinned digests.

Usage::

    python3 -m bench --quick --out quick.json
    python3 tests/check_bench_digests.py quick.json

Each workload's ``sim_digest`` hashes every simulated outcome of its
run, so a kernel or layer rewrite that moves a simulated number fails
here even when every output check still passes. The pins in
``golden/bench_quick_digests.json`` are the seed-1 ``--quick`` digests;
re-pin only in a change that moves a simulated result on purpose, and
name the workloads it moves.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "golden" / "bench_quick_digests.json"


def moved_digests(results: list[dict]) -> list[str]:
    """One line per workload whose digest differs from its pin."""
    pinned = json.loads(PINNED.read_text())
    got = {}
    for entry in results:
        if not entry["quick"] or entry["seed"] != 1:
            raise ValueError("the pins are --quick seed-1 digests")
        got[entry["workload"]] = entry["digest"]
    return [
        f"{name}: digest {got.get(name)} != pinned {pinned.get(name)}"
        for name in sorted(pinned.keys() | got.keys())
        if got.get(name) != pinned.get(name)
    ]


def main(argv: list[str]) -> int:
    [path] = argv
    moved = moved_digests(json.loads(Path(path).read_text()))
    for line in moved:
        print(line)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
