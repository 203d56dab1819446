"""End-to-end benchmark of the hybrid Gnutella + PIERSearch simulator.

``python3 -m bench --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one of six named workloads and prints every metric with its unit;
``bench/README.md`` is the catalogue. The benchmark drives ``repro`` only
through its public surface and lives wholly in this directory.
"""

import sys
from pathlib import Path

#: the checkout root: the benchmark reads ``BENCHMARK.json`` and ``src/`` there
ROOT = Path(__file__).resolve().parent.parent

_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
