"""AST lint: the benchmark stays on ``repro``'s public surface.

In the style of ``tests/test_boundary_lint.py``. Two rules, over every
module of ``bench/`` but the tests: no underscore-prefixed attribute of
anything but ``self``, nor such an import (a later PR must be free to
rename a private name without editing the benchmark), and no keyword argument that selects one of the paths
ROADMAP slates for deletion (the benchmark must measure the defaults).
"""

import ast
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent

#: knobs ROADMAP's "one way to run a query" item deletes
DOOMED_KNOBS = {
    "execution_mode", "event_driven", "spill_policy", "compact_ids",
    "lazy_routing", "route_cache", "mode",
}


def _modules() -> list[Path]:
    files = sorted(p for p in BENCH.glob("*.py"))
    assert files, f"no benchmark sources under {BENCH}"
    return files


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def violations(source: str, label: str) -> list[str]:
    out: list[str] = []
    for node in ast.walk(ast.parse(source, filename=label)):
        own = isinstance(node, ast.Attribute) and (
            isinstance(node.value, ast.Name) and node.value.id == "self"
        )
        if isinstance(node, ast.Attribute) and _private(node.attr) and not own:
            out.append(f"{label}:{node.lineno}: private attribute .{node.attr}")
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if _private(alias.name):
                    out.append(f"{label}:{node.lineno}: private import {alias.name}")
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg in DOOMED_KNOBS:
                    out.append(
                        f"{label}:{node.lineno}: passes {keyword.arg}=, a knob "
                        "slated for deletion — measure the default"
                    )
    return out


def test_benchmark_uses_only_public_names_and_default_paths():
    found: list[str] = []
    for path in _modules():
        found.extend(violations(path.read_text(), path.name))
    assert not found, "benchmark boundary violations:\n" + "\n".join(found)


def test_lint_detects_each_forbidden_pattern():
    snippets = {
        "attribute": "def f(net):\n    return net._ring\n",
        "import": "from repro.sim.shard import _plan_bounds\n",
        "knob": "DhtNetwork(rng=1, compact_ids=True)\n",
        "mode": "SearchEngine(dht, catalog, mode='pipelined')\n",
    }
    for name, code in snippets.items():
        assert violations(code, name), f"lint missed the {name} pattern"
    assert not violations("x = obj.__class__.__name__\n", "dunder")
    assert not violations("class A:\n    def f(self):\n        self._x = 1\n", "own")
