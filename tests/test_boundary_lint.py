"""Boundary lint: nothing outside ``repro.dht`` pokes node internals, and
the hybrid race stack is wired in one place.

The PR that introduced :mod:`repro.net` moved every cross-node
interaction — routed puts/gets, replica copies, temp-key stashing,
bandwidth charging — behind the :class:`~repro.dht.network.DhtNetwork`
public API and its transport. This AST-level lint keeps it that way: a
regression that reaches into ``DhtNode`` objects, per-node ``.store``
local storage, or the raw bandwidth meter from outside the owning
package fails here with the offending file and line.

The same walk holds the world builder's monopoly: inside ``src/repro``
only :mod:`repro.hybrid.world` constructs a ``HybridQueryEngine`` or a
``HybridUltrapeer``, so the stack's pairing, clock and obs wiring cannot
drift apart again at a hand-wired site.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: modules allowed to touch DhtNode / LocalStore internals
DHT_INTERNAL = ("repro/dht/",)
#: modules allowed to charge a BandwidthMeter directly: the transport
#: itself, and the meter's own module
METER_CHARGERS = ("repro/net/", "repro/common/units.py")

#: attribute names that expose DhtNode internals
FORBIDDEN_ATTRS = {"store", "successors"}
#: imports that bypass the DhtNetwork facade
FORBIDDEN_IMPORTS = {"repro.dht.node", "repro.dht.storage"}
#: the one module allowed to construct the race stack
WORLD_BUILDER = ("repro/hybrid/world.py",)
#: classes only the world builder constructs
WORLD_CLASSES = {"HybridQueryEngine", "HybridUltrapeer"}


def _module_files() -> list[Path]:
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    return files


def _relative(path: Path) -> str:
    return path.relative_to(SRC.parent).as_posix()


def _exempt(path: Path, prefixes: tuple[str, ...]) -> bool:
    rel = path.relative_to(SRC.parent / "repro").as_posix()
    return any(rel.startswith(p.removeprefix("repro/")) for p in prefixes)


def _constructs_world_class(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in WORLD_CLASSES


def _violations_in(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out: list[str] = []
    check_internals = not _exempt(path, DHT_INTERNAL)
    check_meter = not _exempt(path, METER_CHARGERS)
    check_world = not _exempt(path, WORLD_BUILDER)
    for node in ast.walk(tree):
        if check_world and _constructs_world_class(node):
            out.append(
                f"{_relative(path)}:{node.lineno}: constructs the race stack "
                "by hand — build it with repro.hybrid.world.build_world"
            )
        if check_internals and isinstance(node, ast.Attribute):
            if node.attr in FORBIDDEN_ATTRS:
                out.append(
                    f"{_relative(path)}:{node.lineno}: attribute .{node.attr} "
                    "reaches into DhtNode internals — use the DhtNetwork "
                    "local-store API (put_local/get_local/stored_items/...)"
                )
        if check_internals and isinstance(node, ast.ImportFrom):
            if node.module in FORBIDDEN_IMPORTS:
                out.append(
                    f"{_relative(path)}:{node.lineno}: import of {node.module} "
                    "bypasses the DhtNetwork facade"
                )
        if check_internals and isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in FORBIDDEN_IMPORTS:
                    out.append(
                        f"{_relative(path)}:{alias.lineno if hasattr(alias, 'lineno') else node.lineno}: "
                        f"import of {alias.name} bypasses the DhtNetwork facade"
                    )
        if check_meter and isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "charge"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "meter"
            ):
                out.append(
                    f"{_relative(path)}:{node.lineno}: direct meter.charge() — "
                    "route wire costs through the repro.net transport"
                )
    return out


def test_no_module_outside_dht_touches_node_internals():
    violations: list[str] = []
    for path in _module_files():
        violations.extend(_violations_in(path))
    assert not violations, "transport-boundary violations:\n" + "\n".join(violations)


def test_lint_actually_detects_violations():
    """Self-check: the walker flags each forbidden pattern."""
    snippets = {
        "attr": "def f(n):\n    return n.store.get(1)\n",
        "import_from": "from repro.dht.storage import LocalStore\n",
        "import": "import repro.dht.node\n",
        "meter": "def f(net):\n    net.meter.charge('x', 1, 2)\n",
        "engine": "def f(sim, dht):\n    return HybridQueryEngine(sim, dht)\n",
        "ultrapeer": "def f(m):\n    return m.HybridUltrapeer(1, 2, None, None)\n",
    }
    probe = SRC / "pier" / "_lint_probe.py"  # virtual path outside exemptions
    for name, code in snippets.items():
        tree = ast.parse(code)
        hits = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_ATTRS:
                hits.append(node)
            if isinstance(node, ast.ImportFrom) and node.module in FORBIDDEN_IMPORTS:
                hits.append(node)
            if isinstance(node, ast.Import) and any(
                a.name in FORBIDDEN_IMPORTS for a in node.names
            ):
                hits.append(node)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "charge"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "meter"
            ):
                hits.append(node)
            if _constructs_world_class(node):
                hits.append(node)
        assert hits, f"lint failed to flag the {name!r} pattern"
    assert not _exempt(probe, DHT_INTERNAL)
    assert _exempt(SRC / "dht" / "network.py", DHT_INTERNAL)
    assert _exempt(SRC / "net" / "transport.py", METER_CHARGERS)
    assert _exempt(SRC / "hybrid" / "world.py", WORLD_BUILDER)
    assert not _exempt(SRC / "hybrid" / "deployment.py", WORLD_BUILDER)


def test_deleted_path_selectors_stay_deleted():
    """One path per job: no constructor or config field selects a twin,
    the kernel cancels by group only (no per-event handle), and where
    wall time goes is cProfile's job, not a hook in the event loop."""
    import dataclasses
    import importlib
    import inspect

    import pytest

    from repro.dht.network import DhtNetwork
    from repro.pier.dataflow import DataflowConfig, DataflowExecutor
    from repro.pier.operators import StoredHashJoin
    from repro.sim import engine

    for name in ("Event", "install_profiler", "Process", "run_callbacks"):
        assert not hasattr(engine, name), name
    with pytest.raises(ImportError):
        importlib.import_module("repro.obs.profile")
    assert engine.Simulator().schedule(0, lambda: None) is None

    exposed = (
        set(inspect.signature(DhtNetwork.__init__).parameters)
        | set(inspect.signature(StoredHashJoin.__init__).parameters)
        | set(inspect.signature(DataflowExecutor.__init__).parameters)
        | {field.name for field in dataclasses.fields(DataflowConfig)}
    )
    gone = {
        "spill_policy",
        "lazy_routing",
        "route_cache",
        "left",
        "right",
        "spill_sink",
        "temp_namespace",
    }
    assert not exposed & gone
