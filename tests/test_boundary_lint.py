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

And the sharded kernel gains no consumer: only ``repro.sim`` itself may
import :mod:`repro.sim.shard`, whose one program is the benchmark's
``shard_ring`` workload.

Finally, nothing under ``src/repro`` is dead: every function, method and
class defined there is named by some code under ``src/``, ``bench/`` or
``examples/``, or is one of the few test instruments listed, with a
reason, in :data:`TEST_INSTRUMENTS`. A package ``__init__``'s re-export
names a definition without using it, so it is not a caller; every name a
package exports must still be one it binds.

And nothing under ``src/repro`` is an option no one sets: every defaulted
parameter and every defaulted dataclass field is passed by some call
under the same roots (by keyword, by position, through ``*``/``**``,
``partial`` or ``dataclasses.replace``), or is listed, with a reason, in
:data:`OPTION_EXCEPTIONS`. A value that only its default ever takes is a
constant. Calls are matched by name, as the dead-code rule matches, so a
namesake's call can keep an option alive, never the reverse.
"""

from __future__ import annotations

import ast
import dataclasses
from collections.abc import Iterable, Iterator
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
REPO = SRC.parent.parent

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
#: the only package allowed to import the sharded kernel
SHARD_KERNEL = ("repro/sim/",)
#: directories whose code counts as a caller of a ``src/repro`` definition
#: (their ``tests`` folders excepted: a test is not a caller)
CALLER_ROOTS = ("src", "bench", "examples")
#: definitions only tests reach, kept because they measure behaviour
#: that stays; one reason each
TEST_INSTRUMENTS = {
    "all_results_for": "the recall oracle: every matching replica in the network",
    "closest_preceding": "the routing-step differential reads a node's next-hop choice",
    "connected_ultrapeer_count": "the topology tests check the overlay is one component",
    "estimated_false_positive_rate": "the Bloom tests bound a filter's fill-implied FP rate",
    "final_ttl": "the dynamic-querying tests read the deepest TTL a query reached",
    "first_successor": "the routing-step differential reads a node's fallback hop",
    "flood_query": "the end-to-end and network tests flood a built network",
    "hybrid_overall_cost": "the paper's Equation (4), held to its closed form by the model tests",
    "matching_replicas": "the matcher tests hold it equal to a substring scan",
    "pf_hybrid": "the paper's Equation (1), held to its closed form by the model tests",
    "sample_many": "the Zipf tests draw in bulk to check the distribution's shape",
    "sweep_by_point": "the join-robustness tests read ext-join's spill rows by (policy, budget)",
    "table_key": "the posting-key formula tests derive keys with, apart from ring_key's memo",
    "total_publishing_cost": "the paper's Equation (5), held to its closed form by the model tests",
    "traced_vs_untraced": "the observability benchmark's live gate prices tracing on the scale scenario",
    "tree": "the span-tree golden pins a traced query's span forest as nested dicts",
}
#: options no caller passes, kept configurable; ``owner.name``: one reason
#: each, and only two kinds of reason: a deployment setting (an output
#: path, argv) or a registry entry point
OPTION_EXCEPTIONS = {
    "main.argv": "deployment setting: the runner's command line, sys.argv when None",
}


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


def _imports_shard_kernel(node: ast.AST, package: str = "") -> bool:
    """Whether ``node`` imports :mod:`repro.sim.shard`; a relative import
    is resolved against ``package``, the importing module's package."""
    if isinstance(node, ast.Import):
        return any(alias.name == "repro.sim.shard" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = node.module or ""
    if node.level:
        base = package.rsplit(".", node.level - 1)[0] if package else ""
        module = f"{base}.{module}" if module else base
    if module == "repro.sim.shard":
        return True
    return module == "repro.sim" and any(alias.name == "shard" for alias in node.names)


def _package_of(path: Path) -> str:
    return ".".join(path.relative_to(SRC.parent).parts[:-1])


def _violations_in(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out: list[str] = []
    check_internals = not _exempt(path, DHT_INTERNAL)
    check_meter = not _exempt(path, METER_CHARGERS)
    check_world = not _exempt(path, WORLD_BUILDER)
    check_shard = not _exempt(path, SHARD_KERNEL)
    package = _package_of(path)
    for node in ast.walk(tree):
        if check_shard and _imports_shard_kernel(node, package):
            out.append(
                f"{_relative(path)}:{node.lineno}: imports repro.sim.shard — "
                "the sharded kernel takes no consumer outside repro.sim"
            )
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
        "shard_from": "from repro.sim.shard import run_sharded\n",
        "shard_import": "import repro.sim.shard as kernel\n",
        "shard_module": "from repro.sim import engine, shard\n",
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
            if _constructs_world_class(node) or _imports_shard_kernel(node):
                hits.append(node)
        assert hits, f"lint failed to flag the {name!r} pattern"
    sim_imports = "import repro.sim\nfrom repro.sim import engine\n"
    assert not any(map(_imports_shard_kernel, ast.walk(ast.parse(sim_imports))))
    assert not _exempt(probe, DHT_INTERNAL)
    assert _exempt(SRC / "dht" / "network.py", DHT_INTERNAL)
    assert _exempt(SRC / "net" / "transport.py", METER_CHARGERS)
    assert _exempt(SRC / "hybrid" / "world.py", WORLD_BUILDER)
    assert not _exempt(SRC / "hybrid" / "deployment.py", WORLD_BUILDER)
    assert _exempt(SRC / "sim" / "__init__.py", SHARD_KERNEL)
    assert not _exempt(SRC / "scenario" / "engine.py", SHARD_KERNEL)


@pytest.mark.parametrize(
    "code, module, flagged",
    [
        ("from ..sim import shard\n", "scenario/engine.py", True),
        ("from ..sim.shard import run_sharded\n", "scenario/engine.py", True),
        ("from ...sim import shard\n", "pier/ops/probe.py", True),
        ("from .shard import run_sharded\n", "sim/__init__.py", True),
        ("from ..sim import engine\n", "scenario/engine.py", False),
        ("from .shard import run_sharded\n", "scenario/__init__.py", False),
        ("from .. import sim\n", "scenario/engine.py", False),
    ],
)
def test_shard_rule_resolves_relative_imports(code, module, flagged):
    """A relative import names the kernel through its importer's package:
    ``from ..sim import shard`` in ``repro/scenario`` is the kernel, while
    ``from .shard import ...`` there is a sibling module."""
    package = _package_of(SRC / module)
    hits = [node for node in ast.walk(ast.parse(code)) if _imports_shard_kernel(node, package)]
    assert bool(hits) is flagged


def test_deleted_path_selectors_stay_deleted():
    """One path per job: no constructor or config field selects a twin,
    the kernel cancels by group only (no per-event handle), and where
    wall time goes is cProfile's job, not a hook in the event loop. The
    result cache is LRU only, with no TTL or admission gate, and nothing
    estimates query popularity or shrinks a flood's TTL. A re-query
    drains its whole join (no early termination), batch pacing and the
    spill fan-out are constants, and a scenario races with the engine's
    own knobs. Each query-path setting has one owner: the plan sizes its
    batches, the transport times a hop, the executor takes its memory
    budget and nothing else, and a plan's scan table comes from its step
    list. The cost optimizer has no configuration and prices wire bytes
    alone: no spill term, and the Bloom FP rate has one owner. QRP leaf
    filters, trace files and the recall/CDF package are gone."""
    import dataclasses
    import importlib
    import inspect

    from repro.dht.network import DhtNetwork
    from repro.hybrid.engine import RaceConfig
    from repro.hybrid.ultrapeer import HybridUltrapeer
    from repro.net import FaultInjectingTransport, Transport
    import repro.pier
    from repro.pier import dataflow, optimizer
    from repro.pier.dataflow import DataflowExecutor
    from repro.pier.operators import StoredHashJoin, StoredList
    from repro.pier.planner import KeywordPlanner
    from repro.pier.query import PipelineStats
    from repro.scenario.spec import ScenarioSpec
    from repro.sim import engine

    for name in ("Event", "install_profiler", "Process", "run_callbacks"):
        assert not hasattr(engine, name), name
    with pytest.raises(ImportError):
        importlib.import_module("repro.obs.profile")
    assert engine.Simulator().schedule(0, lambda: None) is None

    exposed = (
        set(inspect.signature(DhtNetwork.__init__).parameters)
        | set(inspect.signature(StoredHashJoin.__init__).parameters)
        | set(inspect.signature(StoredList.join).parameters)
        | set(inspect.signature(DataflowExecutor.__init__).parameters)
        | set(inspect.signature(DataflowExecutor.execute).parameters)
        | set(inspect.signature(DataflowExecutor.submit).parameters)
        | set(inspect.signature(HybridUltrapeer.__init__).parameters)
        | set(inspect.signature(KeywordPlanner.__init__).parameters)
        | set(inspect.signature(Transport.hop_delays).parameters)
        | {field.name for field in dataclasses.fields(RaceConfig)}
        | {field.name for field in dataclasses.fields(PipelineStats)}
    )
    gone = {
        "spill_policy",
        "lazy_routing",
        "route_cache",
        "left",
        "right",
        "spill_sink",
        "temp_namespace",
        "stop_after",
        "early_terminated",
        "batches_cancelled",
        "send_interval",
        "spill_partitions",
        "num_partitions",
        "dht_hop_latency",
        "hop_jitter",
        "max_requery_attempts",
        "cache_latency",
        "posting_table",
        "mean",
        "jitter",
    }
    assert not exposed & gone
    assert list(inspect.signature(DataflowExecutor.__init__).parameters) == [
        "self", "network", "catalog", "sim", "memory_budget", "rng", "tracer", "metrics",
    ]
    for name in ("DataflowConfig", "DEFAULT_BATCH_SIZE"):
        assert not hasattr(dataflow, name), name
    assert list(inspect.signature(optimizer.CostBasedOptimizer.__init__).parameters) == [
        "self", "catalog", "metrics",
    ]
    assert [field.name for field in dataclasses.fields(optimizer.CostEstimate)] == [
        "strategy", "bytes",
    ]
    for name in ("OptimizerConfig", "LOCAL_BYTE_WEIGHT"):
        assert not hasattr(optimizer, name), name
        assert not hasattr(repro.pier, name), name
    for owner, name in (
        (optimizer.CostBasedOptimizer, "_spill_bytes"),
        (KeywordPlanner, "choose_batch_size"),
    ):
        assert not hasattr(owner, name), name
    assert "predicted_spill_bytes" not in inspect.getsource(optimizer)
    for transport in (Transport, FaultInjectingTransport):
        assert not hasattr(transport, "min_hop_delay"), transport
    # The race's timing knobs live on RaceConfig alone.
    assert not {field.name for field in dataclasses.fields(ScenarioSpec)} & {
        "dht_hop_latency",
        "hop_jitter",
        "max_requery_attempts",
        "retry_backoff",
        "requery_deadline",
    }

    import repro.gnutella.flooding as flooding
    from repro.cache.results import QueryResultCache

    cache_options = set(inspect.signature(QueryResultCache.__init__).parameters)
    assert not cache_options & {"policy", "ttl", "admission"}
    with pytest.raises(ImportError):
        importlib.import_module("repro.cache.popularity")
    for name in ("adaptive_flood", "popularity_stop_ttl"):
        assert not hasattr(flooding, name), name
    for module in ("repro.metrics", "repro.gnutella.qrp", "repro.workload.trace"):
        with pytest.raises(ImportError):
            importlib.import_module(module)


def _referenced_names(trees: Iterable[ast.AST]) -> set[str]:
    """Every identifier the code names: ``Name`` ids, ``Attribute``
    attrs and imported names (last dotted part, and any ``as`` alias).
    Comments and strings are not identifiers, so they call nothing, and a
    name used only inside a definition of the same name (a delegate
    calling its namesake, a recursive call) calls nothing either."""
    names: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            found = [node.id]
        elif isinstance(node, ast.Attribute):
            found = [node.attr]
        elif isinstance(node, ast.alias):
            found = [node.name.rpartition(".")[2], node.asname]
        else:
            found = []
        names.update(name for name in found if name and name not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in trees:
        visit(tree, frozenset())
    return names


def _definitions(tree: ast.AST) -> Iterator[tuple[str, int]]:
    """``(name, line)`` of every function, method and class in ``tree``;
    dunders are called by the language, not by name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def _caller_tree(source: str, filename: str) -> ast.AST:
    """The AST of one caller module. A package ``__init__.py``'s
    top-level imports are dropped: a re-export (``from .mod import
    helper``, with ``helper`` in ``__all__``) names a definition without
    using it, so it calls nothing."""
    tree = ast.parse(source, filename=filename)
    if Path(filename).name == "__init__.py":
        tree.body = [
            node for node in tree.body if not isinstance(node, (ast.Import, ast.ImportFrom))
        ]
    return tree


def _caller_trees() -> list[ast.AST]:
    paths = [
        path
        for root in CALLER_ROOTS
        for path in sorted((REPO / root).rglob("*.py"))
        if "tests" not in path.relative_to(REPO).parts
    ]
    assert paths, f"no callers under {REPO}"
    return [_caller_tree(path.read_text(), str(path)) for path in paths]


def _uncalled(referenced: set[str]) -> list[str]:
    out = []
    for path in _module_files():
        for name, line in _definitions(ast.parse(path.read_text(), filename=str(path))):
            if name not in referenced:
                out.append(f"{_relative(path)}:{line}: {name}")
    return out


def test_every_src_definition_has_a_caller():
    """Nothing under ``src/repro`` is defined for tests alone, beyond the
    instruments in :data:`TEST_INSTRUMENTS`.

    The rule matches names, not bindings, so it cannot see a collision:
    a dead ``QueryResultCache.clear`` would pass because ``dict.clear``
    is called elsewhere. A package ``__init__`` re-export is not a
    caller: a name only re-exported is reported.
    """
    referenced = _referenced_names(_caller_trees()) | set(TEST_INSTRUMENTS)
    dead = _uncalled(referenced)
    assert not dead, (
        "defined but named by nothing under src/, bench/ or examples/ — "
        "delete it, or list it in TEST_INSTRUMENTS with a reason:\n" + "\n".join(dead)
    )


def test_every_test_instrument_is_defined_and_uncalled():
    """An allowlist entry whose definition is gone, or that some caller
    now names, is stale and must go."""
    defined = {
        name
        for path in _module_files()
        for name, _ in _definitions(ast.parse(path.read_text()))
    }
    assert set(TEST_INSTRUMENTS) <= defined, sorted(set(TEST_INSTRUMENTS) - defined)
    called = _referenced_names(_caller_trees()) & set(TEST_INSTRUMENTS)
    assert not called, sorted(called)
    assert all(reason.strip() for reason in TEST_INSTRUMENTS.values())


@pytest.mark.parametrize(
    "caller, dead",
    [
        ("helper()\n", set()),
        ("obj.helper\n", set()),
        ("from lib import helper\n", set()),
        ("from lib import helper as h\n", set()),
        ("import lib.helper\n", set()),
        ("# helper() is called elsewhere\n", {"helper"}),
        ("print('helper')\n", {"helper"}),
        ("def helper():\n    pass\n", {"helper"}),
        ("def helper():\n    return helper()\n", {"helper"}),
        ("class Box:\n    def helper(self):\n        return self.inner.helper()\n", {"helper"}),
        ("def helper():\n    pass\n\n\ndef other():\n    return helper()\n", set()),
        ("", {"helper"}),
    ],
    ids=[
        "call", "attribute", "import-from", "import-as", "dotted-import",
        "comment", "string", "redefinition", "self-reference", "delegate",
        "another-definition-calls", "uncalled",
    ],
)
def test_dead_code_rule_reads_identifiers_not_text(caller, dead):
    """A name called, read as an attribute or imported counts; a name
    that appears only in a comment, a string, another definition's name
    or inside a definition of the same name does not; a dunder is never
    reported."""
    module = ast.parse("def helper():\n    pass\n\n\ndef __getattr__(name):\n    return name\n")
    referenced = _referenced_names([ast.parse(caller)])
    assert {name for name, _ in _definitions(module)} - referenced == dead


@pytest.mark.parametrize(
    "caller, filename, dead",
    [
        ("from .mod import helper\n", "pkg/__init__.py", {"helper"}),
        ("from pkg.mod import helper as h\n", "pkg/__init__.py", {"helper"}),
        ("import pkg.helper\n", "pkg/__init__.py", {"helper"}),
        ('__all__ = ["helper"]\n', "pkg/__init__.py", {"helper"}),
        ('from .mod import helper\n\n__all__ = ["helper"]\n', "pkg/__init__.py", {"helper"}),
        ("from .mod import helper\n\nhelper()\n", "pkg/__init__.py", set()),
        ("def setup():\n    from .mod import helper\n", "pkg/__init__.py", set()),
        ("from .mod import helper\n", "pkg/user.py", set()),
    ],
    ids=[
        "init-reexport", "init-reexport-as", "init-dotted-import", "init-all-string",
        "init-reexport-and-all", "init-call", "init-function-import", "module-import",
    ],
)
def test_a_package_reexport_is_not_a_caller(caller, filename, dead):
    """A package ``__init__`` that imports a name to re-export it, or
    lists it in ``__all__``, uses nothing; a call there, an import inside
    a function there, or an import in any other module still counts."""
    module = ast.parse("def helper():\n    pass\n")
    referenced = _referenced_names([_caller_tree(caller, filename)])
    assert {name for name, _ in _definitions(module)} - referenced == dead


@dataclasses.dataclass(frozen=True)
class _Option:
    """One defaulted parameter or dataclass field: ``owner`` is the name a
    call uses (the function, or the class for ``__init__`` and fields) and
    ``position`` its index among a call's positional arguments (``None``
    when it is keyword-only)."""

    where: str
    owner: str
    name: str
    position: int | None
    is_field: bool = False


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _field_call(value: ast.expr | None) -> ast.Call | None:
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return value
    return None


def _dataclass_options(node: ast.ClassDef, where: str) -> Iterator[_Option]:
    """The defaulted ``__init__`` fields of a dataclass; a
    ``default_factory`` field is state the instance grows, not an option."""
    position = 0
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        call = _field_call(stmt.value)
        keywords = {k.arg: k.value for k in call.keywords} if call else {}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            continue
        defaulted = "default" in keywords if call else stmt.value is not None
        if defaulted:
            yield _Option(f"{where}:{stmt.lineno}", node.name, stmt.target.id, position, True)
        position += 1


def _function_options(
    node: ast.FunctionDef | ast.AsyncFunctionDef, where: str, cls: str | None
) -> Iterator[_Option]:
    if node.name.startswith("__") and node.name != "__init__":
        return  # the language calls it, not a caller by name
    owner = cls if node.name == "__init__" else node.name
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    bound = 1 if cls is not None and not static else 0
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first_default:], start=first_default):
        yield _Option(f"{where}:{arg.lineno}", owner, arg.arg, index - bound)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield _Option(f"{where}:{arg.lineno}", owner, arg.arg, None)


def _options(tree: ast.AST, where: str) -> Iterator[_Option]:
    """Every defaulted parameter and dataclass field in ``tree``."""

    def visit(node: ast.AST, cls: str | None) -> Iterator[_Option]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _function_options(node, where, cls)
            cls = None
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                yield from _dataclass_options(node, where)
            cls = node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, cls)

    yield from visit(tree, None)


@dataclasses.dataclass
class _Calls:
    """What the callers pass, by the name they call."""

    #: owner name -> (positional count before any ``*``, ``*`` used,
    #: keywords, ``**`` used), one entry per call
    calls: dict[str, list[tuple[int, bool, set[str], bool]]]
    #: field names set through ``dataclasses.replace``
    replaced: set[str]
    #: attribute names assigned after construction
    assigned: set[str]
    #: names given as a dict literal's values: a registry's entries, which
    #: are called through the registry, not by name
    registered: set[str]


def _callee(func: ast.expr, cls: str | None) -> str | None:
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return cls if name == "cls" else name


def _collect_calls(trees: Iterable[ast.AST]) -> _Calls:
    """Every call under the caller roots, matched by name as the dead-code
    rule matches: a method call ``x.f(...)`` counts for every ``f``, and
    ``partial(f, ...)`` is a call to ``f``."""
    out = _Calls({}, set(), set(), set())

    def record(name: str | None, args: list[ast.expr], keywords: list[ast.keyword]) -> None:
        if name is None:
            return
        star = next((i for i, a in enumerate(args) if isinstance(a, ast.Starred)), None)
        passed = {k.arg for k in keywords if k.arg is not None}
        out.calls.setdefault(name, []).append((
            len(args) if star is None else star,
            star is not None,
            passed,
            any(k.arg is None for k in keywords),
        ))
        if name == "replace":
            out.replaced.update(passed)

    def visit(node: ast.AST, cls: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Call):
            name = _callee(node.func, cls)
            if name == "partial" and node.args:
                record(_callee(node.args[0], cls), node.args[1:], node.keywords)
            else:
                record(name, node.args, node.keywords)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.assigned.add(node.attr)
        elif isinstance(node, ast.Dict):
            for value in node.values:
                if isinstance(value, (ast.Name, ast.Attribute)):
                    out.registered.add(_callee(value, None))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for tree in trees:
        visit(tree, None)
    return out


def _passes(call: tuple[int, bool, set[str], bool], option: _Option) -> bool:
    """Whether one call sets ``option``: by keyword, by position, through
    ``*`` from its slot on, or through ``**``."""
    positional, star, keywords, double_star = call
    if option.name in keywords or double_star:
        return True
    return option.position is not None and (
        option.position < positional or (star and option.position >= positional)
    )


def _unpassed(options: Iterable[_Option], calls: _Calls) -> list[_Option]:
    """The options no call sets. An option of a function reached only as
    a value (a callback, a registry entry) is out of the rule's sight and
    skipped, and so is a field the code assigns after construction: that
    is state, not an option."""
    out = []
    for option in options:
        if option.owner in calls.registered:
            continue
        if option.is_field and (option.name in calls.assigned or option.name in calls.replaced):
            continue
        if not any(_passes(call, option) for call in calls.calls.get(option.owner, [])):
            out.append(option)
    return out


def src_options() -> list[_Option]:
    """Every defaulted parameter and dataclass field under ``src/repro``."""
    return [
        option
        for path in _module_files()
        for option in _options(ast.parse(path.read_text()), _relative(path))
    ]


def unpassed_options() -> list[_Option]:
    """What the option rule reports before its allowlist."""
    return _unpassed(src_options(), _collect_calls(_caller_trees()))


def test_every_option_is_passed_by_a_caller():
    """A defaulted parameter or dataclass field that no caller under
    ``src/``, ``bench/`` or ``examples/`` sets is a constant spelled as an
    option: make it a constant, or list it in :data:`OPTION_EXCEPTIONS`
    with a reason (a deployment setting or a registry entry point)."""
    unpassed = [
        f"{option.where}: {option.owner}({option.name}=)"
        for option in unpassed_options()
        if f"{option.owner}.{option.name}" not in OPTION_EXCEPTIONS
    ]
    assert not unpassed, (
        "an option no caller under src/, bench/ or examples/ sets — make it "
        "a constant, or list it in OPTION_EXCEPTIONS with a reason:\n" + "\n".join(unpassed)
    )


def test_every_option_exception_is_unpassed_with_one_kind_of_reason():
    """An allowlist entry that a caller now passes, or whose option is
    gone, is stale; each reason is a deployment setting or a registry
    entry point, and the list stays short."""
    unpassed = {f"{option.owner}.{option.name}" for option in unpassed_options()}
    assert set(OPTION_EXCEPTIONS) <= unpassed, sorted(set(OPTION_EXCEPTIONS) - unpassed)
    assert len(OPTION_EXCEPTIONS) <= 8
    for reason in OPTION_EXCEPTIONS.values():
        assert reason.startswith(("deployment setting: ", "registry entry point: ")), reason


#: the module the option rule's self-check cases are judged against
OPTION_PROBE = '''
from dataclasses import dataclass, field


def helper(a, b=1, *, c=2):
    pass


class Knob:
    def __init__(self, size=8):
        pass

    def turn(self, angle=0.0):
        pass

    @staticmethod
    def spin(speed=1):
        pass

    @classmethod
    def build(cls):
        return cls(16)


@dataclass
class Box:
    x: int = 0
    y: list = field(default_factory=list)
    hidden: int = field(init=False, default=0)
    z: int = field(default=3)
'''


#: the probe's options no call sets when the caller adds nothing
#: (``Knob.size`` is set by ``build``'s ``cls(16)``)
PROBE_UNPASSED = {"helper.b", "helper.c", "turn.angle", "spin.speed", "Box.x", "Box.z"}


@pytest.mark.parametrize(
    "caller, passed",
    [
        ("", set()),
        ("helper(1)\n", set()),
        ("helper(1, 2)\n", {"helper.b"}),
        ("helper(1, c=3)\n", {"helper.c"}),
        ("helper(*args)\n", {"helper.b"}),
        ("helper(1, **options)\n", {"helper.b", "helper.c"}),
        ("mod.helper(1, 2, c=3)\n", {"helper.b", "helper.c"}),
        ("partial(helper, 1, 2)\n", {"helper.b"}),
        ("# helper(1, 2, c=3)\n", set()),
        ("print('helper(1, 2, c=3)')\n", set()),
        ("REGISTRY = {'h': helper}\n", {"helper.b", "helper.c"}),
        ("knob.turn(90)\n", {"turn.angle"}),
        ("Knob.spin(3)\n", {"spin.speed"}),
        ("Box(1)\n", {"Box.x"}),
        ("Box(1, [], 5)\n", {"Box.x", "Box.z"}),
        ("replace(box, z=4)\n", {"Box.z"}),
        ("box.x = 5\nbox.z += 1\n", {"Box.x", "Box.z"}),
    ],
    ids=[
        "uncalled", "default-left", "by-position", "by-keyword", "star",
        "double-star", "attribute-call", "partial", "comment", "string",
        "registry", "method-skips-self", "staticmethod", "dataclass-position",
        "dataclass-all", "replace", "assigned-is-state",
    ],
)
def test_option_rule_reads_calls_not_text(caller, passed):
    """A value counts as passed by keyword, by position (``self`` skipped
    on a method, a ``cls(...)`` call building the class), through ``*`` or
    ``**``, through ``partial`` or ``dataclasses.replace``; a comment or a
    string passes nothing. A function given as a registry's value is
    exempt, and so is a field the code assigns: that is state. A
    ``default_factory`` or ``init=False`` field is no option at all."""
    defined = list(_options(ast.parse(OPTION_PROBE), "probe.py"))
    calls = _collect_calls([ast.parse(OPTION_PROBE), ast.parse(caller)])
    got = {f"{option.owner}.{option.name}" for option in _unpassed(defined, calls)}
    assert got == PROBE_UNPASSED - passed


def _package_exports() -> dict[str, list[str]]:
    """``__all__`` of every package under ``src/repro``, by package."""
    exports = {}
    for path in sorted(SRC.rglob("__init__.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                exports[_package_of(path)] = ast.literal_eval(node.value)
    return exports


EXPORTS = _package_exports()


@pytest.mark.parametrize("package", sorted(EXPORTS))
def test_every_package_export_is_bound(package):
    """Each name a package lists in ``__all__`` is an attribute of the
    imported package, and listed once, so deleting a definition cannot
    leave its export behind."""
    import importlib

    module, names = importlib.import_module(package), EXPORTS[package]
    assert len(names) == len(set(names)), package
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it does not bind: {missing}"
