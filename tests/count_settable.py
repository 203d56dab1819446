"""Count the independently settable values under ``src/repro``.

Usage::

    python3 tests/count_settable.py

A settable value is a function parameter other than ``self``/``cls``
(``*args`` and ``**kwargs`` included), a module-level ALL_CAPS constant,
or a dataclass field. The three counts and their sum are printed, then
the number of options the option rule in ``test_boundary_lint.py``
reports (defaulted parameters and dataclass fields that no caller under
``src/``, ``bench/`` or ``examples/`` passes, before its allowlist).
"""

from __future__ import annotations

import ast
import re
import sys

from test_boundary_lint import SRC, _is_dataclass, unpassed_options

CONSTANT = re.compile(r"^_?[A-Z][A-Z0-9_]*$")


def _dataclass_fields(node: ast.ClassDef) -> list[str]:
    return [
        stmt.target.id
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and "ClassVar" not in ast.unparse(stmt.annotation)
    ]


def count(tree: ast.Module) -> tuple[int, int, int]:
    """``(parameters, constants, dataclass fields)`` of one module."""
    parameters = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            parameters += sum(name not in ("self", "cls") for name in names)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += len(_dataclass_fields(node))
    constants = 0
    for stmt in tree.body:
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign)
            else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        )
        constants += sum(
            isinstance(t, ast.Name) and bool(CONSTANT.match(t.id)) for t in targets
        )
    return parameters, constants, fields


def main() -> int:
    totals = [0, 0, 0]
    for path in sorted(SRC.rglob("*.py")):
        for i, n in enumerate(count(ast.parse(path.read_text(), filename=str(path)))):
            totals[i] += n
    parameters, constants, fields = totals
    print(f"parameters {parameters} + constants {constants} + dataclass fields {fields}"
          f" = {sum(totals)} settable values")
    print(f"options no caller sets (the option rule, before its allowlist): "
          f"{len(unpassed_options())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
