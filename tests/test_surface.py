"""Package surface: every def, class and method in ``src/zsrpsim`` is used.

Proves:
 Group 1 — no dead or test-only definitions
   each top-level function and class of every package module, and each
   non-dunder method and property of those classes, is referenced (as a
   name or an attribute) somewhere in the package outside its own body.
   Imports do not count as uses.  A definition that only the tests call
   belongs in ``tests/`` (``oracles.py`` holds such validation code).

 Group 2 — no single-value knobs
   every defaulted parameter of a package function is passed, by keyword
   or by position, by some call in the package.  A parameter that no
   package call sets only ever takes its default, so it is a constant.
   ``cli.main(argv)`` is the one exception: the console script calls it
   without arguments and the tests pass the argument list.
"""

from __future__ import annotations

import ast
import math
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zsrpsim"


def _name_uses(tree: ast.AST) -> Counter[str]:
    """How often each name occurs in ``tree`` as a name or an attribute."""
    uses: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level definition and of each
    non-dunder method or property of a top-level class."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, _DEFS) and not item.name.startswith("__"))


def unused_definitions() -> list[str]:
    """``module.name`` of each definition with no use in the package."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    uses = sum((_name_uses(tree) for tree in trees.values()), Counter())
    return [f"{module}.{name}"
            for module, tree in trees.items() for name, node in _definitions(tree)
            if uses[node.name] == _name_uses(node)[node.name]]


# --- Group 1: no dead or test-only definitions ---


def test_every_top_level_definition_is_used():
    unused = unused_definitions()
    assert unused == [], f"defined in src/ but used only outside it: {unused}"


# --- Group 2: no single-value knobs ---


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def unpassed_defaults() -> list[str]:
    """``module.function(param)`` of each defaulted parameter no package call sets.

    Calls are matched to definitions by name.  A call with ``*args`` or
    ``**kwargs`` counts as passing every parameter.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    positions: Counter[str] = Counter()   # most positional arguments passed
    keywords: dict[str, set[str]] = {}
    splatted: set[str] = set()
    for tree in trees.values():
        for call in ast.walk(tree):
            name = _callee(call) if isinstance(call, ast.Call) else None
            if name is None:
                continue
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords)):
                splatted.add(name)
            positions[name] = max(positions[name], len(call.args))
            keywords.setdefault(name, set()).update(
                k.arg for k in call.keywords if k.arg)
    unpassed = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args
            bound = 1 if params and params[0].arg in ("self", "cls") else 0
            first = len(params) - len(args.defaults)
            defaulted = [(p.arg, i - bound)
                         for i, p in enumerate(params) if i >= first]
            defaulted += [(p.arg, math.inf) for p, d in
                          zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            set_by_name = keywords.get(node.name, set())
            unpassed += [f"{module}.{node.name}({arg})" for arg, index in defaulted
                         if not (node.name in splatted or index < positions[node.name]
                                 or arg in set_by_name)]
    return unpassed


def test_every_defaulted_parameter_is_passed():
    unpassed = [p for p in unpassed_defaults() if p != "cli.main(argv)"]
    assert unpassed == [], f"parameters that only take their default: {unpassed}"
