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

 Group 3 — no single-value parameters
   no parameter of a package function receives the same literal from
   every package call that names the function (a call that leaves a
   defaulted parameter out passes its default).  Such a parameter is a
   constant in the function's signature.  ``cli.main(argv)`` is exempt,
   as in Group 2.
"""

from __future__ import annotations

import ast
import math
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zsrpsim"


def _package_trees() -> dict[str, ast.Module]:
    """The parsed source of each package module, by module name."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


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
    trees = _package_trees()
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


def _splatted(call: ast.Call) -> bool:
    """Whether ``call`` passes ``*args`` or ``**kwargs``."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords))


def unpassed_defaults() -> list[str]:
    """``module.function(param)`` of each defaulted parameter no package call sets.

    Calls are matched to definitions by name.  A call with ``*args`` or
    ``**kwargs`` counts as passing every parameter.
    """
    trees = _package_trees()
    positions: Counter[str] = Counter()   # most positional arguments passed
    keywords: dict[str, set[str]] = {}
    splatted: set[str] = set()
    for tree in trees.values():
        for call in ast.walk(tree):
            name = _callee(call) if isinstance(call, ast.Call) else None
            if name is None:
                continue
            if _splatted(call):
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


# --- Group 3: no single-value parameters ---


def _literal(node: ast.expr | None):
    """(type name, repr) of a literal argument, else None."""
    if node is None:
        return None
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return type(value).__name__, repr(value)


def single_literal_parameters() -> list[str]:
    """``module.function(param)`` of each parameter that every call of the
    function in the package sets to one and the same literal.

    Calls are matched to definitions by name, as in Group 2.  A function
    that no package call names, or that some call reaches with ``*args``
    or ``**kwargs``, is skipped.
    """
    trees = _package_trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for call in ast.walk(tree):
            name = _callee(call) if isinstance(call, ast.Call) else None
            if name is not None:
                calls.setdefault(name, []).append(call)
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            sites = calls.get(node.name, [])
            if not sites or any(_splatted(call) for call in sites):
                continue
            args = node.args
            params = args.posonlyargs + args.args
            bound = 1 if params and params[0].arg in ("self", "cls") else 0
            positional = [p.arg for p in params[bound:]]
            defaults = dict(zip([p.arg for p in params[len(params)
                                                       - len(args.defaults):]],
                                args.defaults))
            defaults.update((p.arg, d) for p, d in
                            zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            for arg in positional + [p.arg for p in args.kwonlyargs]:
                received = set()
                for call in sites:
                    passed = dict(zip(positional, call.args))
                    passed.update((k.arg, k.value) for k in call.keywords)
                    received.add(_literal(passed.get(arg, defaults.get(arg))))
                if len(received) == 1 and None not in received:
                    found.append(f"{module}.{node.name}({arg})")
    return found


def test_no_parameter_takes_one_literal_from_every_call():
    found = [p for p in single_literal_parameters() if p != "cli.main(argv)"]
    assert found == [], f"parameters that every call sets to one literal: {found}"
