"""Package surface: every top-level def and class in ``src/zsrpsim`` is used.

Proves:
 Group 1 — no dead or test-only definitions
   each top-level function and class of every package module is referenced
   (as a name or an attribute) somewhere in the package outside its own
   body.  Imports do not count as uses.  A definition that only the tests
   call belongs in ``tests/`` (``oracles.py`` holds such validation code).
"""

from __future__ import annotations

import ast
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


def unused_definitions() -> list[str]:
    """``module.name`` of each top-level def or class with no use in the package."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    uses = sum((_name_uses(tree) for tree in trees.values()), Counter())
    return [f"{module}.{node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and uses[node.name] == _name_uses(node)[node.name]]


# --- Group 1: no dead or test-only definitions ---


def test_every_top_level_definition_is_used():
    unused = unused_definitions()
    assert unused == [], f"defined in src/ but used only outside it: {unused}"
