"""``src/mpcgraph`` holds only what runs: every top-level function and
class is referenced by name somewhere in the package besides its own
definition.  Test-only helpers and sequential references live under
``tests/``."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mpcgraph"


def _references(node: ast.AST) -> Counter:
    """Names read in ``node``: identifiers, attribute names, and string
    constants equal to a name (``cli.ALGORITHMS`` names its entry points
    as strings).  Imports alone do not count."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            found[sub.value] += 1
    return found


def unreferenced_names() -> list[str]:
    defs = []
    total: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += _references(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{node.name}", node.name, _references(node)[node.name]))
    return [qualified for qualified, name, own in defs if total[name] == own]


def test_every_top_level_definition_is_referenced():
    dead = unreferenced_names()
    assert not dead, f"defined in src/mpcgraph but used nowhere there: {dead}"
