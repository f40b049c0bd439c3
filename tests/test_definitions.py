"""Every top-level function and class of the package is referenced in it.

A definition counts as referenced when its name appears anywhere in
``src/rtbm`` as a name, an attribute or a ``from ... import`` name, so the
package exports of ``__init__`` count; tests and the benchmark do not.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rtbm"


def test_no_unreferenced_top_level_definitions():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, defs) and node.name not in used
    ]
    assert dead == []
