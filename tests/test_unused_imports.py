"""Every runtime module uses each name it imports."""

from __future__ import annotations

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "destrade")


def _imported(tree: ast.Module):
    """(name bound, line) for each import, except `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree: ast.Module):
    """Names the module reads, including those in string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _used(ast.parse(annotation.value, mode="eval"))
    return used


def unused_imports(source: str, name: str):
    tree = ast.parse(source, name)
    used = _used(tree)
    return [f"{name}:{line}: {bound}" for bound, line in _imported(tree)
            if bound not in used]


def test_runtime_modules_use_every_import():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "ledger.py" in modules
    unused = []
    # __init__ imports only to re-export the public names
    for name in modules:
        if name == "__init__.py":
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            unused += unused_imports(fh.read(), name)
    assert unused == []


def test_the_check_sees_unused_names_and_string_annotations():
    source = ("from __future__ import annotations\n"
              "import os.path, json as js\n"
              "from typing import Dict, Tuple\n"
              "def f(x: 'Dict[str, int]') -> None:\n"
              "    return os.sep\n")
    assert unused_imports(source, "m.py") == ["m.py:2: js", "m.py:3: Tuple"]
