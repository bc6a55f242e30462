"""The runtime package imports nothing beyond the standard library."""

from __future__ import annotations

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "destrade")


def test_runtime_imports_only_the_standard_library():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "follower.py" in modules
    foreign = []
    for name in modules:
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.partition(".")[0]]
            else:  # relative imports stay inside the package
                continue
            foreign += [f"{name}: {top}" for top in tops
                        if top != "destrade" and top not in sys.stdlib_module_names]
    assert foreign == []
