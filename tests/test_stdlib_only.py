"""The runtime package imports nothing beyond the standard library, and
nothing that makes every process start slower."""

from __future__ import annotations

import ast
import os
import subprocess
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "destrade")

# Modules that generate code at import: dataclasses pulls in the other
# three, and with its decorators cost a fifth of each CLI start.
CODEGEN_MODULES = ("dataclasses", "inspect", "ast", "dis")


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


def test_importing_the_cli_loads_no_code_generating_module():
    # pytest has loaded these modules already, so a fresh interpreter checks.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(PACKAGE), env.get("PYTHONPATH")) if p)
    code = (f"import destrade.cli, sys; "
            f"print(destrade.cli.__file__); "
            f"print(*[m for m in {CODEGEN_MODULES!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    path, loaded = proc.stdout.split("\n")[:2]
    assert path.startswith(PACKAGE + os.sep)
    assert loaded == ""
