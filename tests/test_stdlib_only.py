"""The runtime package imports nothing beyond the standard library, and
nothing that makes every process start slower."""

from __future__ import annotations

import ast
import hashlib
import os
import subprocess
import sys

import pytest

from test_golden import GOLDEN

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "destrade")

# Modules that generate code at import: dataclasses pulls in the other
# three, and with its decorators cost a fifth of each CLI start.
CODEGEN_MODULES = ("dataclasses", "inspect", "ast", "dis")
# Modules only the ledger's hashing and JSON need, bound on first use:
# hashlib loads OpenSSL's libcrypto through _hashlib.
FIRST_USE_MODULES = ("hashlib", "_hashlib", "json")


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


def _fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(PACKAGE), env.get("PYTHONPATH")) if p)
    return env


def test_importing_the_cli_loads_no_code_generating_module():
    # pytest has loaded these modules already, so a fresh interpreter checks.
    # A site hook may load a first-use module before any code runs, so
    # those count only when the import itself adds them.
    code = (f"import sys; bare = set(sys.modules); import destrade.cli; "
            f"print(destrade.cli.__file__); "
            f"print(*[m for m in {CODEGEN_MODULES!r} if m in sys.modules]); "
            f"print(*[m for m in {FIRST_USE_MODULES!r} if m in set(sys.modules) - bare])")
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    path, loaded, first_use = proc.stdout.split("\n")[:3]
    assert path.startswith(PACKAGE + os.sep)
    assert loaded == ""
    assert first_use == ""


@pytest.mark.parametrize("command,scenario", [("consensus", "consensus20"),
                                              ("full", "full_2city")])
def test_fresh_processes_keep_the_golden_outputs(tmp_path, command, scenario):
    # In process, test_golden.py has imported hashlib before the ledger
    # first hashes; only a fresh interpreter binds sha256 and json on
    # the ledger's own first use.
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "destrade.cli", command, "--scenario",
            os.path.join(REPO, "scenarios", scenario + ".scn"), "--out", str(out)]
    proc = subprocess.run(argv, env=_fresh_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in sorted(os.listdir(out))}
    assert got == GOLDEN[command, scenario]
