"""Hostile scenario values: every key of every shipped scenario, set in
turn to each value of a fixed hostile set, run through the CLI in process.

A run may refuse the value (exit 1), fail at run time (exit 2) or flag a
safety violation (exit 3), but no exception may escape `main`, a run that
succeeds must write only finite numbers, and no case may run long.
"""

import math
import os
import re
import shutil
import signal
import time

import pytest

from destrade.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Each shipped scenario with the subcommand its golden outputs come from.
SCENARIOS = [("equilibrium", "city1_nofloor"), ("equilibrium", "city5_floor"),
             ("equilibrium", "city40_mixed"), ("consensus", "consensus20"),
             ("full", "full_2city")]

HOSTILE = ["0", "-1", "1", "2", "3", "4", "5", "7", "10", "100", "0.5",
           "1e308", "-1e308", "nan", "inf", "-inf", "1e-308", "5e-324",
           "99999999999", "1e12", "1e-12", "abc", ""]

# Seconds any one case may take; the slowest take well under one.
CASE_BUDGET_S = 5.0

_ENTRY = re.compile(r"^(\w+)\s*=.*$", re.MULTILINE)


class _OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise _OverBudget


def _numbers(path):
    """Every field of a csv output that reads as a number."""
    with open(path) as fh:
        for line in fh:
            for field in line.rstrip("\n").split(","):
                try:
                    yield float(field)
                except ValueError:
                    pass


@pytest.mark.parametrize("command,name", SCENARIOS, ids=[n for _, n in SCENARIOS])
def test_hostile_values_never_escape_main(tmp_path, capsys, command, name):
    with open(os.path.join(REPO, "scenarios", name + ".scn")) as fh:
        # short runs: few rounds and days, unless the case sets them
        base = re.sub(r"^rounds = .*$", "rounds = 20",
                      re.sub(r"^days = .*$", "days = 2", fh.read(), flags=re.MULTILINE),
                      flags=re.MULTILINE)
    entries = {}  # the first line of each distinct key
    for m in _ENTRY.finditer(base):
        entries.setdefault(m.group(1), m)
    scfile, out = tmp_path / "hostile.scn", tmp_path / "out"
    previous = signal.signal(signal.SIGALRM, _over_budget)
    try:
        for key, m in entries.items():
            for value in HOSTILE:
                case = f"{name} {key} = {value!r}"
                scfile.write_text(f"{base[:m.start()]}{key} = {value}{base[m.end():]}")
                shutil.rmtree(out, ignore_errors=True)
                start = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, CASE_BUDGET_S)
                try:
                    rc = main([command, "--scenario", str(scfile), "--out", str(out)])
                except _OverBudget:
                    pytest.fail(f"{case}: ran past {CASE_BUDGET_S} s")
                except Exception as exc:
                    pytest.fail(f"{case}: raised {exc!r}")
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                assert time.perf_counter() - start < CASE_BUDGET_S, case
                assert rc in (0, 1, 2, 3), case
                if rc == 0:
                    for fname in os.listdir(out):
                        if fname.endswith(".csv"):
                            assert all(map(math.isfinite, _numbers(out / fname))), (
                                f"{case}: {fname}")
                capsys.readouterr()
    finally:
        signal.signal(signal.SIGALRM, previous)
