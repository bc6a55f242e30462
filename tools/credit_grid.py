"""Loss-free runs inside the fault bound never drain every credit.

    python3 tools/credit_grid.py

For n in 4, 7 and 10 nodes, each fault role is put on the first ids
(where build_faults puts it), once and f = floor((n-1)/3) times.  Each
group runs 1000 rounds without message loss, at the default credit
steps, on seeds 1 to 40: 800 runs.  Every run in which some round ends
with the whole credit table at 0 is printed, with that round.

Exits 1 when a run drains, 0 otherwise.  Standard library only; it runs
the package from this checkout's src/.
"""

from __future__ import annotations

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from destrade import Behavior, FaultProfile, make_nodes, run_rounds  # noqa: E402
from destrade.consensus import max_faulty  # noqa: E402

GROUPS = (4, 7, 10)
SEEDS = range(1, 41)
ROUNDS = 1000


def main() -> int:
    drained = runs = 0
    for n in GROUPS:
        ids = [f"n{c:02d}" for c in range(n)]
        for role in Behavior:
            if role is Behavior.HONEST:
                continue
            for count in sorted({1, max_faulty(n)}):
                profile = FaultProfile(behaviors=dict.fromkeys(ids[:count], role))
                for seed in SEEDS:
                    runs += 1
                    rows = run_rounds(ROUNDS, make_nodes(ids), profile, seed).rows
                    zero = next((r.round_no for r in rows
                                 if r.credit_honest + r.credit_byz == 0), None)
                    if zero is not None:
                        drained += 1
                        print(f"n={n} {role.value} x{count} seed={seed}: "
                              f"every credit is 0 after round {zero}", flush=True)
    print(f"{drained} of {runs} runs drained every credit")
    return 1 if drained else 0


if __name__ == "__main__":
    sys.exit(main())
