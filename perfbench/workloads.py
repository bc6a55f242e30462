"""Seeded scenario generators, one function per benchmark workload.

Each generator takes a random.Random seeded from the workload seed and a
directory, writes scenario files there and returns the operations to run.
An operation is the argv of one `destrade` CLI call plus the data its
output audit needs.  The program sees only the generated files.

The generated files use only the scenario keys a run needs, so that a
key the program later retires (such as the message delay bounds) does
not break the benchmark.
"""

from __future__ import annotations

import math
import os
import random
from typing import Dict, List

# Market shared by every generated city; it matches the shipped scenarios.
MARKET = {"q": 3.6e7, "eta_g": 0.5, "eta_r": 0.8, "f_m": 200.0, "c_f": 1.08,
          "r_e": 5.5e-8, "r_h": 6.25e-8}

_X = MARKET["eta_g"] * MARKET["q"] * MARKET["f_m"]
_Y = (1.0 - MARKET["eta_g"]) * MARKET["eta_r"] * MARKET["q"] * MARKET["f_m"]
# Open intervals the satisfaction coefficients must lie in (market.valid_k_intervals).
_K_E = (MARKET["r_e"] * _X / (math.e - 1.0),
        MARKET["c_f"] / MARKET["q"] * _X / (1.0 - 1.0 / math.e))
_K_H = (MARKET["r_h"] * _Y / (math.e - 1.0),
        MARKET["c_f"] / (MARKET["q"] * MARKET["eta_r"]) * _Y / (1.0 - 1.0 / math.e))
# Admissible price box (cost floor, retail ceiling) per stream.
PRICE_BOX = {"p_e": (MARKET["c_f"] / MARKET["q"], MARKET["r_e"]),
             "p_h": (MARKET["c_f"] / (MARKET["q"] * MARKET["eta_r"]), MARKET["r_h"])}

MAX_ITERS = 50000


def _inner(rng: random.Random, bounds, margin: float = 0.05) -> float:
    lo, hi = bounds
    return rng.uniform(lo + margin * (hi - lo), hi - margin * (hi - lo))


def _community(rng: random.Random, floored: bool) -> Dict[str, float]:
    """One community; a floor lies in the lowest 30% of (max(X, Y), X + Y).

    Higher floors let the walk wander along a ridge for thousands of
    iterations in some cities (record.json, findings); they are kept out
    so that a city's cost depends on its size, not on its seed.
    """
    m_min = 0.0
    if floored:
        m_min = max(_X, _Y) + rng.uniform(0.05, 0.3) * (_X + _Y - max(_X, _Y))
    return {"k_e": _inner(rng, _K_E), "k_h": _inner(rng, _K_H), "m_min": m_min}


def _write(path: str, sections: List) -> str:
    """Write (name, {key: value}) sections as a scenario file."""
    lines = []
    for name, entries in sections:
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                     for k, v in entries.items())
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    return path


def _op(command: str, scenario: str, out: str, audit: Dict, trace: bool = False) -> Dict:
    argv = [command, "--scenario", scenario, "--out", out]
    if trace:
        argv.append("--trace")
    return {"argv": argv, "out": out, "audit": audit}


# ============================================================
# workloads
# ============================================================

# Community counts of the price_search cities; the walk starts from the
# corner beside each size.
PRICE_SEARCH_CITIES = ((20, "high"), (40, "low"), (80, "high"), (150, "low"),
                       (300, "low"))


def price_search(rng: random.Random, work: str) -> List[Dict]:
    """Distinct communities, half of them floored, cities of 20 to 300."""
    ops = []
    for i, (n, init) in enumerate(PRICE_SEARCH_CITIES):
        floored = set(rng.sample(range(n), n // 2))
        sections = [("market", MARKET)]
        sections += [("communities", _community(rng, j in floored)) for j in range(n)]
        sections.append(("run", {"seed": rng.randrange(1 << 31), "init": init,
                                 "max_iters": MAX_ITERS}))
        scn = _write(os.path.join(work, f"city{i}.scn"), sections)
        ops.append(_op("equilibrium", scn, os.path.join(work, f"out{i}"),
                       {"kind": "equilibrium"}, trace=True))
    return ops


def _consensus_op(rng: random.Random, work: str, name: str, n_nodes: int,
                  rounds: int, faults: Dict[str, float]) -> Dict:
    scn = _write(os.path.join(work, f"{name}.scn"), [
        ("consensus", {"n_nodes": n_nodes, "rounds": rounds}),
        ("faults", faults),
        ("run", {"seed": rng.randrange(1 << 31)}),
    ])
    return _op("consensus", scn, os.path.join(work, f"out_{name}"),
               {"kind": "consensus", "rounds": rounds})


def consensus_rounds(rng: random.Random, work: str) -> List[Dict]:
    """Groups of n = 20 and n = 100, both loss-free, in runs under 0.4 s.

    Each group is split into several seeded runs: the host this benchmark
    was tuned on slows down for seconds at a time, and a short run is far
    more likely to see one undisturbed stretch (record.json, steadiness).
    """
    # The group of scenarios/consensus20.scn: 1000 rounds in all.
    ops = [_consensus_op(rng, work, f"group20_{i}", 20, 200,
                         {"dissenters": 3, "silent_leaders": 2, "equivocators": 1,
                          "drop_prob": 0.0})
           for i in range(5)]
    # 33 byzantine nodes, every role present.  A round whose leader
    # proposes nothing sends almost no messages; equivocating leaders do
    # propose, so with one node per non-proposing role the round count,
    # not the leader draw, sets the cost (over seeds 1-12, one 40-round run
    # sent messages with a 2.6% spread; 7% with two dissenters and two silent).
    ops += [_consensus_op(rng, work, f"group100_{i}", 100, 10,
                          {"dissenters": 1, "silent_leaders": 1, "invalid_leaders": 1,
                           "equivocators": 30, "drop_prob": 0.0})
            for i in range(4)]
    return ops


# Shape of one settlement run; the workload makes SETTLEMENT_RUNS of them.
SETTLEMENT_RUNS = 4
SETTLEMENT_CITIES = 4
SETTLEMENT_COMMUNITIES = 10
SETTLEMENT_PROFILES = 4
SETTLEMENT_DAYS = 20


def settlement_funding(n_communities: int, days: int) -> float:
    """Aggregator funding that covers every payment the run can make.

    A contract pays at most retail price times the full daily output, so
    this bounds each aggregator's total spend, as full_2city.scn does.
    """
    per_day = max(MARKET["r_e"] * _X, MARKET["r_h"] * _Y)
    return float(math.ceil(per_day * n_communities * days))


def settlement(rng: random.Random, work: str) -> List[Dict]:
    """Cloned cities drawn from a few repeated community profiles.

    Several short runs rather than one long one, for the reason given
    under consensus_rounds; together they make 6400 contracts.
    """
    ops = []
    for i in range(SETTLEMENT_RUNS):
        profiles = [_community(rng, floored=j % 2 == 0)
                    for j in range(SETTLEMENT_PROFILES)]
        sections = [("market", MARKET)]
        sections += [("communities", profiles[j % SETTLEMENT_PROFILES])
                     for j in range(SETTLEMENT_COMMUNITIES)]
        sections.append(("run", {
            "seed": rng.randrange(1 << 31), "init": "low", "max_iters": MAX_ITERS,
            "days": SETTLEMENT_DAYS, "cities": SETTLEMENT_CITIES,
            "funding": settlement_funding(SETTLEMENT_COMMUNITIES, SETTLEMENT_DAYS)}))
        scn = _write(os.path.join(work, f"settlement{i}.scn"), sections)
        ops.append(_op("full", scn, os.path.join(work, f"out_full{i}"),
                       {"kind": "full", "days": SETTLEMENT_DAYS}))
    return ops


LOSSY_RUNS = 100


def consensus_lossy(rng: random.Random, work: str) -> List[Dict]:
    """Short 10-node runs that drop 5% of messages."""
    return [_consensus_op(rng, work, f"lossy{i:03d}", 10, 50,
                          {"dissenters": 1, "silent_leaders": 1, "equivocators": 1,
                           "drop_prob": 0.05})
            for i in range(LOSSY_RUNS)]


GENERATORS = {
    "price_search": price_search,
    "consensus_rounds": consensus_rounds,
    "settlement": settlement,
    "consensus_lossy": consensus_lossy,
}


def generate(workload: str, seed: int, work: str) -> List[Dict]:
    """Write the workload's scenario files under work and return its ops."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), work)
