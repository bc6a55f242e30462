"""Paired A/B runs of the benchmark on two source checkouts.

    python3 tools/ab_bench.py --parent DIR --change DIR \
        [--workload price_search] [--seconds S] [--pairs 10] [--seed 1]

Runs each checkout's own perfbench/run.py (untraced, at --seed, default
1) from that checkout's root, one side after the other, for --pairs
pairs of --seconds each; --seconds defaults to the "run_seconds" of the
change's BENCHMARK.json, the benchmark's own run length.  A gain found
at one seed can be checked again at a seed the change was not written
against.  The parent runs first in odd-numbered pairs and the change
first in even ones, so a slow phase of the host falls on both sides
alike.  Every run gets PYTHONDONTWRITEBYTECODE=1: each start compiles
the sources, and neither checkout gains cache files.

For each end-to-end metric it prints the median of each side, the
change's median relative to the parent's, the parent's interquartile
range (IQR), and in how many pairs the change was better, as the
change's BENCHMARK.json orders that metric ("better"); whether the
change's median is worse than the parent's by more than that metric's
relative "bound" there; then the failed
operations of each side.  A gain is claimed when the change wins at
least nine pairs in ten and the medians differ by more than the
parent's IQR, in the better direction.

Exits 0 when every run reports "correct": true, 1 when one does not
(or does not finish), 2 on bad arguments.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

SIDES = ("parent", "change")


def run_once(root: str, workload: str, seed: int,
             seconds: float) -> Tuple[Optional[Dict], str]:
    """One untraced benchmark run in root: (its JSON result or None, a problem)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # the runner points the program at root/src
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    if result.get("correct") is not True:
        wrong = [ln.strip() for ln in lines if ln.startswith("    ")][:3]
        return result, "reported \"correct\": false " + "; ".join(wrong)
    return result, ""


def declared(root: str) -> Tuple[float, Dict[str, Tuple[str, float]]]:
    """root's BENCHMARK.json: its run length in seconds, and for each
    end-to-end metric ("lower" or "higher", its relative bound)."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["run_seconds"], {m["name"]: (m["better"], m["bound"])
                                 for m in spec["end_to_end"]}


def iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--workload", default="price_search")
    ap.add_argument("--seconds", type=float,
                    help="run length (default: the change's BENCHMARK.json run_seconds)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="benchmark seed (default: 1)")
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, root in roots.items():
        for need in (os.path.join("perfbench", "run.py"), "BENCHMARK.json"):
            if not os.path.isfile(os.path.join(root, need)):
                ap.error(f"--{side} {root} holds no {need}")
    run_seconds, spec = declared(roots["change"])
    seconds = run_seconds if args.seconds is None else args.seconds
    if args.pairs < 1 or not seconds > 0:
        ap.error("--pairs must be at least 1 and --seconds positive")

    values: Dict[str, Dict[str, List[float]]] = {side: {} for side in SIDES}
    failed = {side: 0 for side in SIDES}
    problems: List[str] = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 == 1 else SIDES[::-1]
        for side in order:
            result, problem = run_once(roots[side], args.workload, args.seed, seconds)
            if problem:
                problems.append(f"pair {pair} {side}: {problem}")
            if result is None:
                continue
            failed[side] += result.get("failed", 0)
            for name, metric in result.get("metrics", {}).items():
                values[side].setdefault(name, []).append(metric["value"])
            print(f"pair {pair} {side}: " + "  ".join(
                f"{name} {m['value']:.6g}" for name, m in result.get("metrics", {}).items()),
                flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s")
    print(f"{'metric':<14} {'parent':>12} {'change':>12} {'ratio':>7} "
          f"{'parent IQR':>11} {'wins':>6}  {'bound':<5}  claim")
    for name in values["parent"]:
        a, b = values["parent"][name], values["change"].get(name, [])
        if len(a) != len(b):
            print(f"{name:<14} runs missing on one side ({len(a)} parent, {len(b)} change)")
            continue
        better, bound = spec[name]
        sign = -1.0 if better == "lower" else 1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        med_a, med_b, spread = statistics.median(a), statistics.median(b), iqr(a)
        claim = wins * 10 >= 9 * len(a) and sign * (med_b - med_a) > spread
        ratio = med_b / med_a if med_a else float("nan")
        within = "ok" if sign * (med_b - med_a) >= -bound * abs(med_a) else "OVER"
        print(f"{name:<14} {med_a:12.6g} {med_b:12.6g} {ratio:7.3f} {spread:11.4g} "
              f"{wins:>3}/{len(a):<2}  {within:<5}  {'yes' if claim else 'no'}")
    print(f"failed ops: parent {failed['parent']}, change {failed['change']}")
    for line in problems:
        print(f"problem: {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
