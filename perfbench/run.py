"""destrade benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The runner writes the
workload's seeded scenario files to a scratch directory under
.perfbench_work/, then runs passes over them until --seconds have gone.
Each pass is a fresh interpreter (perfbench/child.py) that calls
destrade.cli.main(argv) once per operation.  Every output file is
checked: against the sha256 digests recorded in digests.json for that
workload and seed, otherwise by audit checks on its contents.

--trace 0 times the program untraced and reports the end-to-end
metrics.  Every time is scaled to a reference host speed by the probe
timed next to it (probe.py).  --trace 1 alternates untraced passes with traced ones
(spans.py) and reports the per-layer metrics; per-layer counts must
repeat exactly between traced passes.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --record-digests <workload> <seed>...

writes the output digests of the given seeds into perfbench/digests.json.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import probe
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_BASE = os.path.join(ROOT, ".perfbench_work")

# No run may take longer than this, whatever --seconds says.
DEADLINE_S = 170.0
MIN_PASSES = 3
# A traced run makes this many traced passes, each after an untraced one.
MIN_TRACED_PASSES = 2
SETUP_SAMPLES_PER_PASS = 2

# Lossy runs crash on a known defect (record.json, findings) and may
# change their RNG stream when it is fixed: audited, never digest-checked.
LOSSY = "consensus_lossy"

SETUP_CODE = ("import time, destrade.cli; "
              "print(time.monotonic(), destrade.cli.__file__)")

KKT_CASES = ("interior", "interior_constrained", "alpha_saturated",
             "alpha_saturated_constrained", "beta_saturated",
             "beta_saturated_constrained")
LAYERS = ("market", "follower", "leader", "equilibrium", "ledger", "consensus",
          "netsim", "scenario", "cli", "gc")

Metric = Tuple[float, str]  # (value, unit)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or a child misbehaved)."""


# ============================================================
# child processes
# ============================================================


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Same dict and set layouts in every pass, so traced counts repeat.
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_sample(env) -> Tuple[float, float]:
    """Seconds from spawning an interpreter until destrade.cli is imported,
    and the mean probe time around it."""
    before = probe.probe()
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"cannot import destrade: {proc.stderr.strip()[-500:]}")
    stamp, path = proc.stdout.split(maxsplit=1)
    if not os.path.abspath(path.strip()).startswith(SRC + os.sep):
        raise BenchError(f"destrade imported from {path.strip()}, not from {SRC}")
    seconds = float(stamp) - t0
    return seconds, (before + probe.probe()) / 2.0


def run_pass(work: str, env, trace: bool, timeout: float) -> Dict:
    result = os.path.join(work, "result.json")
    if os.path.exists(result):
        os.remove(result)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), os.path.join(work, "ops.json"),
         result, "1" if trace else "0"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(f"pass failed (exit {proc.returncode}): {proc.stderr.strip()[-800:]}")
    with open(result) as fh:
        return json.load(fh)


def new_workdir(label: str) -> str:
    os.makedirs(WORK_BASE, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{label}-", dir=WORK_BASE)


def remove_workdir(work: str) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(WORK_BASE)
    except OSError:  # another run still uses it
        pass


def write_ops(workload: str, seed: int, work: str) -> List[Dict]:
    ops = workloads.generate(workload, seed, work)
    with open(os.path.join(work, "ops.json"), "w") as fh:
        json.dump(ops, fh)
    return ops


# ============================================================
# output checks
# ============================================================


def _rows(path: str) -> List[List[str]]:
    """Data rows of a CLI csv: skips the '# seed=' line and the header."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


def audit(op: Dict, res: Dict) -> Optional[str]:
    """Content checks on one operation's outputs; returns the first problem."""
    out, spec = op["out"], op["audit"]
    try:
        if spec["kind"] == "equilibrium":
            (row,) = _rows(os.path.join(out, "equilibrium.csv"))
            p_e, p_h, iters = float(row[0]), float(row[1]), int(row[2])
            for name, price in (("p_e", p_e), ("p_h", p_h)):
                lo, hi = workloads.PRICE_BOX[name]
                if not lo <= price <= hi:
                    return f"{name}={price} outside [{lo}, {hi}]"
            if not 1 <= iters < workloads.MAX_ITERS:
                return f"iterations={iters}"
            trace = _rows(os.path.join(out, "trace.csv"))
            if len(trace) != iters:
                return "trace.csv rows != iterations"
            if trace[-1][1:3] != row[0:2]:
                return "trace.csv does not end at the fixed point"
        elif spec["kind"] == "consensus":
            if len(_rows(os.path.join(out, "rounds.csv"))) != spec["rounds"]:
                return "rounds.csv rows != rounds"
            if " divergent=0 " not in res["stdout"]:
                return "honest chains diverged"
        elif spec["kind"] == "full":
            if "chain_ok=True chains_equal=True" not in res["stdout"]:
                return "chain audit failed"
            states = [r[7] for r in _rows(os.path.join(out, "contracts.csv"))]
            if not states or any(s != "executed" for s in states):
                return "unexecuted contracts"
            with open(os.path.join(out, "chain.txt")) as fh:
                if sum(1 for ln in fh if not ln.startswith("#")) < spec["days"] + 1:
                    return "chain shorter than one block per day"
            if not _rows(os.path.join(out, "balances.csv")):
                return "no balances"
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
    return None


def load_digests() -> Dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)


class Checker:
    """Checks every operation of every pass and counts the failures.

    An operation fails on a nonzero exit or an exception (a crash), or on
    output that fails its check (wrong output).
    """

    def __init__(self, workload: str, seed: int, ops: List[Dict]):
        self.ops = ops
        recorded = load_digests().get(workload, {}).get(str(seed))
        if recorded is not None and len(recorded) != len(ops):
            raise BenchError(f"digests.json holds {len(recorded)} operations for "
                             f"{workload} seed {seed}, the workload has {len(ops)}")
        self.expected = recorded if workload != LOSSY else None
        self.kind = "digest" if self.expected else "audit"
        self.first: Optional[List[Dict]] = None
        self.attempted = 0
        self.failed = 0
        self.crashes: List[str] = []
        self.wrong: List[str] = []

    def check(self, report: Dict) -> List[bool]:
        """Check one pass; returns per-operation success."""
        if self.first is None:
            self.first = [r["digests"] for r in report["ops"]]
        ok = []
        for i, (op, res) in enumerate(zip(self.ops, report["ops"])):
            self.attempted += 1
            label = f"op {i} ({op['argv'][0]})"
            if res["rc"] != 0:
                detail = (res["error"] or res["stderr"]).strip()[-300:]
                self.crashes.append(f"{label}: exit {res['rc']}: {detail}")
                self.failed += 1
                ok.append(False)
                continue
            problem = audit(op, res)
            if problem is None and self.expected is not None \
                    and res["digests"] != self.expected[i]:
                problem = "output digests differ from the recorded ones"
            if problem is None and res["digests"] != self.first[i]:
                problem = "outputs differ between passes"
            if problem is not None:
                self.wrong.append(f"{label}: {problem}")
                self.failed += 1
            ok.append(problem is None)
        return ok


# ============================================================
# metrics
# ============================================================


def percentiles(samples: List[float]) -> Dict[str, float]:
    """p50 and p90, each only when at least ten samples lie beyond it."""
    out = {}
    for name, q in (("p50", 50), ("p90", 90)):
        if len(samples) * (100 - q) / 100 >= 10:
            out[name] = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return out


def op_seconds(res: Dict) -> float:
    """One operation's time at the reference host speed."""
    return probe.scaled(res["seconds"], *res["probe_s"])


def median_ops(passes: List[Dict]) -> float:
    """Sum over operations of each one's median scaled time across passes.

    Other tenants of the host slow this machine by up to 1.8x, in phases
    from under a second to minutes; the probe slows with the program, so
    the scaled times of a slow phase match those of a fast one
    (record.json, steadiness).
    """
    return sum(statistics.median(op_seconds(p["ops"][i]) for p in passes)
               for i in range(len(passes[0]["ops"])))


def wall_pass(report: Dict) -> float:
    return sum(r["seconds"] for r in report["ops"])


def end_to_end(workload: str, run: Dict) -> Dict[str, Tuple[float, str, int]]:
    """name -> (value, unit, sample count)."""
    passes, checker, setup = run["passes"], run["checker"], run["setup"]
    m = {"setup_s": (statistics.median(probe.scaled(t, p, p) for t, p in setup), "s",
                     len(setup)),
         "peak_rss_mb": (statistics.median([p["peak_rss_mb"] for p in passes]), "MB",
                         len(passes))}
    if workload != LOSSY:
        # How much work a lossy pass does depends on how many runs crash.
        m["run_s"] = (median_ops(passes), "s", len(passes))
        m["run_s.wall_median_pass"] = (statistics.median(wall_pass(p) for p in passes),
                                       "s", len(passes))
    samples = [op_seconds(r) for p in passes for r, ok in zip(p["ops"], p["ok"]) if ok]
    for name, value in percentiles(samples).items():
        m[f"op_s.{name}"] = (value, "s", len(samples))
    m["failed_share"] = (checker.failed / checker.attempted, "ratio", checker.attempted)
    return m


PER_LAYER_UNITS = {
    "equilibrium.city_evals_per_iter": "evals/iter",
    "ledger.digests_per_committed_tx": "digests/tx",
    "ledger.txs_per_block": "txs/block",
    "netsim.msgs_per_round": "msgs/round",
    "consensus.commit_share": "ratio",
    "follower.best_response.us_per_call": "us",
}


def unit_of(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(".share"):
        return "ratio"
    if ".round_ms." in name:
        return "ms"
    return "count"


def per_layer(report: Dict) -> Dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    tab, cnt = report["trace"]["table"], report["trace"]["counts"]

    def calls(key):
        return tab.get(key, [0, 0.0, 0.0])[0]

    def self_s(key):
        return tab.get(key, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS}
    for key, (_calls, _total, own) in tab.items():
        layer_self[key.split(".", 1)[0]] += own
    run_s = tab.get("cli.main", [0, 0.0, 0.0])[1]
    rounds = calls("consensus.run_round")
    sends = calls("netsim.PhaseNet.send")
    responses = calls("follower.best_response")
    digests = cnt.get("ledger.body_digest.calls", 0)
    iterations = cnt.get("equilibrium.iterations", 0)
    m = {
        "trace.run_s": run_s,
        "trace.partition_gap_s": run_s - sum(layer_self.values()),
        "follower.best_response.calls": responses,
        "follower.best_response.self_s": self_s("follower.best_response"),
        "follower.best_response.us_per_call":
            ratio(self_s("follower.best_response"), responses) * 1e6,
        "leader.city_responses.calls": calls("leader.city_responses"),
        "leader.profit_evals": calls("leader.profit_e") + calls("leader.profit_h"),
        "equilibrium.find_ne.calls": calls("equilibrium.find_ne"),
        "equilibrium.iterations": iterations,
        "equilibrium.city_evals_per_iter":
            ratio(cnt.get("equilibrium.city_evals", 0), iterations),
        "ledger.create_contract.calls": calls("ledger.Ledger.create_contract"),
        "ledger.create_contract.self_s": self_s("ledger.Ledger.create_contract"),
        "ledger.execute_contract.calls": calls("ledger.Ledger.execute_contract"),
        "ledger.execute_contract.self_s": self_s("ledger.Ledger.execute_contract"),
        "ledger.make_block.self_s": self_s("ledger.make_block"),
        "ledger.validate_block.calls": calls("ledger.validate_block"),
        "ledger.validate_block.self_s": self_s("ledger.validate_block"),
        "ledger.merkle_root.leaves": cnt.get("ledger.merkle_root.leaves", 0),
        "ledger.body_digest.calls": digests,
        "ledger.digests_per_committed_tx":
            ratio(digests, cnt.get("consensus.committed_txs", 0)),
        "ledger.txs_per_block": ratio(cnt.get("ledger.block_txs", 0),
                                      calls("ledger.make_block")),
        "ledger.verify_chain.self_s": self_s("ledger.verify_chain"),
        "consensus.run_round.calls": rounds,
        "consensus.run_round.self_s": self_s("consensus.run_round"),
        "consensus.check_quorum.calls": cnt.get("consensus.check_quorum.calls", 0),
        "consensus.commit_share": ratio(cnt.get("consensus.commits", 0), rounds),
        "consensus.aborts": rounds - cnt.get("consensus.commits", 0),
        "netsim.send.calls": sends,
        "netsim.dropped": sends - cnt.get("netsim.delivered", 0),
        "netsim.msgs_per_round": ratio(sends, rounds),
        "netsim.send.self_s": self_s("netsim.PhaseNet.send"),
        "netsim.deliver_phase.self_s": self_s("netsim.PhaseNet.deliver_phase"),
        "scenario.load_s": layer_self["scenario"],
        "gc.collections": calls("gc.collect"),
        "gc.pause_s": layer_self["gc"],
    }
    for case in KKT_CASES:
        m[f"follower.case.{case}"] = cnt.get(f"follower.case.{case}", 0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.share"] = ratio(layer_self[layer], run_s)
    for name, value in percentiles(report["trace"]["round_ms"]).items():
        m[f"consensus.round_ms.{name}"] = value
    return m


def traced_layers(run: Dict) -> Tuple[Dict[str, float], List[str]]:
    """Median per-layer metrics over the traced passes, and any problems."""
    layers = [per_layer(p) for p in run["traced"]]
    problems = []
    mismatched = [k for k in layers[0] if unit_of(k) == "count"
                  and any(lay.get(k) != layers[0][k] for lay in layers[1:])]
    if mismatched:
        problems.append(f"traced counts differ between passes: {mismatched}")
    if any(abs(lay["trace.partition_gap_s"]) > 1e-6 * max(lay["trace.run_s"], 1.0)
           for lay in layers):
        problems.append("layer self times do not add up to the traced run_s")
    # Counts repeat exactly (checked above); times take the median pass.
    m = {k: v if unit_of(k) == "count" else statistics.median([lay[k] for lay in layers])
         for k, v in layers[0].items()}
    # Traced and untraced passes alternate, so their medians saw the same host.
    m["trace.overhead_s"] = m["trace.run_s"] - statistics.median(
        wall_pass(p) for p in run["passes"])
    return m, problems


# ============================================================
# entry point
# ============================================================


def listed_metrics(workload: str, trace: bool) -> Optional[List[str]]:
    """Metric names BENCHMARK.json fixes for this run, or None if unlisted."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    if workload not in {w["name"] for w in spec["workloads"]}:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    started = time.monotonic()
    work = new_workdir(f"{workload}-{seed}")
    try:
        ops = write_ops(workload, seed, work)
        env = child_env()
        checker = Checker(workload, seed, ops)
        setup, passes, traced = [], [], []
        setup.append(setup_sample(env))  # also proves the program is importable
        t_measure = time.monotonic()
        longest = 0.0
        need = MIN_TRACED_PASSES if trace else MIN_PASSES
        while True:
            elapsed = time.monotonic() - t_measure
            short = len(passes) < need
            if not short and elapsed + longest > seconds:
                break
            left = DEADLINE_S - (time.monotonic() - started)
            if left < 1.5 * longest:
                if short:
                    raise BenchError("too slow to finish the minimum passes in time")
                break
            t0 = time.monotonic()
            report = run_pass(work, env, False, left)
            report["ok"] = checker.check(report)
            passes.append(report)
            if trace:
                report = run_pass(work, env, True, left)
                report["ok"] = checker.check(report)
                traced.append(report)
            else:
                setup.extend(setup_sample(env) for _ in range(SETUP_SAMPLES_PER_PASS))
            longest = max(longest, time.monotonic() - t0)
        return {"ops": ops, "checker": checker, "setup": setup,
                "passes": passes, "traced": traced, "wall_s": time.monotonic() - started}
    finally:
        remove_workdir(work)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="destrade benchmark runner")
    ap.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", nargs="+", metavar="ARG",
                    help="a workload name followed by seeds")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "destrade", "cli.py")):
        print(f"error: no destrade sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            return record_digests(args.record_digests[0],
                                  [int(s) for s in args.record_digests[1:]])
        if args.workload is None:
            ap.error("--workload is required")
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checker = run["checker"]
    problems = list(checker.wrong)
    # Crashes are the finding consensus_lossy exists to count; anywhere
    # else an operation that fails makes the run incorrect.
    if args.workload != LOSSY:
        problems += checker.crashes
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops/pass {len(run['ops'])}  untraced passes {len(run['passes'])}  "
          f"traced passes {len(run['traced'])}  wall {run['wall_s']:.1f} s")
    probes = [t for p in run["passes"] + run["traced"] for r in p["ops"] for t in r["probe_s"]]
    print(f"  host speed probe   median {statistics.median(probes):.4f} s, "
          f"range {min(probes):.4f}-{max(probes):.4f} s over {len(probes)} "
          f"(reference {probe.PROBE_REF_S} s; machine drift)")
    metrics: Dict[str, Metric] = {}
    if args.trace:
        layers, trace_problems = traced_layers(run)
        problems += trace_problems
        for name in sorted(layers):
            metrics[name] = (layers[name], unit_of(name))
            print(f"  {name:<44} {layers[name]:14.6g} {unit_of(name)}")
    else:
        for name, (value, unit, n) in end_to_end(args.workload, run).items():
            metrics[name] = (value, unit)
            print(f"  {name:<18} {value:12.6g} {unit:<6} n={n}")
        for name, need in (("op_s.p50", 20), ("op_s.p90", 100)):
            if name not in metrics:
                print(f"  {name:<18} not reported: fewer than {need} successful op samples")
    print(f"  check: {checker.kind}  {checker.attempted - checker.failed}/"
          f"{checker.attempted} ops passed  -> {'FAILED' if problems else 'ok'}")
    for line in (checker.crashes + checker.wrong)[:10]:
        print(f"    {line}")

    listed = listed_metrics(args.workload, bool(args.trace))
    names = listed if listed is not None else sorted(metrics)
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


def record_digests(workload: str, seeds: List[int]) -> int:
    """Store the output digests of one untraced pass for each seed."""
    table = load_digests()
    for seed in seeds:
        work = new_workdir(f"record-{workload}-{seed}")
        try:
            ops = write_ops(workload, seed, work)
            report = run_pass(work, child_env(), False, DEADLINE_S)
            problems = [f"exit {r['rc']}" if r["rc"] != 0 else audit(op, r)
                        for op, r in zip(ops, report["ops"])]
            if any(problems):
                print(f"error: seed {seed} fails its checks: {problems}", file=sys.stderr)
                return 2
            table.setdefault(workload, {})[str(seed)] = [r["digests"] for r in report["ops"]]
        finally:
            remove_workdir(work)
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
