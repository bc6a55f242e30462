"""Command line front end.

Subcommands: equilibrium (price search on one city), consensus
(synthetic fault-injected rounds), full (equilibrium, contracts,
consensus and settlement end to end).  Every output file starts with a
'# seed=N' line so a run can be reproduced.  Exit codes: 0 success,
1 usage, scenario or validation problem, 2 runtime failure, 3 safety
violation detected in the run's own audits.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Iterable, Iterator, List, Optional

from .consensus import ConsensusError
from .equilibrium import NoFixedPoint, stackelberg_outcome
from .follower import FollowerError
from .ledger import Ledger, LedgerError, Role, export_chain
from .market import MarketError
from .netsim import make_nodes, run_pipeline, run_rounds
from .scenario import (Scenario, ScenarioError, build_city, build_consensus,
                       build_ne_config, load_scenario, read_seed)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_SAFETY = 3


def _write_rows(path: str, seed: int, header: List[str], rows: Iterable[List] = (),
                lines: Iterable[str] = ()) -> None:
    """Write one CSV output: csv formats each of rows, and lines are rows
    already in csv's form.  Either may be a generator, so no file's rows
    need be held in memory at once."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={seed}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
        fh.writelines(lines)


def _contract_lines(ledger: Ledger) -> Iterator[str]:
    """contracts.csv's rows in contract-id order, as csv writes them.

    Each offer's terms (buyer, seller, kind, price, amount) go through
    csv once; its contracts' rows join that text with their id, time
    and state, none of which csv would quote: ids are ct-NNNNNN, times
    ints and states fixed words.  check_offer admits no zero or NaN
    price or amount, the only floats that compare equal yet format
    apart, so equal terms always make equal text.
    """
    # writerow returns what its file's write returns: here, the text.
    # The line end stays csv's own and is cut off afterwards, since csv
    # quotes a field holding \r or \n only if the line end holds it too.
    quote = csv.writer(argparse.Namespace(write=str)).writerow
    terms_text = {}
    states = ledger.states
    for c in sorted(ledger.contracts.values(), key=lambda c: c.contract_id):
        key = (c.buyer, c.seller, c.kind, c.price, c.amount)
        terms = terms_text.get(key)
        if terms is None:
            terms = terms_text[key] = quote([c.buyer, c.seller, c.kind._value_,
                                             f"{c.price:.12e}", f"{c.amount:.6f}"])[:-2]
        # Enum `_value_` reads skip the `value` property.
        yield f"{c.contract_id},{terms},{c.trans_time},{states[c.contract_id]._value_}\r\n"


# ============================================================
# equilibrium
# ============================================================


def cmd_equilibrium(args, sc: Scenario, seed: int) -> int:
    outcome, trace = stackelberg_outcome(build_city(sc), build_ne_config(sc))
    p = outcome.prices
    _write_rows(
        os.path.join(args.out, "equilibrium.csv"), seed,
        ["p_e", "p_h", "iterations", "delta_final", "v_e", "v_h"],
        [[f"{p.p_e:.12e}", f"{p.p_h:.12e}", trace.iterations,
          f"{trace.delta_final:.6e}", f"{outcome.v_e:.6f}", f"{outcome.v_h:.6f}"]])
    if args.trace:
        _write_rows(
            os.path.join(args.out, "trace.csv"), seed,
            ["iteration", "p_e", "p_h", "v_e", "v_h", "delta"],
            ([s.iteration, f"{s.p_e:.12e}", f"{s.p_h:.12e}", f"{s.v_e:.6f}",
              f"{s.v_h:.6f}", f"{s.delta:.6e}"] for s in trace.steps))
    print(f"equilibrium: p_e={p.p_e:.6e} p_h={p.p_h:.6e} "
          f"iters={trace.iterations} delta_final={trace.delta_final:.3e} "
          f"v_e={outcome.v_e:.4f} v_h={outcome.v_h:.4f}")
    return EXIT_OK


# ============================================================
# consensus
# ============================================================


def cmd_consensus(args, sc: Scenario, seed: int) -> int:
    setup = build_consensus(sc)
    nodes = make_nodes(setup.node_ids)
    run = run_rounds(setup.rounds, nodes, setup.profile, seed,
                     delta1=setup.delta1, delta2=setup.delta2)
    _write_rows(
        os.path.join(args.out, "rounds.csv"), seed,
        ["round", "leader", "decision", "abort_reason", "committed_height",
         "credit_honest", "credit_byz", "prepare_msgs_needed"],
        ([r.round_no, r.leader_id, r.decision, r.abort_reason, r.committed_height,
          f"{r.credit_honest:.6f}", f"{r.credit_byz:.6f}", r.prepare_needed]
         for r in run.rows))
    n_rounds, forks = len(run.rows), run.divergence_count
    print(f"consensus: rounds={n_rounds} commits={run.commit_count} "
          f"aborts={n_rounds - run.commit_count} "
          f"divergent={forks} dropped={run.net.dropped}")
    for reason, count in sorted(run.abort_reasons.items()):
        print(f"  abort {reason}: {count}")
    if forks > 0:
        print("safety violation: honest chains diverged", file=sys.stderr)
        return EXIT_SAFETY
    return EXIT_OK


# ============================================================
# full pipeline
# ============================================================


def cmd_full(args, sc: Scenario, seed: int) -> int:
    res = run_pipeline(sc, seed)
    with open(os.path.join(args.out, "chain.txt"), "w") as fh:
        fh.write(f"# seed={seed}\n")
        fh.write(export_chain(res.chain))
    ledger = res.ledger
    _write_rows(
        os.path.join(args.out, "balances.csv"), seed,
        ["account", "role", "city", "balance", "credit"],
        ([a.account_id, a.role.value, a.city, f"{a.balance:.6f}",
          f"{res.driver.credits[a.account_id]:.3f}"
          if a.role is Role.AGGREGATOR else ""]
         for a in sorted(ledger.accounts.values(), key=lambda a: a.account_id)))
    _write_rows(
        os.path.join(args.out, "contracts.csv"), seed,
        ["contract_id", "buyer", "seller", "kind", "price", "amount",
         "trans_time", "state"],
        lines=_contract_lines(ledger))
    o = res.outcome
    for cname in res.city_names:
        print(f"{cname}: p_e={o.prices.p_e:.6e} p_h={o.prices.p_h:.6e} "
              f"v_e={o.v_e:.4f} v_h={o.v_h:.4f}")
    print(f"full: contracts={len(ledger.contracts)} "
          f"executed={len(ledger.contracts) - len(res.unexecuted)} "
          f"height={res.chain.height} drift={res.drift:.3e} "
          f"chain_ok={res.chain_ok} chains_equal={res.chains_equal} "
          f"refused={len(res.refusals)}")
    if res.violations:
        print("safety violation: " + ", ".join(res.violations), file=sys.stderr)
        return EXIT_SAFETY
    return EXIT_OK


# ============================================================
# entry point
# ============================================================


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="destrade",
        description="Cooperative energy trading simulator: pricing, consensus, settlement.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
            ("equilibrium", cmd_equilibrium, "price fixed-point search on one city"),
            ("consensus", cmd_consensus, "synthetic fault-injected consensus rounds"),
            ("full", cmd_full, "equilibrium, contracts, consensus and settlement")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        if name == "equilibrium":
            p.add_argument("--trace", action="store_true",
                           help="also write the per-iteration search trace")
        p.set_defaults(fn=fn)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 here
        # means a runtime failure, so a usage error returns 1.
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        sc = load_scenario(args.scenario)
        seed = args.seed if args.seed is not None else read_seed(sc)
        os.makedirs(args.out, exist_ok=True)
        return args.fn(args, sc, seed)
    except (ScenarioError, MarketError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NoFixedPoint, FollowerError, ConsensusError, LedgerError,
            OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
