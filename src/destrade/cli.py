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
from functools import cache
from typing import Iterable, Iterator, List, Optional

from .consensus import CREDIT_UNIT, ConsensusError
from .equilibrium import NoFixedPoint, find_ne
from .follower import FollowerError
from .ledger import Ledger, LedgerError, Role, export_chain
from .market import MarketError, shown
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
    contracts, executed = ledger.contracts, ledger.executed
    for cid in sorted(contracts):
        c = contracts[cid]
        # buyer, seller, kind, price, amount; the kind's value hashes in
        # C, where the Enum member's __hash__ runs in Python
        key = c[1], c[2], c[3]._value_, c[4], c[5]
        terms = terms_text.get(key)
        if terms is None:
            buyer, seller, kind, price, amount = key
            terms = terms_text[key] = quote([buyer, seller, kind, f"{price:.12e}",
                                             f"{amount:.6f}"])[:-2]
        # c[6] is trans_time
        yield f"{cid},{terms},{c[6]},{'executed' if cid in executed else 'created'}\r\n"


# ============================================================
# equilibrium
# ============================================================


def cmd_equilibrium(args, sc: Scenario, seed: int) -> int:
    _, trace = find_ne(build_city(sc), build_ne_config(sc))
    last = trace.steps[-1]  # the walk stopped here, at the fixed point
    _write_rows(
        os.path.join(args.out, "equilibrium.csv"), seed,
        ["p_e", "p_h", "iterations", "delta_final", "v_e", "v_h"],
        [[f"{last.p_e:.12e}", f"{last.p_h:.12e}", trace.iterations,
          f"{trace.delta_final:.6e}", f"{last.v_e:.6f}", f"{last.v_h:.6f}"]])
    if args.trace:
        _write_rows(
            os.path.join(args.out, "trace.csv"), seed,
            ["iteration", "p_e", "p_h", "v_e", "v_h", "delta"],
            ([s.iteration, f"{s.p_e:.12e}", f"{s.p_h:.12e}", f"{s.v_e:.6f}",
              f"{s.v_h:.6f}", f"{s.delta:.6e}"] for s in trace.steps))
    print(f"equilibrium: p_e={last.p_e:.6e} p_h={last.p_h:.6e} "
          f"iters={trace.iterations} delta_final={trace.delta_final:.3e} "
          f"v_e={last.v_e:.4f} v_h={last.v_h:.4f}")
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
          f"{r.credit_honest / CREDIT_UNIT:.6f}", f"{r.credit_byz / CREDIT_UNIT:.6f}",
          r.prepare_needed] for r in run.rows))
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
          f"{res.driver.credits[a.account_id] / CREDIT_UNIT:.3f}"
          if a.role is Role.AGGREGATOR else ""]
         for a in sorted(ledger.accounts.values(), key=lambda a: a.account_id)))
    _write_rows(
        os.path.join(args.out, "contracts.csv"), seed,
        ["contract_id", "buyer", "seller", "kind", "price", "amount",
         "trans_time", "state"],
        lines=_contract_lines(ledger))
    last = res.trace.steps[-1]
    for cname in res.city_names:
        print(f"{cname}: p_e={last.p_e:.6e} p_h={last.p_h:.6e} "
              f"v_e={last.v_e:.4f} v_h={last.v_h:.4f}")
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


# parse_args keeps no state on the parser, so one serves every main().
@cache
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
        if seed < 0:  # random.Random(-n) would repeat the run of seed n
            raise ScenarioError(f"seed {shown(seed)} is negative, need 0 or more")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ScenarioError(f"--out {args.out}: cannot create directory: "
                                f"{exc.strerror}") from None
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
