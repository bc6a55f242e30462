"""Command line entry points, run in process via main(argv)."""

import contextlib
import csv
import hashlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from destrade.cli import _contract_lines, _write_rows, main
from destrade.ledger import EnergyKind, InsufficientBalance, Ledger, Role
from destrade.netsim import DRIFT_SHARE, DRIFT_TOLERANCE

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def scn(name):
    return os.path.join(REPO, "scenarios", name + ".scn")


SMALL_CONSENSUS = """\
[market]
q = 3.6e7
eta_g = 0.5
eta_r = 0.8
f_m = 200
c_f = 1.08
r_e = 5.5e-8
r_h = 6.25e-8

[communities]
k_e = 143.05
k_h = 137.81

[consensus]
n_nodes = 7
rounds = 30

[run]
seed = 5
"""


def read(path):
    with open(path) as fh:
        return fh.read()


# ============================================================
# equilibrium
# ============================================================


def test_equilibrium_run(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["equilibrium", "--scenario", scn("city1_nofloor"),
               "--out", str(out)])
    assert rc == 0
    text = read(out / "equilibrium.csv")
    assert text.startswith("# seed=1\n")
    assert "p_e,p_h,iterations,delta_final,v_e,v_h" in text
    assert "equilibrium: p_e=" in capsys.readouterr().out
    assert not (out / "trace.csv").exists()


def test_equilibrium_trace_flag(tmp_path):
    out = tmp_path / "out"
    rc = main(["equilibrium", "--scenario", scn("city1_nofloor"),
               "--out", str(out), "--trace"])
    assert rc == 0
    lines = read(out / "trace.csv").splitlines()
    assert lines[0] == "# seed=1"
    assert lines[1] == "iteration,p_e,p_h,v_e,v_h,delta"
    assert len(lines) > 10
    assert lines[2].startswith("0,")


@pytest.mark.parametrize("command,scenario",
                         [("consensus", "consensus20"), ("full", "full_2city")])
def test_trace_flag_is_equilibriums_only(tmp_path, capsys, command, scenario):
    # only the price search has a trace; the other subcommands refuse the
    # flag as a usage error, exit 1, not the runtime failure code 2
    rc = main([command, "--scenario", scn(scenario), "--out", str(tmp_path),
               "--trace"])
    assert rc == 1
    assert "unrecognized arguments: --trace" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,message", [
    (["settle", "--scenario", "x.scn"], "invalid choice: 'settle'"),
    ([], "the following arguments are required"),
    (["full"], "the following arguments are required: --scenario"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["full", "--help"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert "usage: destrade" in capsys.readouterr().out


def _city5_floor_with(tmp_path, key, value):
    """city5_floor.scn with one [run] value replaced."""
    text = read(scn("city5_floor"))
    line = next(l for l in text.splitlines() if l.startswith(key + " = "))
    scfile = tmp_path / "city5_floor.scn"
    scfile.write_text(text.replace(line, f"{key} = {value}"))
    return str(scfile)


def test_step_too_small_to_move_a_start_price_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["equilibrium", "--scenario", _city5_floor_with(tmp_path, "delta0", "5e-324"),
               "--out", str(out)])
    assert rc == 1
    assert "delta0 = 5e-324 is too small to move the start prices" in capsys.readouterr().err
    assert not (out / "equilibrium.csv").exists()


def test_walk_ended_by_a_vanished_step_exits_2(tmp_path, capsys):
    # the step underflows to 0 after one iteration; the tie that follows
    # is no equilibrium
    out = tmp_path / "out"
    rc = main(["equilibrium", "--scenario", _city5_floor_with(tmp_path, "decay", "1e-320"),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "runtime failure: step 0.0 no longer moves the prices" in err
    assert "after 2 iterations" in err
    assert not (out / "equilibrium.csv").exists()


@pytest.mark.parametrize("seed_args", [[], ["--seed", "1"]])
def test_equilibrium_ignores_the_full_run_shape(tmp_path, seed_args):
    # [run] cities shapes only `full`; the seed is read on its own
    scfile = tmp_path / "one_city.scn"
    scfile.write_text(read(scn("city1_nofloor")) + "cities = 1\n")
    assert main(["equilibrium", "--scenario", str(scfile),
                 "--out", str(tmp_path / "a")] + seed_args) == 0
    assert main(["equilibrium", "--scenario", scn("city1_nofloor"),
                 "--out", str(tmp_path / "b")]) == 0
    assert read(tmp_path / "a" / "equilibrium.csv") == read(
        tmp_path / "b" / "equilibrium.csv")


def test_seed_override_lands_in_header(tmp_path):
    out = tmp_path / "out"
    rc = main(["equilibrium", "--scenario", scn("city1_nofloor"),
               "--out", str(out), "--seed", "99"])
    assert rc == 0
    assert read(out / "equilibrium.csv").startswith("# seed=99\n")


def test_missing_scenario_file(tmp_path, capsys):
    rc = main(["equilibrium", "--scenario", str(tmp_path / "nope.scn"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_scenario_that_is_not_utf8_text_exits_1(tmp_path, capsys):
    bad = tmp_path / "bom.scn"
    bad.write_bytes(b"\xff\xfe[run]\nseed = 1\n")
    rc = main(["equilibrium", "--scenario", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: not UTF-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path", ["", "full_2city.scn/x"])
def test_scenario_path_that_is_no_file_exits_1(tmp_path, capsys, path):
    # A directory, and a path that runs through a regular file.
    path = os.path.join(REPO, "scenarios", path)
    rc = main(["full", "--scenario", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"error: {path}: cannot read" in capsys.readouterr().err


def test_invalid_scenario_file(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[run]\nwind = 3\n")
    rc = main(["equilibrium", "--scenario", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown key" in capsys.readouterr().err


# ============================================================
# consensus
# ============================================================


def test_consensus_run(tmp_path, capsys):
    scfile = tmp_path / "small.scn"
    scfile.write_text(SMALL_CONSENSUS)
    out = tmp_path / "out"
    rc = main(["consensus", "--scenario", str(scfile), "--out", str(out)])
    assert rc == 0
    lines = read(out / "rounds.csv").splitlines()
    assert lines[0] == "# seed=5"
    assert lines[1].startswith("round,leader,decision")
    assert len(lines) == 2 + 30
    printed = capsys.readouterr().out
    assert "consensus: rounds=30" in printed
    assert "divergent=0" in printed


def test_consensus_round_log_format(tmp_path):
    scfile = tmp_path / "six.scn"
    scfile.write_text(SMALL_CONSENSUS.replace("n_nodes = 7\nrounds = 30",
                                              "n_nodes = 6\nrounds = 5"))
    out = tmp_path / "out"
    assert main(["consensus", "--scenario", str(scfile), "--out", str(out)]) == 0
    lines = read(out / "rounds.csv").splitlines()
    assert lines[0] == "# seed=5"
    assert lines[1] == ("round,leader,decision,abort_reason,committed_height,"
                        "credit_honest,credit_byz,prepare_msgs_needed")
    assert len(lines) == 2 + 5
    assert lines[2].split(",")[2] == "committed"


def test_consensus_reruns_identical(tmp_path):
    scfile = tmp_path / "small.scn"
    scfile.write_text(SMALL_CONSENSUS)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["consensus", "--scenario", str(scfile), "--out", str(out_a)]) == 0
    assert main(["consensus", "--scenario", str(scfile), "--out", str(out_b)]) == 0
    assert read(out_a / "rounds.csv") == read(out_b / "rounds.csv")


def test_lossy_consensus_run_is_pinned(tmp_path, capsys):
    # No shipped scenario drops messages, so this digest is what pins the
    # order of the link drop draws.
    scfile = tmp_path / "lossy.scn"
    scfile.write_text(read(scn("consensus20"))
                      .replace("drop_prob = 0.0", "drop_prob = 0.05"))
    out = tmp_path / "out"
    assert main(["consensus", "--scenario", str(scfile), "--seed", "3",
                 "--out", str(out)]) == 0
    assert "commits=866 aborts=134" in capsys.readouterr().out
    assert hashlib.sha256((out / "rounds.csv").read_bytes()).hexdigest() == (
        "09eeab320bcbde4d953d3c03c5be568af8fb409074631b22d0abeccddaab1fb7")


def test_consensus_exits_3_when_honest_chains_diverge(tmp_path, capsys):
    # The lossy four-node run that test_netsim.py's
    # test_lossy_runs_count_their_forks pins at 3 forks.  A quorum rule
    # that intersects (ROADMAP item 1) removes these forks, so it changes
    # both tests together.
    scfile = tmp_path / "fork.scn"
    scfile.write_text(SMALL_CONSENSUS.replace("n_nodes = 7", "n_nodes = 4")
                      .replace("rounds = 30", "rounds = 300")
                      .replace("seed = 5", "seed = 8")
                      + "[faults]\ndrop_prob = 0.1\n")
    assert main(["consensus", "--scenario", str(scfile), "--out", str(tmp_path / "o")]) == 3
    printed = capsys.readouterr()
    assert "divergent=3" in printed.out
    assert "safety violation: honest chains diverged" in printed.err


def test_all_equivocator_run_reports_its_committed_heights(tmp_path):
    # with no honest node every node's commits decide a round, so a
    # committed row shows the height of the chains that committed
    scfile = tmp_path / "equivocators.scn"
    scfile.write_text(SMALL_CONSENSUS.replace("n_nodes = 7", "n_nodes = 5")
                      .replace("rounds = 30", "rounds = 20")
                      .replace("seed = 5", "seed = 3")
                      + "[faults]\nequivocators = 5\ndrop_prob = 0\n")
    out = tmp_path / "out"
    assert main(["consensus", "--scenario", str(scfile), "--out", str(out)]) == 0
    rows = [line.split(",") for line in read(out / "rounds.csv").splitlines()[2:]]
    committed = [(r[0], r[4]) for r in rows if r[2] == "committed"]
    assert committed == [("6", "1"), ("7", "2"), ("12", "3")]


# ============================================================
# full pipeline
# ============================================================


def test_full_run(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["full", "--scenario", scn("full_2city"), "--out", str(out)])
    assert rc == 0
    for name in ("chain.txt", "balances.csv", "contracts.csv"):
        assert (out / name).exists(), name
    printed = capsys.readouterr().out
    assert "chain_ok=True" in printed
    assert "chains_equal=True" in printed
    contracts = read(out / "contracts.csv").splitlines()
    assert contracts[0] == "# seed=7"
    body = contracts[2:]
    assert body and all(line.endswith(",executed") for line in body)
    assert read(out / "chain.txt").startswith("# seed=7\n")


def test_full_fault_roles_beyond_the_group_exit_1(tmp_path, capsys):
    # 5 roles, 4 aggregators: the roles go onto the ids that run
    scfile = tmp_path / "crowded.scn"
    scfile.write_text(read(scn("full_2city"))
                      .replace("[faults]\n", "[faults]\ndissenters = 3\n"
                               "silent_leaders = 2\n")
                      .replace("days = 3", "days = 1"))
    out = tmp_path / "out"
    rc = main(["full", "--scenario", str(scfile), "--out", str(out)])
    assert rc == 1
    assert "more faulty nodes than nodes" in capsys.readouterr().err
    assert not (out / "contracts.csv").exists()


@pytest.mark.parametrize("n_nodes", ["3", "4"])
def test_full_ignores_the_synthetic_group_shape(tmp_path, n_nodes):
    # 8 cities make 16 aggregators, which tolerate f = 5 roles; [consensus]
    # n_nodes shapes only the `consensus` subcommand's group
    def run(n, out):
        scfile = tmp_path / f"eight_{n}.scn"
        scfile.write_text(read(scn("full_2city"))
                          .replace("cities = 2", "cities = 8")
                          .replace("[faults]\n", "[faults]\ndissenters = 5\n")
                          .replace("[consensus]\n", f"[consensus]\nn_nodes = {n}\n"))
        return main(["full", "--scenario", str(scfile), "--out", str(out)])

    assert run(n_nodes, tmp_path / "a") == 0
    assert run("20", tmp_path / "b") == 0
    for name in ("chain.txt", "balances.csv", "contracts.csv"):
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)


def _full_2city(tmp_path, funding, days):
    scfile = tmp_path / "rich.scn"
    scfile.write_text(read(scn("full_2city"))
                      .replace("funding = 2000", f"funding = {funding}")
                      .replace("days = 3", f"days = {days}"))
    return main(["full", "--scenario", str(scfile), "--out", str(tmp_path / "out")])


def test_full_drift_bound_scales_with_the_money_held(tmp_path, capsys):
    # the rounding in 4e9 coin of balances exceeds 1e-6 coin
    assert _full_2city(tmp_path, "1e9", 10) == 0
    assert "safety violation" not in capsys.readouterr().err


def _balances(out):
    rows = read(os.path.join(out, "balances.csv")).splitlines()[2:]
    return [float(line.split(",")[3]) for line in rows]


# full_2city signs one contract from each of its 20 offers a day: two
# streams for each of 5 communities in each of 2 cities.
FULL_2CITY_OFFERS = 20


@pytest.mark.parametrize("funding,days,refused", [
    ("2000", 9, 2), ("2000", 10, 10), ("2100", 10, 6), ("2180", 10, 2)])
def test_full_refuses_offers_its_payer_cannot_cover(tmp_path, capsys, funding, days,
                                                    refused):
    # each payment leaves its payer when the contract is signed, so an
    # offer the payer can no longer cover is refused and counted, and the
    # run settles everything it signed, with no account below zero
    assert _full_2city(tmp_path, funding, days) == 0
    printed = capsys.readouterr()
    assert f"chain_ok=True chains_equal=True refused={refused}\n" in printed.out
    assert printed.err == ""
    assert min(_balances(tmp_path / "out")) >= 0.0
    states = [line.rsplit(",", 1)[1]
              for line in read(tmp_path / "out" / "contracts.csv").splitlines()[2:]]
    assert set(states) == {"executed"}
    assert len(states) + refused == days * FULL_2CITY_OFFERS


@settings(max_examples=60, deadline=None)
@given(funding=st.floats(min_value=1.0, max_value=2200.0), days=st.integers(1, 10))
def test_full_settles_every_contract_it_signs(funding, days):
    with tempfile.TemporaryDirectory() as tmp:
        scfile = os.path.join(tmp, "run.scn")
        with open(scfile, "w") as fh:
            fh.write(read(scn("full_2city")).replace("funding = 2000", f"funding = {funding!r}")
                     .replace("days = 3", f"days = {days}"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["full", "--scenario", scfile, "--out", tmp]) == 0
        summary = dict(field.split("=") for field in out.getvalue().splitlines()[-1].split()[1:])
        assert min(_balances(tmp)) >= 0.0
    assert int(summary["contracts"]) + int(summary["refused"]) == days * FULL_2CITY_OFFERS
    assert summary["executed"] == summary["contracts"]
    assert float(summary["drift"]) <= max(DRIFT_TOLERANCE, DRIFT_SHARE * 4 * funding)


@pytest.mark.parametrize("funding,days", [("2000", 3), ("1e9", 10)])
def test_full_reports_a_one_coin_leak(tmp_path, capsys, monkeypatch, funding, days):
    execute = Ledger.execute_contract
    leaked = []

    def leaky(self, contract_id, **kwargs):
        execute(self, contract_id, **kwargs)
        if not leaked:
            leaked.append(contract_id)
            self.accounts[self.contracts[contract_id].seller].balance += 1.0

    monkeypatch.setattr(Ledger, "execute_contract", leaky)
    assert _full_2city(tmp_path, funding, days) == 3
    assert leaked
    assert "safety violation: balance drift" in capsys.readouterr().err


def test_contracts_csv_is_what_csv_writes_for_each_row(tmp_path):
    # Ids that csv must quote, offers signed on three days, and both
    # contract states: the per-offer terms text must still match csv's
    # own rendering of each contract's eight fields.
    led = Ledger()
    payer = 'c0.e,"a"'
    for acct, role in ((payer, Role.AGGREGATOR), ("c0.ha", Role.AGGREGATOR),
                       ("c0\ndes0", Role.DES), ("c0.des1", Role.DES)):
        led.register(acct, role, "c0")
    led.deposit(payer, 30.0)
    led.deposit("c0.ha", 100.0)
    offers = [led.check_offer(payer, "c0\ndes0", EnergyKind.ELECTRICITY, 2.5e-8, 4.0e8),
              led.check_offer("c0.ha", "c0.des1", EnergyKind.HEAT, 1 / 3, 7.25)]
    for day in range(3):
        for offer in offers[:2 - day // 2]:
            led.sign_offer(offer, day, day)
    # three payments of 10 have used up the payer's 30: a fourth is refused
    with pytest.raises(InsufficientBalance):
        led.sign_offer(offers[0], 3, 3)
    for cid in ("ct-000000", "ct-000001", "ct-000002", "ct-000004"):
        led.execute_contract(cid)
    assert sorted(s._value_ for s in led.states.values()) == [
        "created", "executed", "executed", "executed", "executed"]

    header = ["contract_id", "buyer", "seller", "kind", "price", "amount",
              "trans_time", "state"]
    want = io.StringIO()
    want.write("# seed=7\n")
    w = csv.writer(want)
    w.writerow(header)
    for c in sorted(led.contracts.values(), key=lambda c: c.contract_id):
        w.writerow([c.contract_id, c.buyer, c.seller, c.kind.value, f"{c.price:.12e}",
                    f"{c.amount:.6f}", c.trans_time, led.states[c.contract_id].value])
    path = tmp_path / "contracts.csv"
    _write_rows(str(path), 7, header, lines=_contract_lines(led))
    assert path.read_bytes() == want.getvalue().encode()
    assert b'"c0.e,""a"""' in path.read_bytes()


def test_full_needs_two_cities(tmp_path, capsys):
    scfile = tmp_path / "one.scn"
    scfile.write_text(SMALL_CONSENSUS + "days = 1\ncities = 1\n")
    rc = main(["full", "--scenario", str(scfile), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "at least 2 cities" in capsys.readouterr().err


# The market and one community of SMALL_CONSENSUS, with no other section.
CITY_ONLY = SMALL_CONSENSUS.split("[consensus]")[0]


@pytest.mark.parametrize("section,entry,message", [
    ("run", "days = abc", "is not a number"),
    ("run", "seed = x", "is not a number"),
    ("run", "seed = 1.5", "must be an integer"),
    ("run", "days = -1", "days = -1 is out of range"),
    ("run", "days = 0", "days = 0 is out of range"),
    ("run", "days = 2.5", "must be an integer"),
    ("run", "cities = 3.5", "must be an integer"),
    ("run", "cities = 1", "at least 2 cities"),
    ("run", "funding = -5", "funding = -5.0 is out of range"),
    ("run", "funding = 0", "funding = 0.0 is out of range"),
    ("run", "funding = inf", "is not finite"),
    # each deposit is finite, but the four add up to inf
    ("run", "funding = 1e308", "funding = 1e+308 is out of range, need a total "
     "over the 4 aggregators that is finite"),
    # more aggregators than a float can count: rejected before any is made
    pytest.param("run", "cities = 1" + "0" * 400, "need a total over the 2" + "0" * 400,
                 id="run-cities-beyond-float"),
    ("run", "cities = 501", "cities = 501 is out of range, need at most 500 cities "
     "(1000 aggregators)"),
    # one past each bound on the work a scenario may ask for
    ("run", "days = 50001", "days = 50001 is out of range, need at most 50000 for 2 "
     "cities (days x cities at most 100000)"),
    ("run", "days = 201\ncities = 500", "days = 201 is out of range, need at most 200 "
     "for 500 cities"),
    ("run", "max_iters = 1000001", "max_iters = 1000001 is out of range, need at most "
     "1000000"),
    ("consensus", "rounds = 100001", "rounds = 100001 is out of range, need 1 to 100000"),
    ("consensus", "rounds = 1e12", "rounds = 1000000000000 is out of range"),
    ("run", "max_iters = 0", "max_iters = 0 must be at least 1"),
    ("run", "max_iters = -5", "max_iters = -5 must be at least 1"),
    ("run", "delta0 = 1e-7", "delta0 = 1e-07 must be below the cost floor 3e-08"),
    ("faults", "drop_prob = nan", "is not finite"),
    ("faults", "drop_prob = 1.5", "drop_prob = 1.5 is out of range"),
    ("faults", "drop_prob = -0.1", "drop_prob = -0.1 is out of range"),
    ("faults", "dissenters = -3", "dissenters = -3 is out of range"),
    ("faults", "dissenters = 2", "2 byzantine aggregators, more than f = 1 of 4"),
    ("consensus", "rounds = 0", "rounds = 0 is out of range"),
    ("consensus", "n_nodes = 3", "n_nodes = 3 is out of range"),
    ("consensus", "n_nodes = inf", "is not finite"),
    ("consensus", "n_nodes = 1001", "n_nodes = 1001 is out of range, need at most 1000"),
    ("consensus", "delta1 = -0.5", "delta1 = -0.5 is out of range"),
    ("consensus", "delta2 = -3", "delta2 = -3.0 is out of range"),
    ("consensus", "delta1 = 1.5", "delta1 = 1.5 is out of range"),
])
def test_hostile_scenario_values_exit_1(tmp_path, capsys, section, entry, message):
    scfile = tmp_path / "hostile.scn"
    scfile.write_text(f"{CITY_ONLY}[{section}]\n{entry}\n")
    out = tmp_path / "out"
    # [consensus] n_nodes and rounds shape only the `consensus` subcommand
    command = "consensus" if entry.startswith(("n_nodes", "rounds")) else "full"
    rc = main([command, "--scenario", str(scfile), "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (out / "contracts.csv").exists()
    assert not (out / "rounds.csv").exists()


@pytest.mark.parametrize("key,message", [
    ("q", "elec_capacity = 0.0, heat_capacity = 0.0, b_e = inf, b_h = inf, "
          "c_e = inf, c_h = inf: each must be positive and finite"),
    ("eta_r", "heat_capacity = 0.0, b_h = inf, c_h = inf: each must be positive "
              "and finite"),
])
def test_unit_whose_capacity_underflows_exits_1(tmp_path, capsys, key, message):
    scfile = tmp_path / "tiny.scn"
    scfile.write_text(read(scn("city5_floor")).replace(
        f"\n{key} = ", f"\n{key} = 5e-324\n# was ", 1))
    rc = main(["equilibrium", "--scenario", str(scfile), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_undrained_pool_is_a_runtime_failure(tmp_path, capsys):
    scfile = tmp_path / "lossy.scn"
    scfile.write_text(f"{CITY_ONLY}[faults]\ndrop_prob = 1.0\n[run]\ndays = 1\n")
    rc = main(["full", "--scenario", str(scfile), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "contract pool not drained" in capsys.readouterr().err
