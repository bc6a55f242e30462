"""tools/ab_bench.py: pair order, the summary it prints and its exit code,
on canned benchmark results instead of real runs."""

from __future__ import annotations

import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tools"))

import ab_bench  # noqa: E402


def _result(run_s, rss, correct=True, failed=0):
    return {"correct": correct, "attempted": 5, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def _fake_runs(monkeypatch, results, seeds=None):
    """Serve results[(root, n)] to the n-th run in root; record the order
    and the run lengths, and the seeds in seeds when given."""
    calls, lengths = [], []

    def run_once(root, workload, seed, seconds):
        calls.append(os.path.basename(root))
        lengths.append(seconds)
        if seeds is not None:
            seeds.append(seed)
        result = results[(calls[-1], calls.count(calls[-1]))]
        if result is None:
            return None, "exit 2: no result"
        problem = "" if result["correct"] else 'reported "correct": false'
        return result, problem

    monkeypatch.setattr(ab_bench, "run_once", run_once)
    return calls, lengths


SPEC = ('{"run_seconds": 7, "end_to_end": ['
        '{"name": "run_s", "better": "lower", "bound": 0.15}, '
        '{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}')


def _roots(tmp_path):
    for side in ("old", "new"):
        os.makedirs(tmp_path / side / "perfbench")
        (tmp_path / side / "perfbench" / "run.py").write_text("")
        (tmp_path / side / "BENCHMARK.json").write_text(SPEC)
    return ["--parent", str(tmp_path / "old"), "--change", str(tmp_path / "new")]


def test_pairs_alternate_and_count_wins(tmp_path, monkeypatch, capsys):
    results = {("old", i): _result(0.10 + 0.001 * i, 20.0) for i in range(1, 5)}
    results.update({("new", i): _result(0.09 + 0.001 * i, 20.0 + (i == 4)) for i in range(1, 5)})
    calls, lengths = _fake_runs(monkeypatch, results)
    assert ab_bench.main(_roots(tmp_path) + ["--pairs", "4"]) == 0
    # the parent goes first in odd-numbered pairs, the change in even ones
    assert calls == ["old", "new", "new", "old", "old", "new", "new", "old"]
    # each run lasts the change's BENCHMARK.json run_seconds
    assert lengths == [7] * 8
    lines = capsys.readouterr().out.splitlines()
    run_s = next(ln.split() for ln in lines if ln.startswith("run_s "))
    # medians 0.1025 and 0.0925, parent IQR 0.0015, 4 of 4 pairs won
    assert run_s[1:4] == ["0.1025", "0.0925", "0.902"]
    assert float(run_s[4]) == pytest.approx(0.0015)
    assert run_s[5:] == ["4/4", "ok", "yes"]
    rss = next(ln.split() for ln in lines if ln.startswith("peak_rss_mb "))
    # one pair lost and none won: no gain, and the equal medians are in bound
    assert rss[5:] == ["0/4", "ok", "no"]
    assert "failed ops: parent 0, change 0" in lines


def test_a_run_that_is_not_correct_fails_the_tool(tmp_path, monkeypatch, capsys):
    _, lengths = _fake_runs(monkeypatch, {
        ("old", 1): _result(0.10, 20.0),
        ("new", 1): _result(0.20, 20.0, correct=False, failed=2)})
    assert ab_bench.main(_roots(tmp_path) + ["--pairs", "1", "--seconds", "3"]) == 1
    assert lengths == [3.0, 3.0]
    out = capsys.readouterr().out
    assert "failed ops: parent 0, change 2" in out
    assert 'problem: pair 1 change: reported "correct": false' in out
    # twice the parent's run_s is past its 15% bound
    assert next(ln for ln in out.splitlines() if ln.startswith("run_s ")).split()[6] == "OVER"


def test_a_run_with_no_result_fails_the_tool(tmp_path, monkeypatch, capsys):
    _fake_runs(monkeypatch, {("old", 1): _result(0.10, 20.0), ("new", 1): None})
    assert ab_bench.main(_roots(tmp_path) + ["--pairs", "1"]) == 1
    out = capsys.readouterr().out
    assert "run_s          runs missing on one side (1 parent, 0 change)" in out
    assert "problem: pair 1 change: exit 2: no result" in out


def test_a_checkout_without_the_benchmark_is_refused(tmp_path):
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(["--parent", str(tmp_path), "--change", str(tmp_path)])
    assert exc.value.code == 2
    args = _roots(tmp_path)
    os.remove(tmp_path / "new" / "BENCHMARK.json")
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(args)
    assert exc.value.code == 2


def test_every_run_gets_the_seed_asked_for(tmp_path, monkeypatch, capsys):
    results = {(side, i): _result(0.10, 20.0) for side in ("old", "new") for i in (1, 2)}
    seeds = []
    _fake_runs(monkeypatch, results, seeds)
    args = _roots(tmp_path) + ["--pairs", "1"]
    assert ab_bench.main(args) == 0
    assert "price_search seed 1, 1 pairs of 7 s" in capsys.readouterr().out
    # a gain can be checked again at a seed the change was not written against
    assert ab_bench.main(args + ["--seed", "4242"]) == 0
    assert "price_search seed 4242, 1 pairs of 7 s" in capsys.readouterr().out
    assert seeds == [1, 1, 4242, 4242]
