"""tools/bench_pairs.py: the pair order and the claim rule, on made-up runs (no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.00, 1.01, 1.02, 0.99, 1.00, 1.03, 0.98, 1.01, 1.00, 1.02]  # quartiles 1.00, 1.02


@pytest.mark.parametrize("change, claimable", [
    ([p - 0.2 for p in PARENT], True),  # 10 of 10, gap 0.2 beyond the 0.02 spread
    ([p - 0.2 for p in PARENT[:9]] + [PARENT[9]], True),  # a tie counts for neither side
    ([p - 0.2 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]], False),  # 8 of 10 wins
    ([p - 0.01 for p in PARENT], False),  # 10 wins, but within the parent's spread
])
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_quartiles(
        bench_pairs, change, claimable):
    line = bench_pairs.summary("wall_s", "lower", PARENT, change)
    assert line.endswith("gain claimable: " + ("yes" if claimable else "no"))


def test_higher_is_better_counts_the_other_way(bench_pairs):
    up = [p + 0.2 for p in PARENT]
    assert "change wins 10, loses 0" in bench_pairs.summary("ops", "higher", PARENT, up)
    assert "change wins 0, loses 10" in bench_pairs.summary("ops", "lower", PARENT, up)


def test_pairs_alternate_which_side_runs_first(bench_pairs, monkeypatch, capsys):
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        return {"setup_s": 0.2, "wall_s": 0.3 if checkout == "P" else 0.2, "peak_rss_mb": 40.0}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["P", "C", "--workload", "w", "--pairs", "3", "--seed", "7"]) == 0
    assert calls == [("P", 7), ("C", 7), ("C", 8), ("P", 8), ("P", 9), ("C", 9)]
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[3:]] == [
        "setup_s (lower is better)", "wall_s (lower is better)", "peak_rss_mb (lower is better)"]


def test_a_failed_run_ends_with_exit_1(bench_pairs, monkeypatch, capsys):
    def run_once(checkout, workload, seed, seconds):
        raise RuntimeError(f"{checkout}: 1 of 4 jobs failed, correct = True")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["P", "C", "--workload", "w", "--pairs", "2"]) == 1
    assert capsys.readouterr().err == "bench_pairs: P: 1 of 4 jobs failed, correct = True\n"
