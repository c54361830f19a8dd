"""Tests of the benchmark itself: oracles, failure accounting, exact counts.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from oracles import check_report  # noqa: E402
from run import run_pass  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import load_cli, write_configs  # noqa: E402

cli = load_cli(ROOT)


def _grid(n_points):
    return {"x_min": -10.0, "x_max": 10.0, "n_points": n_points}


SPECTRUM = {"command": "spectrum", "superpotential": {"name": "harmonic"},
            "grid": _grid(201), "levels": 6}
SUPERCHARGE = {"command": "supercharge", "superpotential": {"name": "harmonic"},
               "grid": _grid(201), "levels": 3}
ENTANGLE = {"command": "entangle", "superpotential": {"name": "shifted_cubic",
                                                      "params": {"a": 0.3}},
            "grid": _grid(201), "level": 1}
JC = {"command": "jc", "jc_params": {"omega": 1.0, "gamma": 0.1, "n_max": 16}}
CRASH = {"command": "supercharge", "superpotential": {"name": "tanh"},
         "grid": _grid(201), "levels": 3}


def _run(cfg, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outdir = tmp_path / "out"
    code = cli.main(["--config", str(path), "--out", str(outdir)])
    return code, outdir


def _nudge(path, row, column, delta):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = repr(float(rows[row][column]) + delta)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("cfg, filename, row, column, delta", [
    (SPECTRUM, "spectrum.csv", 2, "E_minus", 1e-9),
    (SPECTRUM, "spectrum.csv", 0, "E_plus", -1e-9),
    (SUPERCHARGE, "supercharge.csv", 5, "concurrence", -1e-9),
    (SUPERCHARGE, "supercharge.csv", 1, "energy", 1e-5),
    (ENTANGLE, "entangle.csv", 40, "C_spin", 1e-9),
    (ENTANGLE, "entangle.csv", 77, "C_svd", -1e-9),
    (JC, "jc_levels.csv", 7, "E_numeric", 1e-9),
])
def test_checker_rejects_a_nudged_value(cfg, filename, row, column, delta, tmp_path):
    code, outdir = _run(cfg, tmp_path)
    assert code == 0
    assert check_report(cfg, str(outdir), code) == []
    bad = tmp_path / "bad"
    shutil.copytree(outdir, bad)
    _nudge(bad / filename, row, column, delta)
    assert check_report(cfg, str(bad), code) != []


def test_checker_rejects_a_missing_report(tmp_path):
    code, outdir = _run(SPECTRUM, tmp_path)
    os.remove(outdir / "zero_mode.csv")
    problems = check_report(SPECTRUM, str(outdir), code)
    assert problems and "missing or unparsable" in problems[0]


def test_crash_job_is_counted_failed_and_the_run_goes_on(tmp_path):
    jobs = [CRASH, SPECTRUM]
    paths = write_configs(jobs, str(tmp_path))
    _, outcomes, _ = run_pass(cli, jobs, paths, str(tmp_path / "out"))
    crash, good = outcomes
    assert crash["error"].startswith("ValueError: spinor state is not normalized")
    assert crash["exit"] is None
    assert good["error"] is None and good["exit"] == 0 and good["problems"] == []


def test_counts_repeat_exactly_across_runs(tmp_path):
    jobs = [SPECTRUM, SUPERCHARGE, JC]
    paths = write_configs(jobs, str(tmp_path))
    runs = []
    for memory in (False, True):
        _, outcomes, spans = run_pass(cli, jobs, paths, str(tmp_path / f"out{memory}"),
                                      Tracer(memory))
        assert all(o["error"] is None and not o["problems"] for o in outcomes)
        runs.append(layer_metrics(spans))
    for name in ("operators.system_bytes", "spectral.eigenpairs", "jaynescummings.dim",
                 "operators.build_calls", "entanglement.apply_q_calls"):
        assert runs[0][name] == runs[1][name] > 0, name
    assert runs[0]["operators.system_bytes"] == 2 * 4 * 201 * 201 * 8
    assert runs[0]["jaynescummings.dim"] == 2 * (16 + 1)
    # only the memory tracer runs tracemalloc
    assert runs[0]["operators.alloc_peak_mb"] == 0.0
    assert runs[1]["operators.alloc_peak_mb"] >= 4 * 201 * 201 * 8 / 2**20


def test_tracer_restores_the_package():
    import susyqm.spectral

    before = susyqm.spectral.solve_spectrum
    tracer = Tracer()
    tracer.install()
    assert susyqm.spectral.solve_spectrum is not before
    tracer.uninstall()
    assert susyqm.spectral.solve_spectrum is before


def test_self_times_account_for_the_traced_pass(tmp_path):
    jobs = [SPECTRUM, JC]
    paths = write_configs(jobs, str(tmp_path))
    wall, _, spans = run_pass(cli, jobs, paths, str(tmp_path / "out"), Tracer())
    metrics = layer_metrics(spans)
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0.0 <= wall - total < 0.05 * wall


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "jc_fock",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
