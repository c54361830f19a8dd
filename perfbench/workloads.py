"""Job lists of the four benchmark workloads, generated from a seed.

Each job is one `susyqm` config, run as `susyqm --config FILE --out DIR`.
The seed sets the job order within a workload and the `a` of every
shifted_cubic job; the program only ever sees the generated config files.

Sizes are chosen so that one pass over a job list takes 2-5 s with one BLAS
thread on a 2-core x86 box, so a 25 s run holds several passes and reports
their median.
"""

import importlib
import json
import os
import random
import sys

WORKLOADS = {
    "grid_ladder": "few levels on two grid sizes, so dense assembly of B/H+- "
                   "and the dense tridiagonality scan dominate",
    "deep_levels": "one build per job, then hundreds of intertwining and "
                   "supercharge applications near the levels cap",
    "verify_box": "the dense Q1^2, Q2^2, {Q1,Q2} and parity identity "
                  "products inside verify",
    "jc_fock": "Jaynes-Cummings on growing Fock spaces; no grid layer runs",
}

# W(x) = x^3 + a keeps W(-10) < 0 < W(10) for |a| < 1000; the narrower
# interval brackets the bundled a = 0.5 and keeps every job free of failures
SHIFT_INTERVAL = (-1.0, 1.0)

BUNDLED_W = ("harmonic", "cubic", "shifted_cubic", "tanh")


def _grid(n_points):
    return {"x_min": -10.0, "x_max": 10.0, "n_points": n_points}


def _w(name, a):
    if name == "shifted_cubic":
        return {"name": name, "params": {"a": a}}
    return {"name": name}


def _grid_ladder(a):
    jobs = []
    for name, n_points in [(w, 1001) for w in BUNDLED_W] + [("harmonic", 2001)]:
        for command, key, value in (
            ("spectrum", "levels", 6),
            ("supercharge", "levels", 3),
            ("entangle", "level", 1),
        ):
            jobs.append({"command": command, "superpotential": _w(name, a),
                         "grid": _grid(n_points), key: value})
    return jobs


def _deep_levels(a):
    # levels 99 is the cap (levels + 1) * 10 <= n_points at 1001 points
    return [
        {"command": command, "superpotential": _w(name, a),
         "grid": _grid(1001), "levels": 99}
        for name in ("harmonic", "shifted_cubic")
        for command in ("supercharge", "spectrum")
    ]


def _verify_box(root):
    with open(os.path.join(root, "configs", "verify.json"), encoding="utf-8") as fh:
        bundled = json.load(fh)
    return [bundled, {"command": "verify", "superpotential": {"name": "harmonic"},
                      "grid": _grid(1001), "levels": 6}]


def _jc_fock():
    return [
        {"command": "jc", "jc_params": {"omega": 1.0, "gamma": gamma, "n_max": n_max}}
        for n_max in (128, 256, 512)
        for gamma in (0.1, 0.0)  # gamma = 0 takes the degenerate-subspace branch
    ]


def make_jobs(workload, seed, root):
    """Config dicts of one workload in the order the seed gives them."""
    rng = random.Random(seed)
    a = rng.uniform(*SHIFT_INTERVAL)
    if workload == "grid_ladder":
        jobs = _grid_ladder(a)
    elif workload == "deep_levels":
        jobs = _deep_levels(a)
    elif workload == "verify_box":
        jobs = _verify_box(root)
    elif workload == "jc_fock":
        jobs = _jc_fock()
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng.shuffle(jobs)
    return jobs


def load_cli(root):
    """Import `susyqm.cli` from the checkout's `src/`, never an installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "susyqm", "__init__.py")):
        raise FileNotFoundError(f"no susyqm package under {src}")
    sys.path.insert(0, src)
    cli = importlib.import_module("susyqm.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"susyqm was imported from {cli.__file__}, not from {src}")
    return cli


def write_configs(jobs, directory):
    """One JSON file per job; returns the file paths in job order."""
    paths = []
    for i, cfg in enumerate(jobs):
        path = os.path.join(directory, f"job{i:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        paths.append(path)
    return paths


def job_label(cfg):
    """Short human-readable name of a job, e.g. `supercharge/tanh/1001`."""
    if cfg["command"] == "jc":
        p = cfg["jc_params"]
        return f"jc/n_max={p['n_max']}/gamma={p['gamma']}"
    return f"{cfg['command']}/{cfg['superpotential']['name']}/{cfg['grid']['n_points']}"
