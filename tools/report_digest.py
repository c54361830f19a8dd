"""Two sha256 per susyqm run over a fixed set of configs, to compare two checkouts.

Usage:

    python tools/report_digest.py [CHECKOUT] > digests.txt

CHECKOUT (default: the checkout holding this script) is a susyqm source tree;
its `susyqm.cli` is imported from its `src/` and run in process on 112
configs, each once with `--format csv` and once with `--format json`:

- the bundled configs in `configs/`;
- the seed-1 and seed-2 jobs of the four benchmark workloads, read from the
  checkout's `perfbench/workloads.make_jobs`;
- the edge cases in `EXTRA` below, and every command for each bundled W at
  201 points.

Each output line is `<run> <format> <ending> <reports> <output>`. The ending
is plain text, `exit N` or `raised <exception name>`; then come two sha256.
The first covers the report files (names and bytes); the second the ending
in full (the exit code, or the exception with its message), stdout and
stderr, with the run's output directory masked in the text. Run it on a
second checkout of the parent commit and on the change, then `diff` the two
files: a change that keeps every output reads no difference, one that moves
only a stderr line moves only the last hash of its runs, and a moved ending
reads as text, for example `exit 1` against `exit 0`.
"""

import contextlib
import glob
import hashlib
import io
import json
import os
import sys
import tempfile

W_NAMES = ("harmonic", "cubic", "shifted_cubic", "tanh")


def _grid(n_points, half_width=10.0):
    return {"x_min": -half_width, "x_max": half_width, "n_points": n_points}


def _config(command, name, n_points, key="levels", value=6, half_width=10.0, **params):
    w = {"name": name, "params": params} if params else {"name": name}
    return {"command": command, "superpotential": w, "grid": _grid(n_points, half_width),
            key: value}


def _jc(omega, gamma, n_max):
    return {"command": "jc", "jc_params": {"omega": omega, "gamma": gamma, "n_max": n_max}}


EXTRA = [
    ("supercharge/tanh/1001/levels=20", _config("supercharge", "tanh", 1001, value=20)),
    ("supercharge/harmonic/201/scale=-1", _config("supercharge", "harmonic", 201, scale=-1.0)),
    ("verify/cubic/1001", _config("verify", "cubic", 1001)),
    ("verify/shifted_cubic/2001/levels=20", _config("verify", "shifted_cubic", 2001, value=20)),
    # verify at 32001 points for every W: its sums of squares must not depend
    # on the BLAS thread count
    *((f"verify/{name}/32001", _config("verify", name, 32001)) for name in W_NAMES),
    # and neither may entangle's overlaps and spin sums nor supercharge's
    # concurrences
    *((f"entangle/{name}/32001/level=6", _config("entangle", name, 32001, key="level"))
      for name in ("harmonic", "cubic")),
    *((f"supercharge/{name}/32001", _config("supercharge", name, 32001))
      for name in ("harmonic", "cubic")),
    ("spectrum/cubic/32001", _config("spectrum", "cubic", 32001)),
    ("entangle/shifted_cubic/2001/level=5",
     _config("entangle", "shifted_cubic", 2001, key="level", value=5)),
    ("jc/1e4/0.1/64", _jc(1e4, 0.1, 64)),
    ("jc/1/3/64", _jc(1.0, 3.0, 64)),
    ("spectrum/harmonic/201/scale=1e153", _config("spectrum", "harmonic", 201, scale=1e153)),
    # the zero-mode verdict's edges: |E0| just above EPS0, and W = -x, whose
    # H+ has a second level below EPS0
    ("spectrum/harmonic/32001", _config("spectrum", "harmonic", 32001)),
    ("spectrum/harmonic/2001/scale=2^16/half_width=10*2^-8",
     _config("spectrum", "harmonic", 2001, half_width=10.0 * 2 ** -8, scale=2.0 ** 16)),
    ("entangle/harmonic/201/scale=-1",
     _config("entangle", "harmonic", 201, key="level", value=3, scale=-1.0)),
    ("spectrum/harmonic/201/scale=-1", _config("spectrum", "harmonic", 201, scale=-1.0)),
    # both pairing verdicts from real configs: a flat W on a wide box, whose
    # H+ level 1 is a second zero mode, and a steep W on a narrow box, whose
    # H+ levels lie an ulp or two (above PAIR_TOL) from their H- partners,
    # which fails the pairing check of every command that pairs: each
    # writes its reports and exits 1
    ("spectrum/harmonic/201/scale=2^-40/half_width=10*2^20",
     _config("spectrum", "harmonic", 201, half_width=10.0 * 2 ** 20, scale=2.0 ** -40)),
    ("spectrum/harmonic/2001/scale=2^20/half_width=10*2^-10",
     _config("spectrum", "harmonic", 2001, half_width=10.0 * 2 ** -10, scale=2.0 ** 20)),
    ("verify/harmonic/2001/scale=2^20/half_width=10*2^-10",
     _config("verify", "harmonic", 2001, half_width=10.0 * 2 ** -10, scale=2.0 ** 20)),
    ("entangle/harmonic/2001/scale=2^20/half_width=10*2^-10/level=6",
     _config("entangle", "harmonic", 2001, key="level", half_width=10.0 * 2 ** -10,
             scale=2.0 ** 20)),
    # many failed checks in one run, and a subnormal coupling
    ("verify/harmonic/201/scale=1e153", _config("verify", "harmonic", 201, scale=1e153)),
    ("supercharge/harmonic/201/scale=1e153",
     _config("supercharge", "harmonic", 201, scale=1e153)),
    ("jc/1/1e-320/8", _jc(1.0, 1e-320, 8)),
    # a weak coupling whose splitting is below the rounding of E (it once
    # failed with fidelity 0.99999989), and the crossing E(1, -) = E(16, -)
    ("jc/1/1e-12/16", _jc(1.0, 1e-12, 16)),
    ("jc/1/5/16", _jc(1.0, 5.0, 16)),
    # the batched supercharge pass across block boundaries: verify at the
    # levels cap, and supercharge over 199 levels in blocks of 3
    ("verify/harmonic/1001/levels=99", _config("verify", "harmonic", 1001, value=99)),
    ("supercharge/cubic/2001/levels=199", _config("supercharge", "cubic", 2001, value=199)),
    # supercharge solves H+ alone, so its endings are its own: a second zero
    # mode of H+; a steep W on a narrow box, whose H+ levels lie an ulp or
    # two (above PAIR_TOL) from their H- partners, which spectrum and verify
    # fail and supercharge does not read; and levels near 6.5e4 on the steep
    # box whose zero mode spectrum and verify find lifted
    ("supercharge/harmonic/201/scale=2^-40/half_width=10*2^20",
     _config("supercharge", "harmonic", 201, half_width=10.0 * 2 ** 20, scale=2.0 ** -40)),
    ("supercharge/harmonic/2001/scale=2^20/half_width=10*2^-10",
     _config("supercharge", "harmonic", 2001, half_width=10.0 * 2 ** -10, scale=2.0 ** 20)),
    ("supercharge/harmonic/2001/scale=2^16/half_width=10*2^-8",
     _config("supercharge", "harmonic", 2001, half_width=10.0 * 2 ** -8, scale=2.0 ** 16)),
] + [
    (f"{command}/{name}/201", _config(command, name, 201, key, value))
    for name in W_NAMES
    for command, key, value in (("spectrum", "levels", 6), ("supercharge", "levels", 6),
                                ("verify", "levels", 6), ("entangle", "level", 3))
]


def configs(root, workloads):
    """(label, config dict) of every run, in a fixed order."""
    out = []
    for path in sorted(glob.glob(os.path.join(root, "configs", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            out.append((os.path.basename(path), json.load(fh)))
    for seed in (1, 2):
        for workload in workloads.WORKLOADS:
            for i, cfg in enumerate(workloads.make_jobs(workload, seed, root)):
                out.append((f"{workload}/seed={seed}/job{i:02d}", cfg))
    return out + EXTRA


def digest(cli, cfg, fmt, scratch):
    """One run's ending as text, sha256 of its reports, and sha256 of its ending and output."""
    with tempfile.TemporaryDirectory(dir=scratch) as outdir:
        path = os.path.join(outdir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main(["--config", path, "--out", outdir, "--format", fmt])
                ending = plain = f"exit {rc}"
            except Exception as exc:  # a crash is an outcome to compare, not an end
                plain = f"raised {type(exc).__name__}"
                ending = f"{plain}: {exc}"
        reports, end = hashlib.sha256(), hashlib.sha256()
        for name in sorted(os.listdir(outdir)):
            if name != "config.json":
                with open(os.path.join(outdir, name), "rb") as fh:
                    reports.update(f"{name}\n".encode() + fh.read())
        for text in (ending, stdout.getvalue(), stderr.getvalue()):
            end.update(b"\0" + text.replace(outdir, "OUT").encode())
    return f"{plain} {reports.hexdigest()} {end.hexdigest()}"


def main(argv):
    root = os.path.abspath(argv[1] if len(argv) > 1 else
                           os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workloads

    cli = workloads.load_cli(root)
    with tempfile.TemporaryDirectory() as scratch:
        for label, cfg in configs(root, workloads):
            for fmt in ("csv", "json"):
                print(label, fmt, digest(cli, cfg, fmt, scratch), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
