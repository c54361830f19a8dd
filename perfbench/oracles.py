"""Independent checks of `susyqm` reports.

Every check recomputes its reference from the job's config (the program's
inputs), never from other columns of the report it checks, and shares no code
with `susyqm`. `check_report(cfg, outdir, exit_code)` returns a list of problems; an
empty list means the reports of that job are correct.
"""

import csv
import json
import math
import os

import numpy as np

PAIR_TOL = 1e-10        # partner levels are isospectral at matrix level
RESIDUAL_TOL = 1e-8     # supercharge eigen-relation residual
ROUTE_TOL = 1e-12       # agreement of independent concurrence routes
JC_GAP_TOL = 1e-10      # Jaynes-Cummings numeric vs analytic level
HARMONIC_LEVELS = 6     # low levels checked against the closed form
VERIFY_CHECKS = (
    "pairing_max_gap", "zero_mode_present", "zero_mode_residual",
    "intertwine_map_residual", "intertwine_energy_deviation",
    "supercharge_eigenstate_residual", "q1_squared_vs_hamiltonian",
    "q2_squared_vs_hamiltonian", "anticommutator_q1_q2",
    "anticommutator_parity_q1", "q2_hermiticity",
)


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _dx(cfg):
    g = cfg["grid"]
    return (g["x_max"] - g["x_min"]) / (g["n_points"] - 1)


def _is_default_harmonic(cfg):
    w = cfg["superpotential"]
    return w["name"] == "harmonic" and w.get("params", {}).get("scale", 1.0) == 1.0


def harmonic_level(n, dx):
    """(E_n, tolerance) of the forward-difference harmonic ladder, W = x.

    H- = B+ B with B = (D_fwd + x)/sqrt(2) has E_n = n - n^2 dx^2 / 4 + c_n dx^4.
    The next-order coefficient measured on grids of 201 to 4001 points is
    grid-independent and bounded by |c_n| <= (n^3 + n) / 16, so the tolerance
    is twice that term plus a round-off floor of 64 eps ||H|| (||H|| ~ 2/dx^2).
    """
    expected = n - n * n * dx * dx / 4.0
    tol = (n ** 3 + n) * dx ** 4 / 8.0 + 64 * np.finfo(float).eps * 2.0 / (dx * dx)
    return expected, tol


def _check_harmonic_energy(problems, where, n, energy, dx):
    expected, tol = harmonic_level(n, dx)
    if not abs(energy - expected) <= tol:
        problems.append(f"{where}: E_{n} = {energy!r}, closed form {expected!r} "
                        f"(misfit {energy - expected:.3e} > {tol:.3e})")


def _reference_zero_mode(cfg):
    """exp of the summed log1p(-dx W_i) recursion, normalized and positive."""
    g = cfg["grid"]
    dx = _dx(cfg)
    x = g["x_min"] + dx * np.arange(g["n_points"])
    w = cfg["superpotential"]
    params = w.get("params", {})
    if w["name"] == "harmonic":
        wx = params.get("scale", 1.0) * x
    elif w["name"] == "cubic":
        wx = x * x * x
    elif w["name"] == "shifted_cubic":
        wx = x ** 3 + params.get("a", 0.5)
    else:
        wx = np.tanh(x)
    factors = 1.0 - dx * wx[:-1]
    logs = np.full(g["n_points"], -np.inf)
    logs[0] = 0.0
    positive = np.cumprod(factors > 0.0).astype(bool)
    logs[1:][positive] = np.cumsum(np.log1p(-dx * wx[:-1][positive]))
    amps = np.exp(logs - np.max(logs))
    return x, amps / np.sqrt(np.sum(amps * amps) * dx)


def check_spectrum(cfg, outdir):
    problems = []
    rows = _rows(os.path.join(outdir, "spectrum.csv"))
    levels = cfg["levels"]
    # the H- zero mode is excluded from pairing; one extra pair appears when
    # the box lifts it above the zero threshold
    if not levels <= len(rows) <= levels + 1:
        problems.append(f"spectrum: {len(rows)} pairs for levels = {levels}")
    e_plus = [float(r["E_plus"]) for r in rows]
    e_minus = [float(r["E_minus"]) for r in rows]
    if [int(r["index"]) for r in rows] != list(range(1, len(rows) + 1)):
        problems.append("spectrum: index column is not 1..n")
    if any(b < a for a, b in zip(e_minus, e_minus[1:])):
        problems.append("spectrum: E_minus not ascending")
    for r, ep, em in zip(rows, e_plus, e_minus):
        gap = abs(ep - em)
        if not gap <= PAIR_TOL:
            problems.append(f"spectrum: level {r['index']} gap {gap:.3e} > {PAIR_TOL}")
        if float(r["gap"]) != gap:
            problems.append(f"spectrum: level {r['index']} gap column {r['gap']} "
                            f"differs from |E_plus - E_minus| = {gap!r}")
    if _is_default_harmonic(cfg):
        dx = _dx(cfg)
        for n, em in enumerate(e_minus[:HARMONIC_LEVELS], start=1):
            _check_harmonic_energy(problems, "spectrum", n, em, dx)

    zero = _rows(os.path.join(outdir, "zero_mode.csv"))
    x_ref, amp_ref = _reference_zero_mode(cfg)
    x = np.array([float(r["x"]) for r in zero])
    re = np.array([float(r["re"]) for r in zero])
    im = np.array([float(r["im"]) for r in zero])
    if x.shape != x_ref.shape or np.max(np.abs(x - x_ref)) > 1e-12:
        problems.append("zero_mode: x column is not the config grid")
    elif np.any(im != 0.0) or np.max(np.abs(re - amp_ref)) > 1e-9 * np.max(amp_ref):
        problems.append("zero_mode: amplitudes differ from the log-space kernel "
                        f"recursion by {np.max(np.abs(re - amp_ref)):.3e}")
    return problems


def check_supercharge(cfg, outdir):
    problems = []
    rows = _rows(os.path.join(outdir, "supercharge.csv"))
    levels = cfg["levels"]
    pattern = [("q1", "+1"), ("q1", "-1"), ("q2", "+1"), ("q2", "-1")]
    expected_keys = [(str(i), f, s) for i in range(1, levels + 1) for f, s in pattern]
    if [(r["index"], r["family"], r["sign"]) for r in rows] != expected_keys:
        problems.append(f"supercharge: rows are not 4 per level for levels = {levels}")
    energies = {}
    for r in rows:
        energies.setdefault(r["index"], set()).add(r["energy"])
    if any(len(e) != 1 for e in energies.values()):
        problems.append("supercharge: the four states of a level differ in energy")
    harmonic = _is_default_harmonic(cfg)
    dx = _dx(cfg)
    for r in rows:
        where = f"supercharge level {r['index']} {r['family']}{r['sign']}"
        resid = float(r["residual"])
        conc = float(r["concurrence"])
        if not resid <= RESIDUAL_TOL:
            problems.append(f"{where}: residual {resid:.3e} > {RESIDUAL_TOL}")
        if not 0.0 <= conc <= 1.0:
            problems.append(f"{where}: concurrence {conc!r} outside [0, 1]")
        n = int(r["index"])
        # odd W: partner states have opposite parity, so C = 1; only the low
        # levels stay clear of the box walls, whose one-sided closure breaks
        # parity (from level ~36 on a 1001-point box)
        if harmonic and n <= HARMONIC_LEVELS:
            if not abs(conc - 1.0) <= ROUTE_TOL:
                problems.append(f"{where}: concurrence {conc!r} != 1 for harmonic W")
            _check_harmonic_energy(problems, where, n, float(r["energy"]), dx)
    return problems


def check_entangle(cfg, outdir):
    problems = []
    rows = _rows(os.path.join(outdir, "entangle.csv"))
    sweep = cfg.get("sweep", {})
    c1_grid = np.linspace(0.0, 1.0, sweep.get("c1_points", 21))
    phase_grid = np.linspace(0.0, 2.0 * math.pi, sweep.get("phase_points", 8), endpoint=False)
    expected = [(c1, ph) for c1 in c1_grid for ph in phase_grid]
    got = [(float(r["|c1|"]), float(r["phase_diff"])) for r in rows]
    if len(got) != len(expected) or np.max(np.abs(np.subtract(got, expected))) > 1e-15:
        problems.append("entangle: (|c1|, phase) rows do not match the config sweep")
        return problems
    for r, (c1, _) in zip(rows, expected):
        ov = float(r["overlap_abs"])
        if not 0.0 <= ov <= 1.0:
            problems.append(f"entangle: overlap {ov!r} outside [0, 1]")
            continue
        ref = 2.0 * c1 * math.sqrt(max(0.0, 1.0 - c1 * c1)) * math.sqrt(1.0 - ov * ov)
        for col in ("C_spin", "C_overlap", "C_svd"):
            if not abs(float(r[col]) - ref) <= ROUTE_TOL:
                problems.append(f"entangle: |c1| = {c1!r}, phase = {r['phase_diff']}: "
                                f"{col} = {r[col]} vs C_overlap from inputs {ref!r}")
    return problems


def check_jc(cfg, outdir):
    problems = []
    p = cfg["jc_params"]
    omega, gamma, n_max = p["omega"], p["gamma"], p["n_max"]
    expected = [(0, 0, -omega / 2.0)]
    for n in range(1, n_max - 1):  # certified band n <= n_max - 2
        if gamma == 0.0:
            expected.append((n, 0, omega * n - omega / 2.0))
        else:
            split = gamma * math.sqrt(n)
            expected.append((n, -1, omega * n - split - omega / 2.0))
            expected.append((n, +1, omega * n + split - omega / 2.0))
    rows = _rows(os.path.join(outdir, "jc_levels.csv"))
    if [(int(r["n"]), int(r["branch"])) for r in rows] != [(n, b) for n, b, _ in expected]:
        problems.append("jc: level rows do not match the certified band")
        return problems
    for r, (n, b, e_ref) in zip(rows, expected):
        where = f"jc level n={n} branch={b}"
        if not abs(float(r["E_analytic"]) - e_ref) <= 1e-12 * max(1.0, abs(e_ref)):
            problems.append(f"{where}: E_analytic {r['E_analytic']} != {e_ref!r}")
        gap = abs(float(r["E_numeric"]) - e_ref)
        if not gap <= JC_GAP_TOL:
            problems.append(f"{where}: |E_numeric - E| = {gap:.3e} > {JC_GAP_TOL}")
        if r["concurrence"] and not 0.0 <= float(r["concurrence"]) <= 1.0:
            problems.append(f"{where}: concurrence {r['concurrence']} outside [0, 1]")
    with open(os.path.join(outdir, "jc_algebra.json"), encoding="utf-8") as fh:
        algebra = json.load(fh)
    if (algebra["omega"], algebra["gamma"], algebra["n_max"]) != (omega, gamma, n_max):
        problems.append("jc_algebra: parameters do not echo the config")
    return problems


def check_verify(cfg, outdir, exit_code):
    problems = []
    with open(os.path.join(outdir, "verify.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    checks = report["checks"]
    if [c["name"] for c in checks] != list(VERIFY_CHECKS):
        problems.append("verify: unexpected list of checks")
    for c in checks:
        if c["passed"] != (c["value"] <= c["bound"]):
            problems.append(f"verify: {c['name']} passed = {c['passed']} but "
                            f"value {c['value']!r} vs bound {c['bound']!r}")
    overall = all(c["passed"] for c in checks)
    if report["passed"] != overall:
        problems.append("verify: overall passed disagrees with the checks")
    if exit_code != (0 if overall else 1):
        problems.append(f"verify: exit code {exit_code} with passed = {overall}")
    if report["grid"] != cfg["grid"] or report["levels"] != cfg["levels"]:
        problems.append("verify: grid or levels do not echo the config")
    return problems


def check_report(cfg, outdir, exit_code):
    """Problems found in the reports one job wrote to `outdir`."""
    command = cfg["command"]
    try:
        if command == "spectrum":
            return check_spectrum(cfg, outdir)
        if command == "supercharge":
            return check_supercharge(cfg, outdir)
        if command == "entangle":
            return check_entangle(cfg, outdir)
        if command == "jc":
            return check_jc(cfg, outdir)
        return check_verify(cfg, outdir, exit_code)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return [f"{command}: missing or unparsable report: {type(exc).__name__}: {exc}"]
