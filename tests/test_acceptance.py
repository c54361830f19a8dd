"""Acceptance gate: every advertised numerical contract, one pass/fail line each.

Each test prints `[criterion N] PASS|FAIL label: measured values` and then
asserts. Tolerances are taken at face value; sub-checks the box discretization
provably cannot meet still run and fail with the measured number on the line,
so a red entry here is a documented limitation rather than a silent skip (the
known ones: the harmonic ladder carries an O(dx^2) deficit larger than the
absolute tolerances, and the forward-difference asymmetry breaks cubic
parity).

Run with `pytest tests/test_acceptance.py -v -rA` to see every line.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import susyqm as sq
from susyqm import checks, cli

W_NAMES = ("harmonic", "cubic", "shifted_cubic", "tanh")
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(criterion, label, passed, detail):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} {label}: {detail}"
    print(line)
    assert passed, line


def sweep_grid():
    for c1 in np.linspace(0.0, 1.0, 21):
        c2_mod = math.sqrt(max(0.0, 1.0 - c1 * c1))
        for phase in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            yield c1, c2_mod * complex(math.cos(phase), math.sin(phase))


@pytest.fixture(scope="module")
def lab():
    """Both partner spectra for every bundled superpotential, solve time kept."""
    grid = sq.make_grid(-10.0, 10.0, 2001)
    entries = {}
    for name in W_NAMES:
        t0 = time.perf_counter()
        system = sq.build_susy_system(sq.get_superpotential(name), grid)
        plus = sq.solve_spectrum(system.H_plus, 6, grid)  # H+ has no zero
        minus = sq.solve_spectrum(system.H_minus, 7, grid)
        seconds = time.perf_counter() - t0
        # the lab's own pairing of the blind lists: the levels at or above
        # EPS0 of each side, zipped in order
        plus_nz = [p for p in plus if p.energy >= sq.EPS0]
        minus_nz = [m for m in minus if m.energy >= sq.EPS0]
        entries[name] = {
            "system": system,
            "gaps": [abs(p.energy - m.energy) for p, m in zip(plus_nz, minus_nz)],
            "zero_mode_energy": minus[0].energy,
            "seconds": seconds,
            "plus_nz": plus_nz,
            "minus_nz": minus_nz,
        }
    return entries


# criterion 1: two-fold degeneracy of all nonzero levels plus a single zero mode

@pytest.mark.parametrize("name", W_NAMES)
def test_c1_degeneracy(lab, name):
    e = lab[name]
    gaps = e["gaps"][:6]
    gap = max(gaps)
    ok = len(gaps) == 6 and gap <= 1e-10 and e["seconds"] <= 10.0
    report(1, f"pairing {name}", ok,
           f"lowest 6 nonzero levels pair with max gap {gap:.3e} (tol 1e-10), "
           f"solve time {e['seconds']:.2f}s (limit 10s)")


@pytest.mark.parametrize("name", W_NAMES)
def test_c1_zero_mode(lab, name):
    e = lab[name]
    system = e["system"]
    psi0 = sq.zero_mode(system)
    resid = float(np.linalg.norm(system.H_minus @ psi0.amplitudes)
                  / np.linalg.norm(psi0.amplitudes))
    bound = 1e-12 * sq.operator_norm(system.H_minus)
    zm = e["zero_mode_energy"]
    report(1, f"zero mode {name}", abs(zm) <= sq.EPS0 and resid <= bound,
           f"|E0| = {abs(zm):.3e} (bound {sq.EPS0}); kernel-recursion residual "
           f"{resid:.3e} vs bound {bound:.3e}")


# criterion 2: continuum harmonic ladder within absolute tolerance

@pytest.fixture(scope="module")
def harmonic_ladders():
    out = {}
    for n_points in (2001, 4001):
        grid = sq.make_grid(-10.0, 10.0, n_points)
        system = sq.build_susy_system(sq.get_superpotential("harmonic"), grid)
        minus = sq.solve_spectrum(system.H_minus, 6, grid)
        out[n_points] = max(abs(m.energy - n) for n, m in enumerate(minus))
    return out


@pytest.mark.parametrize("n_points,tol", ((2001, 2e-4), (4001, 5e-5)))
def test_c2_continuum(harmonic_ladders, n_points, tol):
    dev = harmonic_ladders[n_points]
    dx = 20.0 / (n_points - 1)
    report(2, f"harmonic ladder at {n_points} points", dev <= tol,
           f"max |E_n - n| over n = 0..5 is {dev:.3e} (tol {tol:.0e}); the "
           f"discrete ladder law E_n = n - n^2 dx^2/4 already costs "
           f"{25.0 * dx * dx / 4.0:.3e} at n = 5")


def test_c2_second_order_ratio(harmonic_ladders):
    ratio = harmonic_ladders[2001] / harmonic_ladders[4001]
    report(2, "second-order convergence", 3.5 <= ratio <= 4.5,
           f"halving dx shrinks the worst deviation by {ratio:.3f} (expect ~4)")


# criterion 3: intertwining maps between paired eigenstates

@pytest.mark.parametrize("name", W_NAMES)
def test_c3_intertwining(lab, name):
    e = lab[name]
    system = e["system"]
    dx = system.grid.dx
    worst_map = 0.0
    worst_energy = 0.0
    for pp, mm in zip(e["plus_nz"][:6], e["minus_nz"][:6]):
        mapped = sq.align_phase(sq.intertwine_down(system, pp), mm.state)
        worst_map = max(worst_map, math.sqrt(dx) * float(
            np.linalg.norm(mapped.amplitudes - mm.state.amplitudes)))
        worst_energy = max(worst_energy, abs(
            dx * float(np.linalg.norm(system.B @ mm.state.amplitudes)) ** 2
            - mm.energy))
    ok = worst_map <= 1e-8 and worst_energy <= 1e-8
    report(3, f"intertwining {name}", ok,
           f"max ||B+ psi+/sqrt(E) - psi-|| = {worst_map:.3e}, "
           f"max | ||B psi-||^2 - E | = {worst_energy:.3e} (tol 1e-8)")


# criterion 4: the three concurrence routes agree across the sweep

@pytest.mark.parametrize("name", W_NAMES)
def test_c4_concurrence_agreement(lab, name):
    e = lab[name]
    worst = 0.0
    for pp, mm in zip(e["plus_nz"][:3], e["minus_nz"][:3]):
        ov = sq.inner_product(pp.state, mm.state)
        for c1, c2 in sweep_grid():
            state = sq.build_energy_eigenstate(c1, c2, pp.state, mm.state)
            c_spin = sq.concurrence_from_spin(state)
            worst = max(worst,
                        abs(c_spin - sq.concurrence_overlap(c1, c2, ov)),
                        abs(c_spin - sq.concurrence_svd(state)))
    report(4, f"concurrence routes {name}", worst <= 1e-12,
           f"21 x 8 sweep over 3 levels: max spin/overlap/SVD disagreement "
           f"{worst:.3e} (tol 1e-12)")


# criterion 5: odd superpotentials reach C = 1, broken parity provably cannot

@pytest.mark.parametrize("name", ("harmonic", "cubic"))
def test_c5_odd_maximality(lab, name):
    e = lab[name]
    system = e["system"]
    worst_ov = 0.0
    worst_cdev = 0.0
    for pp, mm in zip(e["plus_nz"][:3], e["minus_nz"][:3]):
        worst_ov = max(worst_ov, abs(sq.inner_product(pp.state, mm.state)))
        for *_, st in sq.supercharge_eigenstates(
                system, pp.energy, pp.state, sq.intertwine_down(system, pp)):
            worst_cdev = max(worst_cdev, abs(1.0 - sq.concurrence_from_spin(st)))
    ok = worst_ov <= 1e-10 and worst_cdev <= 1e-10
    report(5, f"odd superpotential {name}", ok,
           f"max partner overlap {worst_ov:.3e} (tol 1e-10), "
           f"max |1 - C| over supercharge eigenstates {worst_cdev:.3e} (tol 1e-10)")


def test_c5_parity_broken_witness(lab):
    e = lab["shifted_cubic"]
    pairs = list(zip(e["plus_nz"][:3], e["minus_nz"][:3]))
    overlaps = [abs(sq.inner_product(pp.state, mm.state)) for pp, mm in pairs]
    idx = int(np.argmax(overlaps))
    pp, mm = pairs[idx]
    c_max = 0.0
    for c1, c2 in sweep_grid():
        state = sq.build_energy_eigenstate(c1, c2, pp.state, mm.state)
        c_max = max(c_max, sq.concurrence_from_spin(state))
    ok = overlaps[idx] >= 1e-3 and c_max < 1.0 - 1e-6
    report(5, "broken-parity witness shifted_cubic", ok,
           f"level {idx + 1} overlap {overlaps[idx]:.4f} (>= 1e-3) caps the "
           f"sweep at C_max = {c_max:.6f} (< 1 - 1e-6)")


# criterion 6: supercharge eigen-relations and the squared-operator identity

@pytest.mark.parametrize("name", W_NAMES)
def test_c6_supercharge_eigenstates(lab, name):
    e = lab[name]
    system = e["system"]
    worst = 0.0
    for pp in e["plus_nz"][:3]:  # one residual a level, which its four states share
        worst = max(worst, sq.supercharge_residuals(system, pp.energy, sq.supercharge_state(
            pp.state, sq.intertwine_down(system, pp))))
    report(6, f"supercharge eigenstates {name}", worst <= 1e-8,
           f"max ||Q psi - (+-sqrt(E)) psi|| over 3 levels x 4 states = "
           f"{worst:.3e} (tol 1e-8)")


@pytest.mark.parametrize("name", W_NAMES)
def test_c6_matrix_identities(name, unfused_product, build_supercharges,
                              build_susy_hamiltonian):
    # dense oracle of the identity the verify command checks blockwise; 201
    # points keeps the 2n x 2n products small, the identity is structural
    grid = sq.make_grid(-10.0, 10.0, 201)
    system = sq.build_susy_system(sq.get_superpotential(name), grid)
    q1, q2 = build_supercharges(system)
    h = build_susy_hamiltonian(system)
    dev1 = float(np.max(np.abs(unfused_product(q1, q1) - h)))
    dev2 = float(np.max(np.abs(unfused_product(q2, q2) - h)))
    report(6, f"matrix squares {name}", dev1 <= 1e-13 and dev2 <= 1e-13,
           f"||Q1^2 - H||_max = {dev1:.3e}, ||Q2^2 - H||_max = {dev2:.3e} "
           f"(tol 1e-13)")


# criterion 7: Jaynes-Cummings numeric diagonalization vs the closed-form levels

def test_c7_jaynes_cummings():
    t0 = time.perf_counter()
    jc = sq.build_jc(1.0, 0.1, 64)
    match, _, failures = checks.jc(jc)
    seconds = time.perf_counter() - t0
    c_dev = abs(match.min_excited_concurrence - 1.0)
    ground_c = match.concurrence[match.n == 0].item()
    ok = (match.max_gap <= 1e-10
          and match.min_fidelity >= 1.0 - 1e-10
          and c_dev <= 1e-10
          and ground_c <= 1e-10
          and not failures
          and seconds <= 5.0)
    report(7, "Jaynes-Cummings omega=1 gamma=0.1 n_max=64", ok,
           f"max gap {match.max_gap:.3e}, min fidelity deficit "
           f"{1.0 - match.min_fidelity:.3e}, excited |1 - C| {c_dev:.3e}, "
           f"ground C {ground_c:.3e} (tol 1e-10 each), "
           f"runtime {seconds:.2f}s (limit 5s)")


# criterion 8: algebra identities at 1e-12, lab operators and guarded JC

def test_c8_algebra_identities(build_supercharges, witten_parity):
    worst_anti_qq = 0.0
    worst_anti_pq = 0.0
    grid = sq.make_grid(-10.0, 10.0, 201)
    parity = witten_parity(grid.n_points)
    for name in W_NAMES:
        system = sq.build_susy_system(sq.get_superpotential(name), grid)
        q1, q2 = build_supercharges(system)
        worst_anti_qq = max(worst_anti_qq, float(
            np.max(np.abs(np.dot(q1, q2) + np.dot(q2, q1)))))
        worst_anti_pq = max(worst_anti_pq, float(
            np.max(np.abs(np.dot(parity, q1) + np.dot(q1, parity)))))
    alg = sq.verify_susy_algebra(sq.build_jc(1.0, 0.1, 64))
    ok = (worst_anti_qq <= 1e-12 and worst_anti_pq <= 1e-12
          and alg.anti_sz_q <= 1e-12 and alg.comm_q_h0_guarded <= 1e-12)
    report(8, "algebra identities", ok,
           f"max |{{Q1,Q2}}| = {worst_anti_qq:.3e} over 4 superpotentials, "
           f"max |{{parity,Q1}}| = {worst_anti_pq:.3e}, JC |{{sz,Q}}| = "
           f"{alg.anti_sz_q:.3e}, guarded |[Q,H]| = {alg.comm_q_h0_guarded:.3e} "
           f"(tol 1e-12)")


# criterion 9: rerunning every bundled config reproduces its bytes

def test_c9_cli_determinism(tmp_path):
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs, f"no bundled configs found under {CONFIG_DIR}"
    details = []
    mismatched = []
    for cfg in configs:
        dirs = []
        for run in ("a", "b"):
            outdir = tmp_path / cfg.stem / run
            rc = cli.main(["--config", str(cfg), "--out", str(outdir)])
            assert rc == 0, f"{cfg.name} run {run} exited {rc}"
            dirs.append(outdir)
        names_a = sorted(p.name for p in dirs[0].iterdir())
        names_b = sorted(p.name for p in dirs[1].iterdir())
        same = names_a == names_b and all(
            (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
            for f in names_a)
        details.append(f"{cfg.stem}({len(names_a)} files)")
        if not same:
            mismatched.append(cfg.stem)
    report(9, "CLI determinism", not mismatched,
           "byte-identical reruns: " + ", ".join(details)
           + ("" if not mismatched else f"; DIFFERS: {', '.join(mismatched)}"))


# criterion 10: every bundled W against its continuum levels (Chebyshev
# reference); H+ levels 0..5, the partners of report levels 1..6

CONTINUUM_BOXES = {"harmonic": 10.0, "cubic": 5.0, "shifted_cubic": 5.0, "tanh": 10.0}


@pytest.fixture(scope="module")
def continuum_errors(continuum_levels):
    """max |E+_n - E_n| over n = 1..6 at 2001, 4001 and 8001 points, per W.

    H+'s rows live on the cells, so its Dirichlet walls sit half a cell
    outside the box. tanh's states reach the walls, so its reference puts
    them there, at +-(L + dx/2); the others vanish well inside the box.
    """
    out = {}
    for name, half in CONTINUUM_BOXES.items():
        out[name] = []
        for n_points in (2001, 4001, 8001):
            grid = sq.make_grid(-half, half, n_points)
            system = sq.build_susy_system(sq.get_superpotential(name), grid)
            wall = half + grid.dx / 2.0 if name == "tanh" else half
            plus = sq.solve_plus(system.H_plus, 6).values
            out[name].append(float(np.max(np.abs(plus - continuum_levels(name, -wall, wall)))))
    return out


def continuum_line(errors):
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    return orders, ("max |E+_n - E_n| over n = 1..6 at 2001/4001/8001 points "
                    + "/".join(f"{e:.3e}" for e in errors)
                    + ", observed order " + ", ".join(f"{p:.2f}" for p in orders))


@pytest.mark.parametrize("name", W_NAMES)
def test_c10_reference_uses_the_bundled_w(continuum_w, name):
    W, dW = continuum_w[name]
    x = np.linspace(-5.0, 5.0, 101)
    assert np.allclose(W(x), sq.get_superpotential(name)(x), rtol=1e-15, atol=0.0)
    h = 1e-5  # W' of the closed form against a central difference of the bundled W
    W_pkg = sq.get_superpotential(name)
    assert np.allclose(dW(x), (W_pkg(x + h) - W_pkg(x - h)) / (2 * h), rtol=1e-6, atol=1e-8)


def test_c10_reference_reproduces_the_harmonic_ladder(continuum_levels):
    dev = float(np.max(np.abs(continuum_levels("harmonic", -10.0, 10.0) - np.arange(1, 7))))
    report(10, "continuum reference, harmonic ladder", dev <= 1e-11,
           f"max |E_n - n| over n = 1..6 is {dev:.3e} (tol 1e-11)")


@pytest.mark.parametrize("name", ("harmonic", "cubic", "tanh"))
def test_c10_second_order(continuum_errors, name):
    orders, line = continuum_line(continuum_errors[name])
    report(10, f"continuum convergence {name}", min(orders) >= 1.9, line + " (at least 1.9)")


def test_c10_shifted_cubic_first_order(continuum_errors):
    # W = x^3 + 1/2 has no parity, so the O(dx) term of the one-sided B
    # does not cancel: a pinned first order, which a second-order scheme
    # would move above this window
    orders, line = continuum_line(continuum_errors["shifted_cubic"])
    report(10, "continuum convergence shifted_cubic", all(0.9 <= p <= 1.2 for p in orders),
           line + " (pinned between 0.9 and 1.2)")
