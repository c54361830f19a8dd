"""Resonant Jaynes-Cummings model on a truncated Fock space.

H = omega (b+ b + sz/2) + gamma (b s+ + b+ s-), assembled with the spin index
outer and the Fock index inner. The supercharge Q = b s+ + b+ s- squares to
b+ b + (sz + 1)/2 away from the cutoff, which hides an N=2 SUSY structure in
the model: H = omega Q^2 + gamma Q - omega/2 up to a single corrupted entry at
the truncation corner. Levels are only certified for n <= n_max - 2.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .entanglement import (
    SpinorState,
    concurrence_from_spin,
    concurrence_svd,
)
from .spectral import _bisect

__all__ = [
    "FockSpace",
    "JCSystem",
    "build_jc",
    "analytic_ground_energy",
    "analytic_spectrum",
    "analytic_eigenstate",
    "verify_susy_algebra",
    "numeric_vs_analytic",
    "JCAlgebraReport",
    "JCLevelRow",
    "JCMatchReport",
]


@dataclass(frozen=True)
class FockSpace:
    """Photon ladder truncated at n_max; top two levels are not certified."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 4:
            raise ValueError(f"n_max must be >= 4, got {self.n_max}")

    @property
    def dimension(self) -> int:
        return self.n_max + 1

    @property
    def guard_n_max(self) -> int:
        return self.n_max - 2


@dataclass(frozen=True)
class JCSystem:
    fock: FockSpace
    omega: float
    gamma: float
    Q: np.ndarray
    H0: np.ndarray
    Hint: np.ndarray
    H: np.ndarray


def _annihilation(dim: int) -> np.ndarray:
    b = np.zeros((dim, dim))
    m = np.arange(1, dim)
    b[m - 1, m] = np.sqrt(m)
    return b


def build_jc(omega: float, gamma: float, n_max: int) -> JCSystem:
    """Assemble Q, H0, Hint and H on the 2(n_max+1)-dimensional space."""
    omega = float(omega)
    gamma = float(gamma)
    if not (np.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive, got {omega}")
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    fock = FockSpace(int(n_max))
    d = fock.dimension

    b = _annihilation(d)
    bdag = b.T
    number = np.dot(bdag, b)
    eye_f = np.eye(d)
    eye_s = np.eye(2)
    sz = np.diag([1.0, -1.0])
    s_plus = np.array([[0.0, 1.0], [0.0, 0.0]])
    s_minus = s_plus.T

    Q = np.kron(s_plus, b) + np.kron(s_minus, bdag)
    H0 = omega * (np.kron(eye_s, number) + 0.5 * np.kron(sz, eye_f))
    Hint = gamma * Q
    H = H0 + Hint
    for M in (Q, H0, Hint, H):
        M.flags.writeable = False
    return JCSystem(fock, omega, gamma, Q, H0, Hint, H)


def analytic_ground_energy(sys: JCSystem) -> float:
    return -sys.omega / 2.0


def _require_guarded(sys: JCSystem, n: int):
    if not 1 <= n <= sys.fock.guard_n_max:
        raise ValueError(
            f"n = {n} outside the certified band 1..{sys.fock.guard_n_max} "
            f"(truncation guard of 2 below n_max = {sys.fock.n_max})"
        )


def analytic_spectrum(sys: JCSystem, n: int):
    """(E_plus, E_minus) = omega n +- gamma sqrt(n) - omega/2 for guarded n."""
    _require_guarded(sys, n)
    split = sys.gamma * np.sqrt(n)
    base = sys.omega * n - sys.omega / 2.0
    return (base + split, base - split)


def analytic_eigenstate(sys: JCSystem, n: int, branch: int) -> SpinorState:
    """(|n-1>|up> + branch |n>|down>)/sqrt(2); n = 0 gives the ground |0>|down>.

    The photon label in the upper component is n-1: the supercharge maps
    |n>|down> to sqrt(n)|n-1>|up>, so only that pairing solves Q psi = q psi.
    """
    d = sys.fock.dimension
    up = np.zeros(d)
    down = np.zeros(d)
    if n == 0:
        down[0] = 1.0
        return SpinorState(up, down, 1.0)
    _require_guarded(sys, n)
    if branch not in (+1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch!r}")
    up[n - 1] = 1.0 / np.sqrt(2.0)
    down[n] = branch / np.sqrt(2.0)
    return SpinorState(up, down, 1.0)


@dataclass(frozen=True)
class JCAlgebraReport:
    """Max elementwise deviations of the SUSY algebra identities.

    Guarded values restrict rows and columns to Fock levels within the guard
    band; full values take the whole truncated space. The truncation shows up
    only where expected: the identity H = omega Q^2 + gamma Q - omega/2 fails
    at the single (spin-up, n_max) diagonal entry by exactly omega (n_max + 1),
    recorded here as a sharp check rather than hidden by the guard.
    """

    q1_sq_minus_q2_sq: float
    anti_q1_q2: float
    comm_q_h0_guarded: float
    comm_q_h0_full: float
    anti_sz_q: float
    h_equals_h0_plus_hint: float
    h0_identity_interior: float
    h_q2_identity_offcorner: float
    truncation_corner_deviation: float
    comm_n_exc_h: float

    def max_guarded_deviation(self) -> float:
        return max(
            self.q1_sq_minus_q2_sq,
            self.anti_q1_q2,
            self.comm_q_h0_guarded,
            self.anti_sz_q,
        )


def verify_susy_algebra(sys: JCSystem) -> JCAlgebraReport:
    d = sys.fock.dimension
    sz_full = np.kron(np.diag([1.0, -1.0]), np.eye(d))
    Q1 = sys.Q
    Q2 = 1j * np.dot(sz_full, Q1)

    q1_sq = np.dot(Q1, Q1)
    q2_sq = np.dot(Q2, Q2)
    anti_q1_q2 = np.dot(Q1, Q2) + np.dot(Q2, Q1)
    comm_q_h0 = np.dot(Q1, sys.H0) - np.dot(sys.H0, Q1)
    anti_sz_q = np.dot(sz_full, Q1) + np.dot(Q1, sz_full)

    guard = np.arange(d) <= sys.fock.guard_n_max
    gidx = np.concatenate([np.nonzero(guard)[0], d + np.nonzero(guard)[0]])

    # interior of the H0 = omega(Q^2 - 1/2) identity: everything but the top row
    interior = np.arange(d) <= sys.fock.n_max - 1
    iidx = np.concatenate([np.nonzero(interior)[0], d + np.nonzero(interior)[0]])
    h0_id = sys.H0 - sys.omega * (q1_sq - 0.5 * np.eye(2 * d))

    hq = sys.H - (sys.omega * q1_sq + sys.gamma * Q1 - (sys.omega / 2.0) * np.eye(2 * d))
    corner = sys.fock.n_max  # spin-up block, top Fock state
    expected_corner = sys.omega * (sys.fock.n_max + 1)
    corner_dev = abs(hq[corner, corner] - expected_corner)
    hq_masked = hq.copy()
    hq_masked[corner, corner] = 0.0

    n_exc = np.kron(np.eye(2), np.dot(_annihilation(d).T, _annihilation(d)))
    n_exc += 0.5 * (np.kron(np.diag([1.0, -1.0]), np.eye(d)) + np.eye(2 * d))
    comm_n = np.dot(n_exc, sys.H) - np.dot(sys.H, n_exc)

    def sub(M):
        return float(np.max(np.abs(M[np.ix_(gidx, gidx)])))

    return JCAlgebraReport(
        q1_sq_minus_q2_sq=sub(q1_sq - q2_sq),
        anti_q1_q2=sub(anti_q1_q2),
        comm_q_h0_guarded=sub(comm_q_h0),
        comm_q_h0_full=float(np.max(np.abs(comm_q_h0))),
        anti_sz_q=float(np.max(np.abs(anti_sz_q))),
        h_equals_h0_plus_hint=float(np.max(np.abs(sys.H - (sys.H0 + sys.Hint)))),
        h0_identity_interior=float(np.max(np.abs(h0_id[np.ix_(iidx, iidx)]))),
        h_q2_identity_offcorner=float(np.max(np.abs(hq_masked))),
        truncation_corner_deviation=float(corner_dev),
        comm_n_exc_h=float(np.max(np.abs(comm_n))),
    )


@dataclass(frozen=True)
class JCLevelRow:
    n: int
    branch: int  # +1 / -1, or 0 for the ground state and gamma = 0 subspaces
    E_analytic: float
    E_numeric: float
    gap: float
    fidelity: float
    concurrence: Optional[float]


@dataclass(frozen=True)
class JCMatchReport:
    rows: tuple
    max_gap: float
    min_fidelity: float
    min_excited_concurrence: Optional[float]
    ground_concurrence_svd: float
    ground_concurrence_spin: float
    degenerate: bool
    label_residual_implemented: float
    label_residual_alternative: float
    failures: tuple

    @property
    def all_matched(self) -> bool:
        return not self.failures


def _label_evidence(sys: JCSystem):
    """Q eigen-relation residuals for the two candidate photon labelings.

    The implemented pairing puts photon number n-1 in the upper component;
    the alternative n+1 labeling is kept as recorded evidence that it fails.
    """
    d = sys.fock.dimension
    worst_impl = 0.0
    best_alt = np.inf
    for n in (1, 2, 3):
        q = np.sqrt(n)
        psi = np.zeros(2 * d)
        psi[n - 1] = 1.0 / np.sqrt(2.0)
        psi[d + n] = 1.0 / np.sqrt(2.0)
        worst_impl = max(worst_impl, float(np.linalg.norm(np.dot(sys.Q, psi) - q * psi)))
        alt = np.zeros(2 * d)
        alt[n + 1] = 1.0 / np.sqrt(2.0)
        alt[d + n] = 1.0 / np.sqrt(2.0)
        best_alt = min(best_alt, float(np.linalg.norm(np.dot(sys.Q, alt) - q * alt)))
    return worst_impl, best_alt


def numeric_vs_analytic(
    sys: JCSystem, gap_tol: float = 1e-10, fidelity_tol: float = 1e-10
) -> JCMatchReport:
    """Diagonalize H and match against the analytic levels and states.

    H conserves the excitation number b+ b + (sz + 1)/2, so in the order
    |0 down>, |0 up>, |1 down>, |1 up>, ... it is tridiagonal; its bands are
    read from H in that order and solved by the same bisection as the partner
    Hamiltonians, and the eigenvectors are scattered back to the (up, down)
    layout. For gamma > 0 every analytic level matches the
    nearest unused numeric eigenvalue. For gamma = 0 the excited levels are
    doubly degenerate and the comparison is between eigenspaces (projector
    fidelity), reported per n with branch 0.
    """
    d = sys.fock.dimension
    fock = np.arange(d)
    order = np.stack([d + fock, fock], axis=1).ravel()  # |m down>, |m up>, ...
    evals, vectors = _bisect(sys.H[order, order], sys.H[order[:-1], order[1:]],
                             0, 2 * d - 1)
    evecs = np.empty_like(vectors)
    evecs[order] = vectors
    used = np.zeros(evals.size, dtype=bool)
    failures = []
    rows = []

    def take_nearest(E):
        idx = int(np.argmin(np.where(used, np.inf, np.abs(evals - E))))
        used[idx] = True
        return idx

    # ground state first: exact product state |0>|down>
    e0 = analytic_ground_energy(sys)
    idx = take_nearest(e0)
    vg = evecs[:, idx]
    ground = SpinorState(vg[:d], vg[d:], 1.0)
    g_state = analytic_eigenstate(sys, 0, 0)
    g_fid = abs(np.vdot(np.concatenate([g_state.up, g_state.down]), vg)) ** 2
    ground_c_svd = concurrence_svd(ground)
    ground_c_spin = concurrence_from_spin(ground)
    rows.append(
        JCLevelRow(0, 0, e0, float(evals[idx]), float(abs(evals[idx] - e0)),
                   float(g_fid), ground_c_svd)
    )

    degenerate = sys.gamma == 0.0
    min_exc_c = None
    if not degenerate:
        min_exc_c = np.inf
        for n in range(1, sys.fock.guard_n_max + 1):
            e_plus, e_minus = analytic_spectrum(sys, n)
            for branch, E in ((-1, e_minus), (+1, e_plus)):
                idx = take_nearest(E)
                v = evecs[:, idx]
                ana = analytic_eigenstate(sys, n, branch)
                fid = abs(np.vdot(np.concatenate([ana.up, ana.down]), v)) ** 2
                state = SpinorState(v[:d], v[d:], 1.0)
                c = concurrence_from_spin(state)
                min_exc_c = min(min_exc_c, c)
                rows.append(
                    JCLevelRow(n, branch, float(E), float(evals[idx]),
                               float(abs(evals[idx] - E)), float(fid), float(c))
                )
        min_exc_c = float(min_exc_c)
    else:
        for n in range(1, sys.fock.guard_n_max + 1):
            E = sys.omega * n - sys.omega / 2.0
            sel = []
            for _ in range(2):
                sel.append(take_nearest(E))
            Vn = evecs[:, sel]
            A = np.zeros((2, 2 * d))
            for col, branch in enumerate((+1, -1)):
                ana = analytic_eigenstate(sys, n, branch)
                A[col] = np.concatenate([ana.up, ana.down])
            sv = np.linalg.svd(np.dot(A, Vn), compute_uv=False)
            fid = float(np.min(sv) ** 2)  # worst direction of the subspace
            gap = float(np.max(np.abs(evals[sel] - E)))
            rows.append(JCLevelRow(n, 0, float(E), float(np.mean(evals[sel])),
                                   gap, fid, None))

    max_gap = max(r.gap for r in rows)
    min_fid = min(r.fidelity for r in rows)
    for r in rows:
        if r.gap > gap_tol:
            failures.append((r.n, r.branch, "gap", r.gap))
        if r.fidelity < 1.0 - fidelity_tol:
            failures.append((r.n, r.branch, "fidelity", r.fidelity))

    impl_res, alt_res = _label_evidence(sys)
    return JCMatchReport(
        rows=tuple(rows),
        max_gap=float(max_gap),
        min_fidelity=float(min_fid),
        min_excited_concurrence=min_exc_c,
        ground_concurrence_svd=float(ground_c_svd),
        ground_concurrence_spin=float(ground_c_spin),
        degenerate=degenerate,
        label_residual_implemented=float(impl_res),
        label_residual_alternative=float(alt_res),
        failures=tuple(failures),
    )
