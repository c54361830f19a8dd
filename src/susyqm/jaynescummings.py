"""Resonant Jaynes-Cummings model on a truncated Fock space.

H = omega (b+ b + sz/2) + gamma (b s+ + b+ s-) conserves the excitation
number N = b+ b + (sz + 1)/2, so in the excitation order |0 down>, |0 up>,
|1 down>, |1 up>, ... every operator of the model is symmetric tridiagonal and
is stored as its bands (`operators.Tridiagonal`), built in O(n_max). The
supercharge Q = b s+ + b+ s- is `operators.golub_kahan` of the Fock
annihilator b, the upper bidiagonal with an empty diagonal and sqrt(1..n_max)
above it, whose last row is empty like that of the grid B: the same
[[0, b], [b+, 0]] as the grid's Q1, with sqrt(m) between |m-1 up> and
|m down>. It squares to N away from the cutoff, which hides an N=2 SUSY
structure in the model: H = omega Q^2 + gamma Q - omega/2 up to a single
corrupted entry at the truncation corner. The algebra report reads the
products of that structure from `operators.supercharge_products`, as the
grid `verify` does. H is |0 down> plus one 2x2 block per excitation
manifold, the SUSY doublet (|n-1 up>, |n down>), plus |n_max up>; the
numeric match reads every doublet from its block's eigen-angle in array
passes and reports its levels as read-only columns, one row per level.
`FockSpace.excitation_order` maps between this order and the (up, down)
layout of `SpinorState`. Levels are only certified for n <= n_max - 2.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checks import Check
from .operators import (
    Bidiagonal,
    Tridiagonal,
    band_commutator,
    band_max_abs,
    band_rows,
    golub_kahan,
    supercharge_products,
)

__all__ = [
    "FockSpace",
    "JCSystem",
    "build_jc",
    "analytic_ground_energy",
    "analytic_spectrum",
    "verify_susy_algebra",
    "numeric_vs_analytic",
    "JCAlgebraReport",
    "JCMatchReport",
]

# a level matches when its gap is at most GAP_TOL and its fidelity deficit
# 1 - F at most FIDELITY_TOL
GAP_TOL = 1e-10
FIDELITY_TOL = 1e-10


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

    def excitation_order(self) -> np.ndarray:
        """Index into the (up, down) layout of each excitation-order position.

        Position 2m holds |m down> (layout index d + m), position 2m + 1
        holds |m up> (layout index m). A layout vector v reads as v[order] in
        excitation order; an excitation-order vector w scatters back with
        v[order] = w.
        """
        d = self.dimension
        fock = np.arange(d)
        return np.stack([d + fock, fock], axis=1).ravel()

    def photons(self) -> np.ndarray:
        """Photon number m of each excitation-order position."""
        return np.arange(2 * self.dimension) // 2

    def spins(self) -> np.ndarray:
        """sz of each excitation-order position: -1 down, +1 up."""
        return np.tile([-1.0, 1.0], self.dimension)


@dataclass(frozen=True)
class JCSystem:
    """Q, H0, Hint and H as Tridiagonal bands in the excitation order."""

    fock: FockSpace
    omega: float
    gamma: float
    Q: Tridiagonal
    H0: Tridiagonal
    Hint: Tridiagonal
    H: Tridiagonal


def build_jc(omega: float, gamma: float, n_max: int) -> JCSystem:
    """Q, H0, Hint and H on the 2(n_max+1)-dimensional space, in O(n_max).

    Raises ValueError for a nonpositive omega, a negative gamma, n_max < 4,
    or couplings so large that 2 (n_max + 1) times a band entry of H
    overflows: the algebra check multiplies H's bands by the excitation
    number, up to n_max + 1, and by sqrt(n_max) Q, and takes differences.
    """
    omega = float(omega)
    gamma = float(gamma)
    if not (np.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive, got {omega}")
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    fock = FockSpace(int(n_max))
    m = fock.photons()
    b = Bidiagonal(np.zeros(fock.dimension), np.sqrt(np.arange(1.0, fock.dimension)))
    Q = golub_kahan(b)  # |m-1 up> <-> |m down>
    zeros = np.zeros(m.size)
    with np.errstate(over="ignore"):  # overflow is rejected just below
        H0 = Tridiagonal(omega * (m + 0.5 * fock.spins()), zeros[1:])
        Hint = Tridiagonal(zeros, gamma * Q.off)
        H = Tridiagonal(H0.diag + Hint.diag, H0.off + Hint.off)
    largest = float(max(np.abs(H.diag).max(), np.abs(H.off).max()))
    if not np.isfinite(2.0 * (fock.n_max + 1) * largest):  # Python floats: no warning
        raise ValueError(
            f"omega = {omega!r}, gamma = {gamma!r} are too large for n_max = "
            f"{fock.n_max}: 2 (n_max + 1) times a band of H overflows"
        )
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


def _diagonal(values) -> np.ndarray:
    out = np.zeros((3, np.size(values)))
    out[1] = values
    return out


def _wide(A: np.ndarray) -> np.ndarray:
    """Three rows padded to the five rows of a product: row 2 + o holds (j, j + o)."""
    out = np.zeros((5, A.shape[1]))
    out[1:4] = A
    return out


def _entries(keep: np.ndarray) -> np.ndarray:
    """Mask of the five rows' entries (j, j + o) with both j and j + o kept."""
    n = keep.size
    out = np.zeros((5, n), dtype=bool)
    for o in range(-2, 3):
        lo, hi = max(0, -o), n - max(0, o)
        out[2 + o, lo:hi] = keep[lo:hi] & keep[lo + o:hi + o]
    return out


def verify_susy_algebra(sys: JCSystem) -> JCAlgebraReport:
    """Every identity read entry by entry from the bands, in O(n_max).

    Every operator involved is tridiagonal in the excitation order and is
    read as three rows of entries; each product is pentadiagonal and is held
    as five rows, by the band-product kernel of `operators`. No
    2(n_max+1)-square array is formed. Q2 = i sz Q1 is i R, and the four
    products of the N=2 algebra, Q1^2, R^2 = -Q2^2, {Q1, R} = -i {Q1, Q2}
    and {sz, Q1}, come from `supercharge_products`, which the grid `verify`
    shares. `dev` holds one identity's deviation at a time; Q1^2 is kept for
    the two Hamiltonian identities.
    """
    fock = sys.fock
    omega, gamma = sys.omega, sys.gamma
    m = fock.photons()
    guarded = _entries(m <= fock.guard_n_max)

    products = supercharge_products(sys.Q)
    q1_sq = next(products)
    dev = q1_sq + next(products)  # Q1^2 - Q2^2
    q1_sq_minus_q2_sq = band_max_abs(dev, guarded)
    anti_q1_q2 = band_max_abs(next(products), guarded)  # {Q1, Q2} / i
    anti_sz_q = band_max_abs(next(products))
    products.close()  # and with it the rows of Q1, R and sz it holds

    Q1 = band_rows(sys.Q)
    H0 = band_rows(sys.H0)
    H = band_rows(sys.H)
    eye = _wide(_diagonal(np.ones(m.size)))
    dev = band_commutator(Q1, H0)
    comm_q_h0_guarded = band_max_abs(dev, guarded)
    comm_q_h0_full = band_max_abs(dev)
    dev = H - (H0 + band_rows(sys.Hint))
    h_equals_h0_plus_hint = band_max_abs(dev)
    # H0 = omega (Q^2 - 1/2) holds on every row but the top Fock level
    dev = _wide(H0) - omega * (q1_sq - 0.5 * eye)
    h0_identity_interior = band_max_abs(dev, _entries(m <= fock.n_max - 1))
    dev = _wide(H) - (omega * q1_sq + gamma * _wide(Q1) - (omega / 2.0) * eye)
    corner = m.size - 1  # |n_max up>, the last excitation-order position
    corner_dev = abs(dev[2, corner] - omega * (fock.n_max + 1))
    dev[2, corner] = 0.0
    h_q2_identity_offcorner = band_max_abs(dev)
    # [b+ b + (sz + 1)/2, H]
    dev = band_commutator(_diagonal(m + (fock.spins() + 1.0) / 2.0), H)
    comm_n_exc_h = band_max_abs(dev)

    return JCAlgebraReport(
        q1_sq_minus_q2_sq=q1_sq_minus_q2_sq,
        anti_q1_q2=anti_q1_q2,
        comm_q_h0_guarded=comm_q_h0_guarded,
        comm_q_h0_full=comm_q_h0_full,
        anti_sz_q=anti_sz_q,
        h_equals_h0_plus_hint=h_equals_h0_plus_hint,
        h0_identity_interior=h0_identity_interior,
        h_q2_identity_offcorner=h_q2_identity_offcorner,
        truncation_corner_deviation=float(corner_dev),
        comm_n_exc_h=comm_n_exc_h,
    )


@dataclass(frozen=True)
class JCMatchReport:
    """The level match as read-only columns, one row per level.

    Row 0 is the ground state; then, for n = 1 .. guard_n_max, the doublet n:
    rows (n, -1) and (n, +1), or one row (n, 0) for gamma = 0, where the
    doublet is one degenerate eigenspace and its concurrence, which needs a
    single eigenvector, is NaN. `failures` holds a `checks.Check` for each
    failed value, row by row, a row's gap (against GAP_TOL) before its
    fidelity deficit 1 - F (against FIDELITY_TOL).
    """

    n: np.ndarray
    branch: np.ndarray  # +1 / -1, or 0 for the ground state and gamma = 0 subspaces
    E_analytic: np.ndarray
    E_numeric: np.ndarray
    gap: np.ndarray
    fidelity: np.ndarray
    concurrence: np.ndarray
    max_gap: float
    min_fidelity: float
    min_excited_concurrence: Optional[float]
    degenerate: bool
    label_residual_implemented: float
    label_residual_alternative: float
    failures: tuple

    @property
    def all_matched(self) -> bool:
        return not self.failures


def _column(ground, levels) -> np.ndarray:
    """The ground row's cell followed by the doublet rows' cells, read-only."""
    col = np.concatenate([[ground], levels])
    col.flags.writeable = False
    return col


def _label_evidence(sys: JCSystem):
    """Q eigen-relation residuals for the two candidate photon labelings.

    The implemented pairing puts photon number n-1 in the upper component;
    the alternative n+1 labeling is kept as recorded evidence that it fails.
    """
    d = sys.fock.dimension
    order = sys.fock.excitation_order()
    worst_impl = 0.0
    best_alt = np.inf
    for n in (1, 2, 3):
        q = np.sqrt(n)
        for up_label in (n - 1, n + 1):
            psi = np.zeros(2 * d)  # (up, down) layout
            psi[up_label] = 1.0 / np.sqrt(2.0)
            psi[d + n] = 1.0 / np.sqrt(2.0)
            psi = psi[order]
            resid = float(np.linalg.norm(sys.Q @ psi - q * psi))
            if up_label == n - 1:
                worst_impl = max(worst_impl, resid)
            else:
                best_alt = min(best_alt, resid)
    return worst_impl, best_alt


def numeric_vs_analytic(sys: JCSystem) -> JCMatchReport:
    """Diagonalize H and match against the analytic levels and states.

    In the excitation order H is |0 down> plus one 2x2 block per doublet n,
    on (|n-1 up>, |n down>), plus |n_max up>, so the whole spectrum of the
    truncated H is known in closed form. Only the eigenvalues are computed,
    by the same bisection as the partner Hamiltonians; a stable sort of the
    closed-form levels, paired with the ascending numeric ones, is the
    matching with the smallest largest gap, and exact level crossings
    between doublets do no harm. Each eigenvector is the closed-form
    eigenvector of its 2x2 block [[a, c], [c, b]] on the block's branch,
    read from its eigen-angle: with s = c / hypot((a - b)/2, c) its
    fidelity against (|n-1 up> + branch |n down>)/sqrt(2) is (1 + s)/2 and
    its concurrence |s|, so a resonant block (a = b) reads 1 for both,
    exactly. A block with c = a - b = 0 has no single eigenvector: its s,
    fidelity and concurrence are NaN, and the NaN fidelity fails. The
    ground row is the singleton |0 down>, an exact product state: fidelity 1
    and concurrence 0 hold by structure. For gamma = 0 the excited levels
    are doubly degenerate and each block is one eigenspace that
    equals the analytic span, so its fidelity is exactly 1; the row has
    branch 0, the mean of its two numeric eigenvalues, the larger gap and
    a NaN concurrence.

    Raises ValueError if H couples |m down> to |m up> for some m, which
    breaks the block structure (JCSystem can be built by hand).
    """
    H = sys.H
    if np.any(H.off[0::2] != 0.0):
        raise ValueError(
            "H couples |m down> to |m up>: not block diagonal in the excitation order"
        )
    omega, gamma = sys.omega, sys.gamma
    n_max, g = sys.fock.n_max, sys.fock.guard_n_max
    evals = H.eigh(0, 2 * n_max + 1).values

    # closed-form levels in excitation order: ground, (minus, plus) of each
    # doublet n, top singleton; E_num[k] is the numeric match of level k
    n = np.arange(1, n_max + 1)
    base = omega * n - omega / 2.0
    split = gamma * np.sqrt(n)
    analytic = np.concatenate(
        [[-omega / 2.0], np.stack([base - split, base + split], axis=1).ravel(),
         [omega * n_max + omega / 2.0]]
    )
    E_num = np.empty_like(evals)
    E_num[np.argsort(analytic, kind="stable")] = evals

    degenerate = gamma == 0.0
    if not degenerate:
        k = np.arange(1, 2 * g + 1)  # level k sits in the block at 2n - 1, 2n
        first = k - 1 + k % 2
        a, b, c = H.diag[first], H.diag[first + 1], H.off[first]
        n_exc = (k + 1) // 2
        branch = np.where(k % 2, -1, 1)
        # the block's eigenvectors are (cos t, sin t) on the upper branch and
        # (-sin t, cos t) on the lower, with sin 2t = s: both have fidelity
        # (1 + s)/2 against (|n-1 up> + branch |n down>)/sqrt(2) and
        # concurrence 2 |cos t sin t| = |s|. s comes from the bands alone,
        # not from the numeric E, whose rounding of eps |E| would swamp a
        # splitting 2 gamma sqrt(n) of that size. At resonance (a = b)
        # hypot(0, c) = |c|, so s = 1 exactly, for a subnormal c too
        s = c / np.hypot((a - b) / 2.0, c)
        E_a, E_n = analytic[k], E_num[k]
        gap = np.abs(E_n - E_a)
        fid = (1.0 + s) / 2.0
        conc = np.abs(s)
    else:
        n_exc = n[:g]
        branch = np.zeros(g, dtype=int)
        E_a = base[:g]
        pairs = E_num[1:2 * g + 1].reshape(g, 2)
        E_n = pairs.mean(axis=1)
        gap = np.abs(pairs - E_a[:, None]).max(axis=1)
        fid = np.ones(g)
        conc = np.full(g, np.nan)

    # the ground block is the singleton |0 down>: its eigenvector is exact,
    # a product state with fidelity 1 and concurrence 0
    e0 = analytic_ground_energy(sys)
    n_col, branch, E_a, E_n, gap, fid, conc_col = (_column(*cells) for cells in (
        (0, n_exc), (0, branch), (e0, E_a), (E_num[0], E_n),
        (abs(E_num[0] - e0), gap), (1.0, fid), (0.0, conc),
    ))
    # row by row, a row's gap before its fidelity deficit; a value passes
    # when it is at most its bound, so the NaN fidelity of a block with
    # neither coupling nor splitting fails
    values, bounds = np.stack([gap, 1.0 - fid], axis=1), (GAP_TOL, FIDELITY_TOL)
    row, kind = np.nonzero(~(values <= bounds))
    failures = tuple(
        Check(f"{('gap', 'fidelity_deficit')[k]}[n={n_col[r]},branch={branch[r]}]",
              values[r, k], bounds[k]) for r, k in zip(row.tolist(), kind.tolist()))

    impl_res, alt_res = _label_evidence(sys)
    # NaN cells hold no value and are skipped, as `failures` names them
    return JCMatchReport(
        n_col, branch, E_a, E_n, gap, fid, conc_col,
        max_gap=float(np.nanmax(gap)),
        min_fidelity=float(np.nanmin(fid)),
        min_excited_concurrence=None if degenerate else float(np.nanmin(conc)),
        degenerate=degenerate,
        label_residual_implemented=float(impl_res),
        label_residual_alternative=float(alt_res),
        failures=failures,
    )
