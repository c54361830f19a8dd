"""Spin-mode entanglement of spinor states.

A SpinorState is a two-component amplitude array (spin up, spin down) over a
shared continuous or Fock index, the last axis; any leading axes are a batch
of independent states. The concurrence is computed by three independent
routes: from the spin expectation vector, from the coefficient decomposition
c1 psi+ |up> + c2 psi- |down>, and from the singular values of the 2 x N
coefficient stack. The routes agreeing to 1e-12 is one of the main
verification targets of the package, so no two of them share code; the spin
route's two functions, `spin_expectation` and `concurrence_from_spin`, read
one Gram reduction, `_spin_gram`.

Every route reduces over the last axis and keeps the leading ones, so a
sweep of states is one call. On a single state (1-D components) each route
returns Python floats, computed with the same arithmetic as one row of a
batch: every inner product is a `grid.sum_of_products`, so a row of a batch
and the same state alone agree bit for bit.

`build_energy_eigenstate` writes c1 psi+ |up> + c2 psi- |down> in an
orthonormal basis of span{psi+, psi-}, the columns of Q in the QR
decomposition of the n x 2 stack sqrt(dx) [psi+ psi-]; the coordinates are
the columns of R. Q is an isometry, so every inner product of the
components, and with them <sigma>, the Schmidt coefficients and the spin and
SVD concurrences, is the same in exact arithmetic as on the grid, while a
state costs two amplitudes instead of n. The overlap route reads
<psi+|psi-> from the grid, so the cross term it uses is computed apart from
the reduction.

A level's four supercharge eigenstates (psi+ |up> + p psi- |down>)/sqrt(2),
p = 1, -1, i, -i, differ only by the unit phase p on the down half, so they
share one concurrence and one eigen-relation residual:
`supercharge_concurrences` and `supercharge_residuals` give one value a
level and form no complex state. `supercharge_eigenstates` forms all four,
as the reference the tests read them against.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NormalizationError
from .grid import Wavefunction, sum_of_products, sum_of_squares
from .operators import SusySystem
from .spectral import EPS0

__all__ = [
    "SpinorState",
    "EntanglementReport",
    "build_energy_eigenstate",
    "spin_expectation",
    "schmidt_coefficients",
    "concurrence_from_spin",
    "concurrence_overlap",
    "schmidt_svd_oracle",
    "concurrence_svd",
    "analyze",
    "supercharge_concurrences",
    "supercharge_eigenstates",
    "supercharge_residuals",
]


def _modulus(z):
    """|z| by hypot, as Python's abs() takes it; np.abs on complex can differ by an ulp."""
    return np.hypot(np.real(z), np.imag(z))


def _values(a, dtype=float):
    """A 0-d result as a Python scalar, a batch of results as an array."""
    a = np.asarray(a, dtype=dtype)
    return a.item() if a.ndim == 0 else a


@dataclass(frozen=True)
class SpinorState:
    """Spin-up and spin-down component amplitudes with a quadrature weight.

    The components share one shape; the last axis is the mode index and any
    leading axes index a batch of states. weight = dx for grid-sampled
    components, 1.0 for Fock-space vectors and two-mode reductions.
    """

    up: np.ndarray
    down: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        up = np.asarray(self.up)
        down = np.asarray(self.down)
        if up.shape != down.shape or up.ndim < 1:
            raise ValueError(
                "up and down components must be arrays of equal shape, mode index last"
            )
        up, down = up.copy(), down.copy()
        up.flags.writeable = False
        down.flags.writeable = False
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)

    def norm_squared(self):
        s = sum_of_squares(self.up) + sum_of_squares(self.down)
        return _values(s * self.weight)


def _require_normalized(norm_squared, tol: float = 1e-8):
    dev = np.abs(np.asarray(norm_squared) - 1.0).max()
    if dev > tol:
        raise NormalizationError(f"spinor state is not normalized: |<psi|psi> - 1| = {dev:.3e}")


def _require_unit_coefficients(c1, c2):
    if (np.abs(_modulus(c1) ** 2 + _modulus(c2) ** 2 - 1.0) > 1e-9).any():
        raise ValueError("|c1|^2 + |c2|^2 must equal 1")


def build_energy_eigenstate(
    c1, c2, psi_plus: Wavefunction, psi_minus: Wavefunction
) -> SpinorState:
    """c1 psi+ |up> + c2 psi- |down> in the two-mode basis of the level pair.

    c1 and c2 are scalars, or equal-length 1-D arrays for a batch of states.
    The components are c1 R[:, 0] and c2 R[:, 1], with R the 2 x 2 factor of
    the Householder QR of sqrt(dx) [psi+ psi-] and weight 1: the state's
    coordinates in an orthonormal basis of span{psi+, psi-}, so every inner
    product the routes read equals its grid value and no batch of n-point
    vectors is formed. psi+ and psi- are checked once for unit norm, each
    coefficient pair for |c1|^2 + |c2|^2 = 1.
    """
    if psi_plus.grid != psi_minus.grid:
        raise ValueError("psi_plus and psi_minus must share a grid")
    c1 = np.asarray(c1)
    c2 = np.asarray(c2)
    if c1.shape != c2.shape or c1.ndim > 1:
        raise ValueError("c1 and c2 must be scalars or 1-D arrays of equal length")
    _require_unit_coefficients(c1, c2)
    dx = psi_plus.grid.dx
    for name, psi in (("psi_plus", psi_plus), ("psi_minus", psi_minus)):
        nrm2 = float(sum_of_squares(psi.amplitudes)) * dx
        if abs(nrm2 - 1.0) > 1e-8:
            raise ValueError(f"{name} is not unit-norm: ||psi||^2 = {nrm2!r}")
    stack = np.sqrt(dx) * np.column_stack([psi_plus.amplitudes, psi_minus.amplitudes])
    R = np.linalg.qr(stack, mode="r")
    return SpinorState(c1[..., None] * R[:, 0], c2[..., None] * R[:, 1], 1.0)


def _spin_gram(state: SpinorState):
    """<u|u>, <d|d> and weight * <u|d> of the spin route, once the state is checked normalized."""
    uu, dd = sum_of_squares(state.up), sum_of_squares(state.down)
    _require_normalized((uu + dd) * state.weight)
    return uu, dd, sum_of_products(state.up, state.down) * state.weight


def spin_expectation(state: SpinorState) -> np.ndarray:
    """(<sx>, <sy>, <sz>) along a new last axis, the up component conjugated.

    The sign of <sy> follows from the raising operator [[0, 1], [0, 0]] in the
    (up, down) basis.
    """
    uu, dd, cross = _spin_gram(state)
    sz = (uu - dd) * state.weight
    return np.stack([2.0 * cross.real, 2.0 * cross.imag, sz], axis=-1)


def schmidt_coefficients(sigma_mean) -> tuple:
    """lambda_{1,2} = sqrt((1 +- |<sigma>|)/2), descending; sigma along the last axis."""
    sigma = np.asarray(sigma_mean, dtype=float)
    s = np.sqrt(np.vecdot(sigma, sigma))
    worst = float(s.max())
    if worst > 1.0 + 1e-9:
        raise ValueError(f"|<sigma>| = {worst!r} exceeds 1")
    s = np.minimum(s, 1.0)
    return (_values(np.sqrt((1.0 + s) / 2.0)), _values(np.sqrt((1.0 - s) / 2.0)))


def concurrence_from_spin(state: SpinorState):
    """C = sqrt(1 - |<sigma>|^2) from the same inner products that set <sigma>.

    Evaluated as the Gram discriminant 2 sqrt(<u|u><d|d> - |<u|d>|^2), which
    is the identical quantity for a normalized state but stays exact where
    the naive form loses half its digits: near product states |<sigma>| is
    1 - O(eps) and sqrt(1 - |<sigma>|^2) turns round-off into sqrt(eps) noise.
    """
    uu, dd, cross = _spin_gram(state)
    val = (uu * state.weight) * (dd * state.weight) - (cross.real ** 2 + cross.imag ** 2)
    return _values(np.minimum(2.0 * np.sqrt(np.maximum(val, 0.0)), 1.0))


def concurrence_overlap(c1, c2, overlap):
    """C = 2 |c1| |c2| sqrt(1 - |<psi+|psi->|^2) for the decomposed form.

    The three inputs broadcast against each other, one state per entry.
    """
    _require_unit_coefficients(c1, c2)
    s = _modulus(overlap)
    worst = float(s.max())
    if worst > 1.0 + 1e-9:
        raise ValueError(f"|overlap| = {worst!r} exceeds 1")
    s = np.minimum(s, 1.0)
    val = 2.0 * _modulus(c1) * _modulus(c2) * np.sqrt(1.0 - s * s)
    return _values(np.minimum(np.maximum(val, 0.0), 1.0))


def schmidt_svd_oracle(state: SpinorState) -> tuple:
    """Schmidt coefficients as singular values of the 2 x N coefficient stack."""
    _require_normalized(state.norm_squared())
    stack = np.stack([state.up, state.down], axis=-2) * np.sqrt(state.weight)
    sv = np.linalg.svd(stack, compute_uv=False)
    return (_values(sv[..., 0]), _values(sv[..., 1]))


def concurrence_svd(state: SpinorState):
    l1, l2 = schmidt_svd_oracle(state)
    return _values(np.minimum(np.maximum(2.0 * l1 * l2, 0.0), 1.0))


@dataclass(frozen=True)
class EntanglementReport:
    """Every route's result: Python floats for one state, arrays for a batch.

    sigma_mean is (<sx>, <sy>, <sz>) and schmidt is (lambda1, lambda2).
    """

    sigma_mean: tuple
    schmidt: tuple
    concurrence_spin: float
    concurrence_svd: float
    concurrence_overlap: Optional[float] = None
    overlap: Optional[complex] = None


def analyze(
    state: SpinorState,
    c1=None,
    c2=None,
    overlap=None,
) -> EntanglementReport:
    """All available concurrence routes for one state or a batch of states.

    The overlap route needs the decomposition (c1, c2, <psi+|psi->); states
    not built from one get the spin and SVD values only. The smaller Schmidt
    coefficient is C_spin / (2 lambda1): lambda1 is well conditioned, while
    sqrt((1 - |<sigma>|)/2) turns round-off near product states into sqrt(eps).
    """
    sigma = spin_expectation(state)
    c_spin = concurrence_from_spin(state)
    lam1 = schmidt_coefficients(sigma)[0]
    c_overlap = None
    if c1 is not None and c2 is not None and overlap is not None:
        c_overlap = concurrence_overlap(c1, c2, overlap)
    return EntanglementReport(
        sigma_mean=tuple(_values(v) for v in np.moveaxis(sigma, -1, 0)),
        schmidt=(lam1, c_spin / (2.0 * lam1)),
        concurrence_spin=c_spin,
        concurrence_svd=concurrence_svd(state),
        concurrence_overlap=c_overlap,
        overlap=_values(overlap, complex) if overlap is not None else None,
    )


def _level_pair(E, psi_plus: Wavefunction, psi_minus: Wavefunction):
    """sqrt(E), psi+/sqrt(2) and psi-/sqrt(2) of a level pair or a block of them, checked."""
    energy = np.asarray(E, dtype=float)
    low = energy[energy <= EPS0]
    if low.size:
        raise ValueError(f"E = {float(low.min())!r} is at or below the zero-mode threshold {EPS0}")
    if psi_plus.grid != psi_minus.grid:
        raise ValueError("psi_plus and psi_minus must share a grid")
    return np.sqrt(energy), psi_plus.amplitudes / np.sqrt(2.0), psi_minus.amplitudes / np.sqrt(2.0)


def supercharge_eigenstates(
    sys: SusySystem, E, psi_plus: Wavefunction, psi_minus: Wavefunction
) -> tuple:
    """The four maximally entangled supercharge eigenstates at energy E.

    Rows (family, sign, eigenvalue, state) in report order:
    (psi+ |up> +- psi- |down>)/sqrt(2) for Q1 and (psi+ |up> +- i psi- |down>)
    /sqrt(2) for Q2, with eigenvalue sign * sqrt(E). psi_minus must carry the
    intertwining-consistent phase (i.e. be B+ psi+ / sqrt(E) up to round-off),
    otherwise these are not eigenstates. For a batch, E is an array over the
    leading axis of the two states, and each row holds an eigenvalue array
    and a batch of states, each as it is built alone. The reference the
    per-level values of `supercharge_concurrences` and
    `supercharge_residuals` are tested against; no command forms these.
    """
    root, up, dn = _level_pair(E, psi_plus, psi_minus)
    root = _values(root)
    # the real phases are ints, so the Q1 states keep real components
    return tuple((family, sign, sign * root, SpinorState(up, phase * dn, sys.grid.dx))
                 for family, sign, phase in (("q1", +1, 1), ("q1", -1, -1),
                                             ("q2", +1, 1j), ("q2", -1, -1j)))


def supercharge_concurrences(sys: SusySystem, E, psi_plus: Wavefunction,
                             psi_minus: Wavefunction):
    """The concurrence shared by the four `supercharge_eigenstates` of a level pair.

    A state's down half is psi-/sqrt(2) times a unit phase, 1, -1, i or -i,
    which leaves <u|u>, <d|d> and |<u|d>|^2, every product
    `concurrence_from_spin` reduces, as they are in exact arithmetic. So
    only the real Q1 + state (psi+ |up> + psi- |down>)/sqrt(2) is formed,
    and its concurrence is each state's: bit for bit that of the Q1 - state,
    and a Q2 state's own differs from it only in the rounding of its complex
    sums, by an ulp where it differs at all. A Python float for one level;
    for a block of levels (E an array over the leading axis of the two
    states) an array over them.
    """
    _, up, dn = _level_pair(E, psi_plus, psi_minus)
    return concurrence_from_spin(SpinorState(up, dn, sys.grid.dx))


def supercharge_residuals(sys: SusySystem, E, psi_plus: Wavefunction, psi_minus: Wavefunction):
    """|| Q s - q s ||, shared by the four `supercharge_eigenstates` s of a level pair.

    Q1 acts blockwise as (B phi_down, B+ phi_up), two-term stencils, and
    Q2 = -i sz Q1 as (-i B phi_down, +i B+ phi_up), the up half on the
    n - 1 cells: psi+ on the nodes holds 0 at the last. B is applied to
    dn = psi-/sqrt(2) and B+ to up = psi+/sqrt(2) once. A state's down half
    is dn times its phase p = 1, -1, i or -i and its eigenvalue is sign *
    sqrt(E), so B of the down half is p B dn and the residual vector is
    (sign r_up, r_down) with r_up = B dn - sqrt(E) up and r_down =
    B+ up - sqrt(E) dn for Q1, and (sign r_up, i r_down) for Q2: the phases
    are exact, and so are the signs, so every entry of each of the four
    vectors has the modulus of the entry of (r_up, r_down), and its squared
    modulus, re^2 + im^2 with one part an exact zero, the same square. So the
    four states share one residual, each half's squares summed by
    `sum_of_squares`, which equals what each state gives alone, bit for bit.
    A Python float for one level; for a block of levels (E an array over the
    leading axis of the two states) an array over them.
    """
    root, up, dn = _level_pair(E, psi_plus, psi_minus)
    q, up = root[..., None], up[..., :-1]  # the up half on the n - 1 cells
    r_up, r_down = sys.B @ dn - q * up, sys.B_adj @ up - q * dn
    return _values(np.sqrt((sum_of_squares(r_up) + sum_of_squares(r_down)) * sys.grid.dx))
