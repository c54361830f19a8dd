"""Spin-mode entanglement of spinor states.

A SpinorState is a two-component amplitude vector (spin up, spin down) over a
shared continuous or Fock index. The concurrence is computed by three
independent routes: from the spin expectation vector, from the coefficient
decomposition c1 psi+ |up> + c2 psi- |down>, and from the singular values of
the 2 x N coefficient stack. The routes agreeing to 1e-12 is one of the main
verification targets of the package, so none of them share code.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Wavefunction
from .operators import SusySystem
from .spectral import EPS0

__all__ = [
    "SpinorState",
    "EntanglementReport",
    "SuperchargeEigenstates",
    "build_energy_eigenstate",
    "spin_expectation",
    "schmidt_coefficients",
    "concurrence_from_spin",
    "concurrence_overlap",
    "schmidt_svd_oracle",
    "concurrence_svd",
    "analyze",
    "supercharge_eigenstates",
    "apply_q1",
    "apply_q2",
    "supercharge_residual",
]


@dataclass(frozen=True)
class SpinorState:
    """Spin-up and spin-down component amplitudes with a quadrature weight.

    weight = dx for grid-sampled components, 1.0 for Fock-space vectors.
    """

    up: np.ndarray
    down: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        up = np.asarray(self.up)
        down = np.asarray(self.down)
        if up.shape != down.shape or up.ndim != 1:
            raise ValueError("up and down components must be vectors of equal length")
        up, down = up.copy(), down.copy()
        up.flags.writeable = False
        down.flags.writeable = False
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)

    def norm_squared(self) -> float:
        s = np.real(np.vdot(self.up, self.up)) + np.real(np.vdot(self.down, self.down))
        return float(s * self.weight)


def _require_normalized(state: SpinorState, tol: float = 1e-8):
    dev = abs(state.norm_squared() - 1.0)
    if dev > tol:
        raise ValueError(f"spinor state is not normalized: |<psi|psi> - 1| = {dev:.3e}")


def build_energy_eigenstate(
    c1: complex, c2: complex, psi_plus: Wavefunction, psi_minus: Wavefunction
) -> SpinorState:
    """c1 psi+ |up> + c2 psi- |down> on a shared grid."""
    if psi_plus.grid != psi_minus.grid:
        raise ValueError("psi_plus and psi_minus must share a grid")
    if abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0) > 1e-9:
        raise ValueError("|c1|^2 + |c2|^2 must equal 1")
    dx = psi_plus.grid.dx
    for name, psi in (("psi_plus", psi_plus), ("psi_minus", psi_minus)):
        nrm2 = np.real(np.vdot(psi.amplitudes, psi.amplitudes)) * dx
        if abs(nrm2 - 1.0) > 1e-8:
            raise ValueError(f"{name} is not unit-norm: ||psi||^2 = {nrm2!r}")
    return SpinorState(c1 * psi_plus.amplitudes, c2 * psi_minus.amplitudes, dx)


def spin_expectation(state: SpinorState) -> np.ndarray:
    """(<sx>, <sy>, <sz>) with the inner product conjugating the up component.

    The sign of <sy> follows from the raising operator [[0, 1], [0, 0]] in the
    (up, down) basis.
    """
    _require_normalized(state)
    cross = np.vdot(state.up, state.down) * state.weight
    sz = (
        np.real(np.vdot(state.up, state.up)) - np.real(np.vdot(state.down, state.down))
    ) * state.weight
    return np.array([2.0 * cross.real, 2.0 * cross.imag, sz])


def schmidt_coefficients(sigma_mean) -> tuple:
    """lambda_{1,2} = sqrt((1 +- |<sigma>|)/2), descending."""
    s = float(np.linalg.norm(np.asarray(sigma_mean, dtype=float)))
    if s > 1.0 + 1e-9:
        raise ValueError(f"|<sigma>| = {s!r} exceeds 1")
    s = min(s, 1.0)
    return (float(np.sqrt((1.0 + s) / 2.0)), float(np.sqrt((1.0 - s) / 2.0)))


def concurrence_from_spin(state: SpinorState) -> float:
    """C = sqrt(1 - |<sigma>|^2) from the same inner products that set <sigma>.

    Evaluated as the Gram discriminant 2 sqrt(<u|u><d|d> - |<u|d>|^2), which
    is the identical quantity for a normalized state but stays exact where
    the naive form loses half its digits: near product states |<sigma>| is
    1 - O(eps) and sqrt(1 - |<sigma>|^2) turns round-off into sqrt(eps) noise.
    """
    _require_normalized(state)
    w = state.weight
    a = float(np.real(np.vdot(state.up, state.up))) * w
    b = float(np.real(np.vdot(state.down, state.down))) * w
    cross = np.vdot(state.up, state.down) * w
    val = a * b - float(np.real(cross) ** 2 + np.imag(cross) ** 2)
    return float(min(2.0 * np.sqrt(max(val, 0.0)), 1.0))


def concurrence_overlap(c1: complex, c2: complex, overlap: complex) -> float:
    """C = 2 |c1| |c2| sqrt(1 - |<psi+|psi->|^2) for the decomposed form."""
    if abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0) > 1e-9:
        raise ValueError("|c1|^2 + |c2|^2 must equal 1")
    s = abs(overlap)
    if s > 1.0 + 1e-9:
        raise ValueError(f"|overlap| = {s!r} exceeds 1")
    s = min(s, 1.0)
    val = 2.0 * abs(c1) * abs(c2) * np.sqrt(1.0 - s * s)
    return float(min(max(val, 0.0), 1.0))


def schmidt_svd_oracle(state: SpinorState) -> tuple:
    """Schmidt coefficients as singular values of the 2 x N coefficient stack."""
    _require_normalized(state)
    stack = np.vstack([state.up, state.down]) * np.sqrt(state.weight)
    sv = np.linalg.svd(stack, compute_uv=False)
    return (float(sv[0]), float(sv[1]))


def concurrence_svd(state: SpinorState) -> float:
    l1, l2 = schmidt_svd_oracle(state)
    return float(min(max(2.0 * l1 * l2, 0.0), 1.0))


@dataclass(frozen=True)
class EntanglementReport:
    sigma_mean: tuple
    schmidt: tuple
    concurrence_spin: float
    concurrence_svd: float
    concurrence_overlap: Optional[float] = None
    overlap: Optional[complex] = None


def analyze(
    state: SpinorState,
    c1: Optional[complex] = None,
    c2: Optional[complex] = None,
    overlap: Optional[complex] = None,
) -> EntanglementReport:
    """All available concurrence routes for one state.

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
        sigma_mean=tuple(float(v) for v in sigma),
        schmidt=(lam1, c_spin / (2.0 * lam1)),
        concurrence_spin=c_spin,
        concurrence_svd=concurrence_svd(state),
        concurrence_overlap=c_overlap,
        overlap=complex(overlap) if overlap is not None else None,
    )


@dataclass(frozen=True)
class SuperchargeEigenstates:
    q1_plus: SpinorState
    q1_minus: SpinorState
    q2_plus: SpinorState
    q2_minus: SpinorState


def supercharge_eigenstates(
    sys: SusySystem, E: float, psi_plus: Wavefunction, psi_minus: Wavefunction
) -> SuperchargeEigenstates:
    """The four maximally entangled supercharge eigenstates at energy E.

    (psi+ |up> +- psi- |down>)/sqrt(2) for Q1 and (psi+ |up> +- i psi- |down>)
    /sqrt(2) for Q2, with eigenvalues +-sqrt(E). psi_minus must carry the
    intertwining-consistent phase (i.e. be B+ psi+ / sqrt(E) up to round-off),
    otherwise these are not eigenstates.
    """
    if E <= EPS0:
        raise ValueError(f"E = {E!r} is at or below the zero-mode threshold {EPS0}")
    if psi_plus.grid != psi_minus.grid:
        raise ValueError("psi_plus and psi_minus must share a grid")
    dx = sys.grid.dx
    up = psi_plus.amplitudes / np.sqrt(2.0)
    dn = psi_minus.amplitudes / np.sqrt(2.0)
    return SuperchargeEigenstates(
        q1_plus=SpinorState(up, dn, dx),
        q1_minus=SpinorState(up, -dn, dx),
        q2_plus=SpinorState(up, 1j * dn, dx),
        q2_minus=SpinorState(up, -1j * dn, dx),
    )


def apply_q1(sys: SusySystem, state: SpinorState) -> SpinorState:
    """Blockwise Q1 action: (B phi_down, B+ phi_up), two-term stencils."""
    return SpinorState(sys.B @ state.down, sys.B_adj @ state.up, state.weight)


def apply_q2(sys: SusySystem, state: SpinorState) -> SpinorState:
    """Blockwise Q2 action: (-i B phi_down, +i B+ phi_up), two-term stencils."""
    return SpinorState(
        -1j * (sys.B @ state.down), 1j * (sys.B_adj @ state.up), state.weight
    )


def supercharge_residual(
    sys: SusySystem, state: SpinorState, eigenvalue: float, which: str
) -> float:
    """|| Q state - q state || for q the claimed supercharge eigenvalue."""
    if which not in ("q1", "q2"):
        raise ValueError(f"which must be 'q1' or 'q2', got {which!r}")
    mapped = apply_q1(sys, state) if which == "q1" else apply_q2(sys, state)
    r_up = mapped.up - eigenvalue * state.up
    r_dn = mapped.down - eigenvalue * state.down
    val = np.real(np.vdot(r_up, r_up)) + np.real(np.vdot(r_dn, r_dn))
    return float(np.sqrt(val * state.weight))
