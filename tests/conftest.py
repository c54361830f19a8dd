"""Shared fixtures: the default box, factorized systems, solved spectra and
the dense small-n oracles of the 2n x 2n SUSY operators.

Everything here is session-scoped; building a 2001-point system and solving
both partners takes a noticeable fraction of a second, and many tests share
the same four superpotentials.
"""

import numpy as np
import pytest

import susyqm as sq

BOX = (-10.0, 10.0, 2001)
W_NAMES = ("harmonic", "cubic", "shifted_cubic", "tanh")
N_LEVELS = 6


@pytest.fixture(scope="session")
def grid2001():
    return sq.make_grid(*BOX)


@pytest.fixture(scope="session")
def systems(grid2001):
    return {
        name: sq.build_susy_system(sq.get_superpotential(name), grid2001)
        for name in W_NAMES
    }


@pytest.fixture(scope="session")
def spectra(systems, grid2001):
    """(plus, minus) eigenpair lists, k = N_LEVELS + 1 per side.

    The extra slot holds the zero mode (minus side) or the exact zero of the
    decoupled wall node (plus side).
    """
    out = {}
    for name, system in systems.items():
        plus = sq.solve_spectrum(system.H_plus, N_LEVELS + 1, grid2001)
        minus = sq.solve_spectrum(system.H_minus, N_LEVELS + 1, grid2001)
        out[name] = (plus, minus)
    return out


@pytest.fixture(scope="session")
def nonzero_levels(spectra):
    """Paired eigenstates above the zero-mode threshold, per superpotential."""
    out = {}
    for name, (plus, minus) in spectra.items():
        plus_nz = [p for p in plus if p.energy >= sq.EPS0]
        minus_nz = [m for m in minus if m.energy >= sq.EPS0]
        out[name] = (plus_nz, minus_nz)
    return out


@pytest.fixture(scope="session")
def jc_default():
    return sq.build_jc(1.0, 0.1, 64)


@pytest.fixture(scope="session")
def jc_match(jc_default):
    return sq.numeric_vs_analytic(jc_default)


@pytest.fixture(scope="session")
def free_superpotential():
    return sq.Superpotential("free", lambda x: np.zeros_like(x), (-1, +1), "odd")


@pytest.fixture(scope="session")
def unfused_product():
    """Dense matrix product that forms every term before summing any.

    BLAS may fuse a multiply into the following add, which moves an entry by
    one ulp (9.1e-13 on an entry of 4.1e3 for shifted_cubic at 201 points,
    above the 1e-13 gate). Here each product is rounded once and, with two
    nonzero terms per entry, the sum does not depend on order, as in the
    band formulas of the package, so an identity that holds exactly reads 0.
    """
    def product(A, B):
        return np.array([np.sum(row[:, None] * B, axis=0) for row in A])
    return product


@pytest.fixture(scope="session")
def build_susy_hamiltonian():
    """Dense 2n x 2n block-diagonal diag(H+, H-), spin-up block first."""
    def build(system):
        n = system.grid.n_points
        H = np.zeros((2 * n, 2 * n))
        H[:n, :n] = system.H_plus.to_dense()
        H[n:, n:] = system.H_minus.to_dense()
        return H
    return build


@pytest.fixture(scope="session")
def build_supercharges():
    """Dense Q1 = [[0, B], [B+, 0]] and Q2 = [[0, -iB], [iB+, 0]], both Hermitian."""
    def build(system):
        n = system.grid.n_points
        B = system.B.to_dense()
        B_adj = system.B_adj.to_dense()
        Q1 = np.zeros((2 * n, 2 * n))
        Q1[:n, n:] = B
        Q1[n:, :n] = B_adj
        Q2 = np.zeros((2 * n, 2 * n), dtype=complex)
        Q2[:n, n:] = -1j * B
        Q2[n:, :n] = 1j * B_adj
        return Q1, Q2
    return build


@pytest.fixture(scope="session")
def witten_parity():
    """Dense diag(I_n, -I_n); anticommutes with both supercharges."""
    def build(n):
        P = np.eye(2 * n)
        P[n:, n:] *= -1.0
        return P
    return build
