"""Eigenproblems of the partner Hamiltonians.

Solving and pairing the partner levels, the zero mode, and the intertwining
map from H+ to H- eigenstates. Every Hamiltonian here is a symmetric
Tridiagonal, solved on its bands by LAPACK bisection; there is no dense
eigensolver.
B is (n - 1) x n with a nonzero superdiagonal, so H- = B_adj B, on the n
nodes, has exactly one zero, the kernel of B, as its level 0, and
H+ = B B_adj, on the n - 1 cells, has none: level i of H+ and level i + 1 of
H- are the same squared singular value of B. No threshold classifies
levels: pairing zips the H+ levels with levels 1.. of H-, and the
zero-mode verdict of the commands reads |E0| <= EPS0 = 1e-10 on H-'s
level 0.

`solve_plus` bisects H+ blind and raises DegeneracyError for a second zero
mode. That is all `supercharge` solves: its states need only an H+
eigenpair and B, since the intertwining relation H- B_adj = B_adj H+ makes
B_adj psi+ / sqrt(E) an H- eigenstate. `solve_partners` takes the H+
levels of `solve_plus` and bisects H- only inside the pairing windows of
half-width PAIR_TOL = 1e-10 they define, blind only when those fail. It
only solves: the pairing verdict, the largest gap between paired levels
against PAIR_TOL, is read from its result by `susyqm.checks`.

`eigenstates` forms the eigenpairs of the levels a caller reads from a
bisection result as one batch (`EigenPair` over a leading level axis): an
H- state on the n nodes, an H+ state on the cell grid of the n - 1
midpoints x_min + dx/2 + i dx, as it is solved, with no copy;
`solve_spectrum` is the blind solve of the k lowest levels
(`Tridiagonal.eigh`) followed by it. `on_nodes` is the one place a cell
state meets a node state: it puts it on the n nodes with 0 at the last.
The cell grid is a label for the same-grid check only; its dx may differ
from the node dx by an ulp, so every norm and weight reads the node grid's.
The intertwining map and the phase alignment act on a batch as on one
state. The zero mode is read off the stored bands of B, so this module
holds no copy of B's stencil. The division by sqrt(E) in the intertwining
map is guarded by EPS0 as well.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, GridMismatchError, SignConditionError
from .grid import Grid, Wavefunction, fix_phase, inner_product
from .operators import Bisection, SusySystem, Tridiagonal, check_sign_condition

__all__ = [
    "EPS0",
    "EigenPair",
    "solve_spectrum",
    "eigenstates",
    "on_nodes",
    "solve_plus",
    "solve_partners",
    "zero_mode",
    "intertwine_down",
    "align_phase",
    "operator_norm",
]

EPS0 = 1e-10
PAIR_TOL = 1e-10
# octaves one block of zero_mode's running product may span: its partial
# products stay within 2^+-1001, well inside the normal range 2^-1022..2^1024
_PRODUCT_SPAN = 1000.0

@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its eigenstate on the grid, or a batch of them.

    A batch holds an array of energies and a state whose leading axis runs
    over the same levels, and indexes like a sequence of its pairs: an
    integer gives one EigenPair (a float energy and a 1-D state), a slice a
    batch.
    """

    energy: float
    state: Wavefunction

    def __len__(self):
        return len(self.energy)

    def __getitem__(self, index):
        energy = self.energy[index]
        return EigenPair(energy if np.ndim(energy) else float(energy),
                         Wavefunction(self.state.grid, self.state.amplitudes[index]))


def solve_spectrum(H: Tridiagonal, k: int, grid: Grid) -> EigenPair:
    """k lowest eigenpairs of a symmetric tridiagonal H on `grid`, ascending, as one batch."""
    return eigenstates(H.eigh(0, k - 1), grid)


def eigenstates(solved: Bisection, grid: Grid, levels=slice(None)) -> EigenPair:
    """The eigenpairs values[levels] of a bisection result on `grid`, ascending, as one batch.

    `levels` is a slice of unit step; by default every level. Here the
    eigenvectors of those levels alone are formed (`Bisection.vectors`),
    phase-fixed and scaled to unit dx-weighted norm, with the node dx, in
    place: the Fortran array the inverse iteration fills is read as one
    array with a row a level, which the batch then holds as it is. A vector
    of n - 1 entries, an H+ state, is held on the cell grid of `grid`:
    `intertwine_down` reads it as it is, and `on_nodes` puts a block of it
    on the nodes where it meets H- states. Bisection on the bands
    resolves the near-kernel eigenvalue at machine scale instead of the
    ~eps*||H|| blur of the generic drivers; the work is O(n) per eigenpair.
    Deterministic: fixed driver, fixed phase fix.
    """
    amps = solved.vectors(levels=levels).T
    fix_phase(amps, out=amps)
    amps /= np.sqrt(grid.dx)
    amps.flags.writeable = False
    on = _cells(grid) if amps.shape[-1] == grid.n_points - 1 else grid
    return EigenPair(solved.values[levels], Wavefunction(on, amps))


def _cells(grid: Grid) -> Grid:
    """The cell grid of `grid`: its n - 1 midpoints, a label only (see the module)."""
    return Grid(grid.x_min + grid.dx / 2.0, grid.x_max - grid.dx / 2.0, grid.n_points - 1)


def on_nodes(state: Wavefunction, grid: Grid) -> Wavefunction:
    """An H+ state, or a batch of them, on the cells of `grid`, put on its nodes, 0 at the last.

    The one place a cell state meets a node state: the result is a new
    read-only array on `grid` itself. A state on any other grid raises
    GridMismatchError.
    """
    if state.grid != _cells(grid):
        raise GridMismatchError(f"{state.grid} is not the cell grid of {grid}")
    out = np.zeros(state.amplitudes.shape[:-1] + (grid.n_points,), state.amplitudes.dtype)
    out[..., :-1] = state.amplitudes
    out.flags.writeable = False
    return Wavefunction(grid, out)


def solve_plus(H_plus: Tridiagonal, levels: int) -> Bisection:
    """Levels 0..levels - 1 of H+, bisected blind, as one bisection result.

    H+ = B B_adj is positive definite by B's construction, so each level
    pairs with a nonzero H- level. Its level 0 at or below EPS0, in the zero
    window (-inf, EPS0] of H-, is a second zero mode, which no partner state
    can be formed from: it raises DegeneracyError. Levels are ascending, so
    this is the only level that rule can fire on.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    plus = H_plus.eigh(0, levels - 1)
    e0 = float(plus.values[0])
    if e0 <= EPS0:
        raise DegeneracyError(f"level {e0!r} of H+ is below {EPS0}: a second zero mode", level=e0)
    return plus


def solve_partners(H_plus: Tridiagonal, H_minus: Tridiagonal, levels: int):
    """Levels 0..levels - 1 of H+ and 0..levels of H-, as two bisection results.

    H+ is solved by `solve_plus`, so a second zero mode raises before H- is
    touched. Level 0 of H- is its zero by B's construction; level i of H+
    pairs with level i + 1 of H-. H- is bisected only where its
    levels must lie (`Tridiagonal.eigh_windows`), about a third of the Sturm
    sweeps: one zero-mode window (-inf, EPS0], which LAPACK starts at its
    own Gershgorin lower bound of H-, and one window (e - PAIR_TOL,
    e + PAIR_TOL] per H+ level e, each clipped to start where the
    previous one ends. The windows' result stands only if every window holds
    exactly one level and a loose count of the H- levels up to the top
    window's end equals the number found, so no H- level lies between
    windows; its values are then the levels + 1 lowest H- levels, as
    `Tridiagonal.eigh` finds them blind, to the last ulp or two. When any
    count fails, H- is bisected blind. Either way the levels are returned as
    found, whatever their gaps: pairing is judged by the caller. No
    eigenvector is formed: the caller asks `eigenstates` for the sides it
    reads.
    """
    plus = solve_plus(H_plus, levels)
    windows = [(-np.inf, EPS0)]
    for e in plus.values.tolist():
        windows.append((max(e - PAIR_TOL, windows[-1][1]), e + PAIR_TOL))
    minus = None
    if all(a < b for a, b in windows):
        # an infinite tol stops the bisection at once: only the count is read
        (total,) = H_minus.eigh_windows([(-np.inf, windows[-1][1])], tol=np.inf).counts
        if total == len(windows):
            minus = H_minus.eigh_windows(windows)
    if minus is None or any(c != 1 for c in minus.counts):
        minus = H_minus.eigh(0, levels)
    return plus, minus


def zero_mode(sys: SusySystem) -> Wavefunction:
    """Discrete kernel vector of B, read off its bands, normalized.

    Row i of B psi = 0 is diag_i psi_i + off_i psi_{i+1} = 0, so
    psi_{i+1} = -(diag_i / off_i) psi_i solves every row exactly; off_i > 0
    on every cell by construction, and B has a row a cell, so this is the
    exact kernel of B on any box whatever its stencil. W is read only at the
    two endpoints, by the sign-condition guard.

    The running product is kept as mantissa and power-of-two exponent, so
    only the final scaling can underflow far tails to zero. It is taken in
    blocks of ratios: each block is one running product (multiply.accumulate)
    started from the mantissa carried out of the previous block, split by
    frexp, its exponents offset by the carried exponent. No partial product
    of a block leaves the normal range, since a block of L ratios spans at
    most L max|log2 r| <= _PRODUCT_SPAN octaves, and a power of two scales a
    normal product exactly: every mantissa and exponent is the one the
    step-by-step recursion psi_{i+1} = frexp(psi_i r_i) gives, bit for bit.
    Ratios so tiny or huge that L would be 0 take blocks of one, which are
    that step itself.
    """
    if not check_sign_condition(sys.W, sys.grid):
        raise SignConditionError(
            f"superpotential {sys.W.name!r} violates the sign condition "
            "(W < 0 at x_min, W > 0 at x_max); no normalizable zero mode"
        )
    B = sys.B
    ratios = -B.diag / B.off
    with np.errstate(divide="ignore"):  # a zero ratio zeroes the rest, whatever its block
        octaves = np.abs(np.log2(np.abs(ratios)))
    worst = np.max(octaves, where=np.isfinite(octaves), initial=0.0)
    step = ratios.size if worst * ratios.size <= _PRODUCT_SPAN else max(
        1, int(_PRODUCT_SPAN // worst))
    mants = np.empty(ratios.size + 1)
    exps = np.empty(ratios.size + 1, dtype=np.int64)
    c, ex = 1.0, 0
    mants[0], exps[0] = c, ex
    for lo in range(0, ratios.size, step):
        block = np.multiply.accumulate(np.concatenate(([c], ratios[lo:lo + step])))[1:]
        m, e = np.frexp(block)
        mants[lo + 1:lo + 1 + m.size] = m
        exps[lo + 1:lo + 1 + m.size] = e + ex
        c, ex = float(m[-1]), ex + int(e[-1])

    amps = np.ldexp(mants, exps - exps.max())  # far tails underflow to 0
    nrm = np.sqrt(np.sum(amps * amps) * sys.grid.dx)
    return Wavefunction(sys.grid, amps / nrm)


def intertwine_down(sys: SusySystem, pair_plus: EigenPair) -> Wavefunction:
    """B+ psi+ / sqrt(E): the H- eigenstate paired with an H+ eigenstate.

    Returned as the literal map, neither re-normalized nor re-phased: for a
    true eigenstate the norm lands within ~1e-8 of one, and downstream
    supercharge eigenstates need exactly this relative phase. A batch of
    eigenpairs maps to the batch of its states, each as it maps alone. The
    H+ states are on the n - 1 cells, as `eigenstates` returns them, and
    B_adj maps them to the n nodes.
    """
    amps = (sys.B_adj @ pair_plus.state.amplitudes) / _root(pair_plus.energy)[..., None]
    return Wavefunction(sys.grid, amps)


def _root(E):
    """sqrt(E) of a level or an array of levels, each checked above the zero-mode threshold."""
    energy = np.asarray(E, dtype=float)
    low = energy[energy <= EPS0]
    if low.size:
        raise ValueError(f"energy {float(low.min())!r} is at or below the zero-mode threshold "
                         f"{EPS0}; the zero mode has no partner state")
    return np.sqrt(energy)


def align_phase(mapped: Wavefunction, reference: Wavefunction) -> Wavefunction:
    """Rotate `mapped` so its overlap with `reference` is real positive.

    Each state of a batch is rotated by its own overlap: a real state is
    negated when that overlap is not positive, a complex one multiplied by
    ov / |ov|; a state of zero overlap is kept.
    """
    ov = np.asarray(inner_product(mapped, reference))[..., None]
    amps = mapped.amplitudes
    zero = ov == 0
    if np.iscomplexobj(amps):
        unit = ov / np.where(zero, 1.0, np.hypot(ov.real, ov.imag))
        return Wavefunction(mapped.grid, np.where(zero, amps, amps * unit))
    return Wavefunction(mapped.grid, np.where(zero | (ov.real > 0), amps, -amps))


def operator_norm(H: Tridiagonal) -> float:
    """Spectral norm of a symmetric tridiagonal H (largest |eigenvalue|).

    The largest eigenvalue hi is bisected first; the smallest only if it
    could be the larger in magnitude. LAPACK's stebz starts every bisection
    at Gershgorin's lower bound widened by 2.1 (n ulp ||T|| + 2 pivmin), so
    no computed eigenvalue lies below it. `lower` is that bound widened
    twice as far, which also covers the rounding of the bound itself; when
    -hi <= lower < 0 the computed lowest eigenvalue lies in [-hi, hi] and
    the norm is |hi|, bit for bit. A bound >= 0 runs both: the two computed
    extremes of a near multiple of the identity may cross by the bisection's
    width. For H+- the bound stays far above -hi.
    """
    n = H.shape[0]
    hi = H.eigh(n - 1, n - 1, tol=0.0).values[0]
    e = np.abs(H.off)
    radius = np.zeros(n)
    radius[:-1] += e
    radius[1:] += e
    low, high = np.min(H.diag - radius), np.max(H.diag + radius)
    with np.errstate(over="ignore"):  # an infinite pivmin only keeps both bisections
        pivmin = np.finfo(float).tiny * max(1.0, np.max(e, initial=0.0)) ** 2
    widen = 2.1 * (n * np.finfo(float).eps * max(abs(low), abs(high)) + 2.0 * pivmin)
    lower = low - 2.0 * widen
    if -hi <= lower < 0.0:
        return float(abs(hi))
    lo = H.eigh(0, 0, tol=0.0).values[0]
    return float(max(abs(lo), abs(hi)))
