"""Uniform 1-D grid, wavefunctions and their inner-product algebra.

The quadrature is a plain Riemann sum with weight dx at every node. For
Dirichlet-decaying bound states the edge contribution is below 1e-14, and the
uniform weight is what makes the transpose of a difference matrix its exact
discrete adjoint, which the factorization module relies on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "Grid",
    "Wavefunction",
    "make_grid",
    "inner_product",
    "sum_of_products",
    "sum_of_squares",
    "fix_phase",
]


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [x_min, x_max] with n_points nodes."""

    x_min: float
    x_max: float
    n_points: int

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        # node i sits at x_min + i*dx, reproducible bit-exactly from the fields
        return self.x_min + self.dx * np.arange(self.n_points)


def make_grid(x_min: float, x_max: float, n_points: int) -> Grid:
    """Validated Grid constructor."""
    if not (np.isfinite(x_min) and np.isfinite(x_max)):
        raise ValueError("grid bounds must be finite")
    if not x_min < x_max:
        raise ValueError(f"grid requires x_min < x_max, got [{x_min}, {x_max}]")
    n_points = int(n_points)
    if n_points < 3:
        raise ValueError(f"grid needs at least 3 points, got {n_points}")
    grid = Grid(float(x_min), float(x_max), n_points)
    if not 0.0 < grid.dx < np.inf:
        raise ValueError(
            f"grid spacing dx = {grid.dx} on [{x_min}, {x_max}] is not a "
            "positive finite number (the span overflows or underflows)"
        )
    return grid


@dataclass(frozen=True)
class Wavefunction:
    """Amplitudes over a grid, the node index last. Immutable; amplitudes read-only.

    A 1-D array is one state; any leading axes index a batch of states on
    the same grid, and every function of the package that takes a
    Wavefunction acts on each state of a batch alone. The amplitudes are a
    read-only C-contiguous copy; an array that is both already is taken as
    it is, shared and not copied.
    """

    grid: Grid
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        if amps.ndim < 1 or amps.shape[-1] != self.grid.n_points:
            raise ValueError(
                f"amplitude vector of length {amps.shape} does not fit a "
                f"{self.grid.n_points}-point grid"
            )
        if amps.flags.writeable or not amps.flags.c_contiguous:
            amps = amps.copy()
            amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def inner_product(f: Wavefunction, g: Wavefunction):
    """<f|g> = sum conj(f_i) g_i dx. Conjugate-symmetric by construction.

    A complex for one state; for a batch, a complex array over its leading
    axes, each a state's `sum_of_products` alone.
    """
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")
    ov = sum_of_products(f.amplitudes, g.amplitudes) * f.grid.dx
    return complex(ov) if ov.ndim == 0 else ov.astype(complex)


def sum_of_products(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The sum of conj(u_i) d_i over the last axis, by numpy's pairwise sum.

    No BLAS call: BLAS's dot splits a long vector across its threads, so its
    sum depends on the thread count, while this one does not, and each row
    of a batch sums as it does alone. A complex u is taken as u.real - i
    u.imag, so (u, u) sums to a real, exactly.
    """
    if np.iscomplexobj(u):
        return sum_of_products(u.real, d) - 1j * sum_of_products(u.imag, d)
    return np.add.reduce(u * d, axis=-1)


def sum_of_squares(a: np.ndarray) -> np.ndarray:
    """The sum of |a_i|^2 over the last axis, by numpy's pairwise sum."""
    if np.iscomplexobj(a):
        return sum_of_squares(a.real) + sum_of_squares(a.imag)
    return np.add.reduce(a * a, axis=-1)


def fix_phase(amplitudes: np.ndarray, out=None) -> np.ndarray:
    """Rotate the global phase so the largest-modulus entry is real positive.

    Each state along the last axis is rotated alone. Ties break on the first
    occurrence, which makes eigenvector signs deterministic across runs. A
    real state is multiplied by +-1, which is exact, into `out` if given
    (the input itself rotates it in place); a complex one by
    conj(pivot) / |pivot|, with |pivot| by hypot, as abs() of one complex
    takes it. A zero state is returned as it is.
    """
    a = np.asarray(amplitudes)
    if not np.iscomplexobj(a):
        # the first entry of largest modulus, found without an |a| array: the
        # first largest entry or the first smallest, the earlier on a tie
        hi, lo = np.argmax(a, axis=-1, keepdims=True), np.argmin(a, axis=-1, keepdims=True)
        top, bottom = np.take_along_axis(a, hi, axis=-1), np.take_along_axis(a, lo, axis=-1)
        # a negative pivot flips, and so does a NaN one, as pivot > 0 fails
        flip = (top < -bottom) | ((top == -bottom) & (lo < hi)) | np.isnan(top)
        return np.multiply(a, np.where(flip, -1.0, 1.0), out=out)
    pivot = np.take_along_axis(a, np.argmax(np.abs(a), axis=-1, keepdims=True), axis=-1)
    zero = pivot == 0
    modulus = np.where(zero, 1.0, np.hypot(pivot.real, pivot.imag))
    return np.where(zero, a, a * (np.conj(pivot) / modulus))
