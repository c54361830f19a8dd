"""Every verdict of the commands, as one `Check(name, value, bound)` each.

`spectrum`, `supercharge` and `verify` take a `SusySystem` and a level
count and return their command's checks with the report columns computed
alongside; the checks of `jc` are the failed rows of
`jaynescummings.numeric_vs_analytic`. Other layers are called through their
modules, so a tracer patching their namespaces sees these calls.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import entanglement, grid, operators, spectral

INTERTWINE_TOL = 1e-8
MATRIX_SQ_TOL = 1e-13
ANTICOMM_TOL = 1e-12
# bytes of one complex (levels, n) array in the batched supercharge pass. A
# block's four states and the temporaries of its residuals hold about nine
# such arrays at once, so a block adds under 1 MB to a run at any grid size:
# 6 levels a block at 1001 points, 3 at 2001, 1 from 3073 points on
SUPERCHARGE_BLOCK_BYTES = 96 * 1024


@dataclass(frozen=True)
class Check:
    """One verdict, passed when `value` is at most `bound`, both Python floats."""

    name: str
    value: float
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "bound", float(self.bound))

    @property
    def passed(self) -> bool:
        return self.value <= self.bound


def spectrum(system, levels):
    """(plus, minus, psi0, checks): the paired levels, the zero mode and its two checks.

    `solve_partners` pairs H+ levels 0..levels - 1 with H- levels
    1..levels or raises DegeneracyError. H-'s level 0, its zero by B's
    construction, is bisected only to about eps ||H-||.
    """
    plus, minus = spectral.solve_partners(system.H_plus, system.H_minus, levels)
    psi0 = spectral.zero_mode(system)
    residual = np.sqrt(grid.sum_of_squares(system.H_minus @ psi0.amplitudes))
    residual /= np.sqrt(grid.sum_of_squares(psi0.amplitudes))
    return plus, minus, psi0, [
        Check("zero_mode_present", abs(minus.values[0]), spectral.EPS0),
        Check("zero_mode_residual", residual, 1e-12 * spectral.operator_norm(system.H_minus)),
    ]


def _level_blocks(grid, count):
    """Slices of a batch of `count` levels in ascending blocks, for the batched supercharge pass.

    A block holds as many levels as fit one complex array of
    SUPERCHARGE_BLOCK_BYTES on `grid`, at least one. Each command builds and
    drops a block's states inside one call (`_supercharge_columns`,
    `_intertwine_deviations`), so one block's arrays are alive at a time.
    """
    step = max(1, SUPERCHARGE_BLOCK_BYTES // (16 * grid.n_points))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _supercharge_columns(system, block, pp):
    """The supercharge report's columns for the slice `block` of the H+ levels, eigenpairs `pp`.

    Each column is a (level, family) array: index, energy, family, sign,
    residual and concurrence, every entry what its level gives alone, bit
    for bit. The states are those of intertwine_down of `pp`, which carries
    the relative phase the eigenstates need.
    """
    mapped = spectral.intertwine_down(system, pp)
    # the concurrences check each state's unit norm before its residual is
    # reduced, and drop the two states before the residuals' temporaries
    rows = entanglement.supercharge_concurrences(system, pp.energy, pp.state, mapped)
    residuals = entanglement.supercharge_residuals(system, pp.energy, pp.state, mapped)
    family, sign, concurrence = zip(*rows)
    shape = residuals.shape
    return (np.broadcast_to(np.arange(block.start + 1, block.stop + 1)[:, None], shape),
            np.broadcast_to(pp.energy[:, None], shape),
            np.broadcast_to(family, shape), np.broadcast_to(sign, shape),
            residuals, np.stack(concurrence, axis=-1))


def supercharge(system, levels):
    """(columns, checks) of the supercharge report: a row per (level, family), levels outer."""
    pairs = spectral.eigenstates(spectral.solve_plus(system.H_plus, levels), system.grid)
    blocks = [_supercharge_columns(system, block, pairs[block])
              for block in _level_blocks(system.grid, len(pairs))]
    columns = [np.concatenate(col).ravel() for col in zip(*blocks)]
    return columns, [Check("supercharge_eigenstate_residual", np.max(columns[4], initial=0.0),
                           INTERTWINE_TOL)]


def _intertwine_deviations(system, pp, mm):
    """verify's per-level values for a block of paired eigenpairs pp (H+) and mm (H-).

    Three lists over the levels: sqrt(dx) ||aligned map - psi-||, the
    deviation |dx ||B psi-||^2 - E-|, and the four supercharge residuals of
    each level, levels outer.
    """
    raw = spectral.intertwine_down(system, pp)
    dx = system.grid.dx
    gap = spectral.align_phase(raw, mm.state).amplitudes - mm.state.amplitudes
    images = system.B @ mm.state.amplitudes
    # norm ** 2 of a Python float is libm pow, as for one state's norm alone;
    # an array's ** 2 is x * x, which can differ in the last bit
    return ((math.sqrt(dx) * np.sqrt(grid.sum_of_squares(gap))).tolist(),
            [abs(dx * norm ** 2 - e) for norm, e in zip(
                np.sqrt(grid.sum_of_squares(images)).tolist(), mm.energy.tolist())],
            entanglement.supercharge_residuals(system, pp.energy, pp.state, raw).ravel().tolist())


def _susy_identities(system):
    """verify's five (2n - 1)-square identity checks, in O(n).

    Every operator is read in the order of `SusySystem.Q1`, where
    H = diag(H+, H-) is pentadiagonal: its rows interleave the n rows of H-
    with the n - 1 rows of H+, each side's bands formed separately. The four
    products come from `supercharge_products`, one at a time:
    Q2^2 = -R^2, {Q1, Q2} = -i {Q1, R}, and {sz, Q1} gives both the parity
    and the hermiticity check.
    """
    H = np.zeros((5, 2 * system.grid.n_points - 1))
    H[0::2, 0::2] = operators.band_rows(system.H_minus)
    H[0::2, 1::2] = operators.band_rows(system.H_plus)
    products = operators.supercharge_products(system.Q1)  # each reduced before the next is formed
    max_abs = operators.band_max_abs  # read at call time: a tracer may patch it
    return [
        Check("q1_squared_vs_hamiltonian", max_abs(next(products) - H), MATRIX_SQ_TOL),
        Check("q2_squared_vs_hamiltonian", max_abs(next(products) + H), MATRIX_SQ_TOL),
        Check("anticommutator_q1_q2", max_abs(next(products)), ANTICOMM_TOL),
        Check("anticommutator_parity_q1", parity := max_abs(next(products)), ANTICOMM_TOL),
        Check("q2_hermiticity", parity, ANTICOMM_TOL),
    ]


def verify(system, levels):
    """The eleven checks of `verify`, in report order.

    Every H+ level and levels 1.. of H- are formed: no check reads H-'s
    kernel vector.
    """
    plus, minus, _, zero_mode_checks = spectrum(system, levels)
    plus_pairs = spectral.eigenstates(plus, system.grid)
    minus_pairs = spectral.eigenstates(minus, system.grid, slice(1, None))
    deviations = [_intertwine_deviations(system, plus_pairs[block], minus_pairs[block])
                  for block in _level_blocks(system.grid, len(plus_pairs))]
    # each a list over report levels 1..levels, ascending
    maps, energies, residuals = ([value for block in column for value in block]
                                 for column in zip(*deviations))
    return [
        Check("pairing_max_gap", np.max(np.abs(plus.values - minus.values[1:])),
              spectral.PAIR_TOL),
        *zero_mode_checks,
        Check("intertwine_map_residual", np.max(maps, initial=0.0), INTERTWINE_TOL),
        Check("intertwine_energy_deviation", np.max(energies, initial=0.0), INTERTWINE_TOL),
        Check("supercharge_eigenstate_residual", np.max(residuals, initial=0.0),
              INTERTWINE_TOL),
        *_susy_identities(system),
    ]
