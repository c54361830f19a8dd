"""Every verdict of the commands, as one `Check(name, value, bound)` each.

This module alone builds a `Check` and holds a bound: the layers compute,
and the functions here judge. `spectrum`, `entangle`, `supercharge` and
`verify` take a `SusySystem` and a level count and return their command's
checks with the report columns computed alongside; `jc` takes a `JCSystem`
and returns its match and algebra reports with a check for each failed
value of the match. Pairing is judged here alone: the solves return the
partner levels as found, and `spectrum`, `entangle` and `verify` read their
largest gap against `spectral.PAIR_TOL`, so a config whose levels do not
pair writes its reports and fails that check. The four supercharge
eigenstates of a level share one residual and one concurrence, both read
from the level's one Q1 + state (`entanglement.supercharge_state`), which
the supercharge report writes on the level's four (family, sign) rows.
Other layers are called through their modules, so a tracer patching their
namespaces sees these calls.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import entanglement, grid, jaynescummings, operators, spectral

INTERTWINE_TOL = 1e-8
MATRIX_SQ_TOL = 1e-13
ANTICOMM_TOL = 1e-12
# the zero mode's residual ||H- psi0|| / ||psi0|| is at most ZERO_MODE_TOL ||H-||
ZERO_MODE_TOL = 1e-12
# a jc level matches when its gap is at most GAP_TOL and its fidelity
# deficit 1 - F at most FIDELITY_TOL
GAP_TOL = 1e-10
FIDELITY_TOL = 1e-10
# bytes of one real (levels, n) array in the batched supercharge pass. A
# block's intertwined states, its one Q1 state and the temporaries of its
# residuals hold about ten such arrays at once, so a block adds under 1 MB
# to a run at any grid size: 6 levels a block at 1001 points, 3 at 2001, 1
# from 3073 points on
SUPERCHARGE_BLOCK_BYTES = 48 * 1024
# the family and sign of a level's four supercharge rows, in report order:
# the order of `entanglement.supercharge_eigenstates`
_FAMILIES, _SIGNS = ("q1", "q1", "q2", "q2"), (+1, -1, +1, -1)


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


def _pairing(plus, minus):
    """The pairing verdict: the largest gap between H+ level i and H- level i + 1."""
    return Check("pairing_max_gap", np.max(np.abs(plus.values - minus.values[1:])),
                 spectral.PAIR_TOL)


def spectrum(system, levels):
    """(plus, minus, psi0, checks): the partner levels, the zero mode and three checks.

    `solve_partners` gives H+ levels 0..levels - 1 and H- levels 0..levels;
    H+ level i pairs with H- level i + 1. The checks are the pairing and
    the zero mode's two: H-'s level 0, its zero by B's construction, is
    bisected only to about eps ||H-||.
    """
    plus, minus = spectral.solve_partners(system.H_plus, system.H_minus, levels)
    psi0 = spectral.zero_mode(system)
    residual = np.sqrt(grid.sum_of_squares(system.H_minus @ psi0.amplitudes))
    residual /= np.sqrt(grid.sum_of_squares(psi0.amplitudes))
    return plus, minus, psi0, [
        _pairing(plus, minus),
        Check("zero_mode_present", abs(minus.values[0]), spectral.EPS0),
        Check("zero_mode_residual", residual,
              ZERO_MODE_TOL * spectral.operator_norm(system.H_minus)),
    ]


def entangle(system, level):
    """(pp, mm, checks): the eigenpairs of report level `level` and the pairing check.

    Report level k is H+ level k - 1 and H- level k, and only those two
    eigenstates are formed, both on the nodes (`spectral.on_nodes`); the
    pairing is that of levels 1..level, as `spectrum` reads it.
    """
    plus, minus = spectral.solve_partners(system.H_plus, system.H_minus, level)
    pp, mm = (spectral.eigenstates(side, system.grid, slice(k, k + 1))[0]
              for side, k in ((plus, level - 1), (minus, level)))
    return spectral.EigenPair(pp.energy, spectral.on_nodes(pp.state, system.grid)), mm, [
        _pairing(plus, minus)]


def _level_blocks(grid, count):
    """Slices of a batch of `count` levels in ascending blocks, for the batched supercharge pass.

    A block holds as many levels as fit one real array of
    SUPERCHARGE_BLOCK_BYTES on `grid`, at least one. Each command builds and
    drops a block's states inside one call (`_supercharge_values`,
    `_intertwine_deviations`), its H+ states put on the nodes there, so one
    block's arrays are alive at a time beside the batch on the cells.
    """
    step = max(1, SUPERCHARGE_BLOCK_BYTES // (8 * grid.n_points))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _supercharge_values(system, pp):
    """The concurrence and the residual of each level of a block `pp` of H+ eigenpairs.

    Two arrays over the levels, each entry what its level gives alone, bit
    for bit, both read from the block's one Q1 + state. Its up half is `pp`
    put on the nodes, its down half intertwine_down of `pp`, which carries
    the relative phase the eigenstates need.
    """
    state = entanglement.supercharge_state(spectral.on_nodes(pp.state, system.grid),
                                           spectral.intertwine_down(system, pp))
    # the concurrence checks each state's unit norm before its residual is reduced
    return (entanglement.concurrence_from_spin(state),
            entanglement.supercharge_residuals(system, pp.energy, state))


def supercharge(system, levels):
    """(columns, checks) of the supercharge report: a row per (level, family, sign), levels outer.

    The columns are index, energy, family, sign, residual and concurrence;
    a level's four rows repeat its energy, residual and concurrence.
    """
    pairs = spectral.eigenstates(spectral.solve_plus(system.H_plus, levels), system.grid)
    concurrence, residual = (np.concatenate(col) for col in zip(*(
        _supercharge_values(system, pairs[block])
        for block in _level_blocks(system.grid, len(pairs)))))
    n = len(pairs)
    columns = [np.repeat(np.arange(1, n + 1), 4), np.repeat(pairs.energy, 4),
               np.tile(_FAMILIES, n), np.tile(_SIGNS, n),
               np.repeat(residual, 4), np.repeat(concurrence, 4)]
    return columns, [Check("supercharge_eigenstate_residual", np.max(residual, initial=0.0),
                           INTERTWINE_TOL)]


def _intertwine_deviations(system, pp, mm):
    """verify's per-level values for a block of paired eigenpairs pp (H+) and mm (H-).

    Three lists over the levels: sqrt(dx) ||aligned map - psi-||, the
    deviation |dx ||B psi-||^2 - E-|, and the supercharge residual its four
    states share.
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
            entanglement.supercharge_residuals(system, pp.energy, entanglement.supercharge_state(
                spectral.on_nodes(pp.state, system.grid), raw)).tolist())


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
    """The eleven checks of `verify`, in report order, `spectrum`'s three first.

    Every H+ level and levels 1.. of H- are formed: no check reads H-'s
    kernel vector. The levels are read whether they pair or not, so a
    failed pairing is recorded with the other checks.
    """
    plus, minus, _, spectrum_checks = spectrum(system, levels)
    plus_pairs = spectral.eigenstates(plus, system.grid)
    minus_pairs = spectral.eigenstates(minus, system.grid, slice(1, None))
    deviations = [_intertwine_deviations(system, plus_pairs[block], minus_pairs[block])
                  for block in _level_blocks(system.grid, len(plus_pairs))]
    # each a list over report levels 1..levels, ascending
    maps, energies, residuals = ([value for block in column for value in block]
                                 for column in zip(*deviations))
    return [
        *spectrum_checks,
        Check("intertwine_map_residual", np.max(maps, initial=0.0), INTERTWINE_TOL),
        Check("intertwine_energy_deviation", np.max(energies, initial=0.0), INTERTWINE_TOL),
        Check("supercharge_eigenstate_residual", np.max(residuals, initial=0.0),
              INTERTWINE_TOL),
        *_susy_identities(system),
    ]


def jc(system):
    """(match, algebra, checks) of the jc report: a check for each failed value of the match.

    `match` is `jaynescummings.numeric_vs_analytic` and `algebra`
    `verify_susy_algebra` of `system`. Row by row, a row's gap (against
    GAP_TOL) before its fidelity deficit 1 - F (against FIDELITY_TOL), each
    failed value is one check named `gap[n=..,branch=..]` or
    `fidelity_deficit[n=..,branch=..]`. A value passes when it is at most
    its bound, so the NaN fidelity of a block with neither coupling nor
    splitting fails. Only failed values become checks: every row of a large
    n_max as a check would cost more than the match.
    """
    match = jaynescummings.numeric_vs_analytic(system)
    algebra = jaynescummings.verify_susy_algebra(system)
    values, bounds = np.stack([match.gap, 1.0 - match.fidelity], axis=1), (GAP_TOL, FIDELITY_TOL)
    row, kind = np.nonzero(~(values <= bounds))
    return match, algebra, [
        Check(f"{('gap', 'fidelity_deficit')[k]}[n={match.n[r]},branch={match.branch[r]}]",
              values[r, k], bounds[k]) for r, k in zip(row.tolist(), kind.tolist())]
