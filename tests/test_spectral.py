"""Eigensolver, partner-level pairing, zero mode and intertwining maps."""

import dataclasses
import decimal

import mpmath
import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

import susyqm as sq
from susyqm import checks, spectral
from susyqm.spectral import PAIR_TOL


class TestSolveSpectrum:
    def test_diagonal_matrix_sorted(self):
        grid = sq.make_grid(0.0, 2.0, 3)  # dx = 1: amplitudes are the unit vectors
        pairs = sq.solve_spectrum(sq.Tridiagonal([3.0, 1.0, 2.0], [0.0, 0.0]), 3, grid)
        assert [p.energy for p in pairs] == [1.0, 2.0, 3.0]
        # phase convention: each state is a canonical basis vector, + sign
        assert np.array_equal(pairs[0].state.amplitudes, [0.0, 1.0, 0.0])
        assert np.array_equal(pairs[1].state.amplitudes, [0.0, 0.0, 1.0])
        assert np.array_equal(pairs[2].state.amplitudes, [1.0, 0.0, 0.0])

    def test_harmonic_partner_levels_track_integer_ladder(self, systems, grid2001):
        # second-order scheme: E_n = n - n^2 dx^2 / 4 + O(dx^4)
        dx = grid2001.dx
        minus = sq.solve_spectrum(systems["harmonic"].H_minus, 6, grid2001)
        for n, pair in enumerate(minus):
            assert pair.energy == pytest.approx(n - n * n * dx * dx / 4, abs=5e-6)
        plus = sq.solve_spectrum(systems["harmonic"].H_plus, 5, grid2001)
        for n, pair in enumerate(plus, start=1):  # H+ level n - 1 is H- level n
            assert pair.energy == pytest.approx(n - n * n * dx * dx / 4, abs=5e-6)

    def test_energies_ascending_states_orthonormal(self, spectra, grid2001):
        plus, _ = spectra["cubic"]
        energies = [p.energy for p in plus]
        assert energies == sorted(energies)
        V = np.column_stack([p.state.amplitudes for p in plus])
        gram = V.T @ V * grid2001.dx
        assert np.max(np.abs(gram - np.eye(len(plus)))) <= 1e-10

    def test_dense_fallback_matches_numpy(self):
        # the banded solve against numpy's dense solver on a random tridiagonal
        rng = np.random.default_rng(7)
        H = sq.Tridiagonal(rng.normal(size=40), rng.normal(size=39))
        pairs = sq.solve_spectrum(H, 5, sq.make_grid(0.0, 39.0, 40))
        expected = np.sort(np.linalg.eigvalsh(H.to_dense()))[:5]
        assert np.allclose([p.energy for p in pairs], expected, atol=1e-12)

    def test_k_out_of_range(self):
        H = sq.Tridiagonal(np.ones(4), np.zeros(3))
        with pytest.raises(ValueError):
            sq.solve_spectrum(H, 5, sq.make_grid(0.0, 3.0, 4))

    def test_bands_beyond_squaring_range(self):
        # bisection squares the off-diagonal: 2^600 times a matrix must still
        # solve, to the same eigenpairs scaled
        rng = np.random.default_rng(13)
        d, e = rng.normal(size=30), rng.normal(size=29)
        small, big = sq.Tridiagonal(d, e), sq.Tridiagonal(np.ldexp(d, 600), np.ldexp(e, 600))
        grid = sq.make_grid(0.0, 29.0, 30)
        norm = sq.operator_norm(small)
        assert np.ldexp(sq.operator_norm(big), -600) == pytest.approx(norm, rel=1e-12)
        for s, b in zip(sq.solve_spectrum(small, 4, grid), sq.solve_spectrum(big, 4, grid)):
            assert abs(np.ldexp(b.energy, -600) - s.energy) <= 1e-12 * norm
            assert abs(sq.inner_product(s.state, b.state)) == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_repeat(self, systems, grid2001):
        a = sq.solve_spectrum(systems["tanh"].H_minus, 4, grid2001)
        b = sq.solve_spectrum(systems["tanh"].H_minus, 4, grid2001)
        for pa, pb in zip(a, b):
            assert pa.energy == pb.energy
            assert np.array_equal(pa.state.amplitudes, pb.state.amplitudes)


WINDOW_CASES = [(n, levels) for n in (201, 1001, 2001, 8001) for levels in (6, n // 10 - 1)]


def max_ulps(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / np.spacing(np.abs(want))))


def diagonal(levels):
    """A Tridiagonal whose levels are `levels`: its diagonal, off-diagonal zero."""
    return sq.Tridiagonal(np.asarray(levels, dtype=float), np.zeros(len(levels) - 1))


class TestSolveInPairingWindows:
    """H- is bisected inside the pairing windows of the H+ levels: one count per window."""

    @pytest.mark.parametrize("n_points, levels", WINDOW_CASES)
    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_matches_blind_solve(self, name, n_points, levels):
        # energies within 2 ulp of the blind bisection, vectors to 1e-12,
        # the 800 vectors at 8001 points too
        grid = sq.make_grid(-10.0, 10.0, n_points)
        system = sq.build_susy_system(sq.get_superpotential(name), grid)
        k = levels + 1
        _, found = sq.solve_partners(system.H_plus, system.H_minus, levels)
        assert found.counts == (1,) * k  # the windows held, no blind solve
        found = sq.eigenstates(found, grid)
        blind = sq.solve_spectrum(system.H_minus, k, grid)
        assert len(found) == k
        assert max_ulps([p.energy for p in found], [p.energy for p in blind]) <= 2
        for w, b in zip(found, blind):
            assert abs(sq.inner_product(w.state, b.state)) >= 1.0 - 1e-12

    def test_bands_beyond_squaring_range(self, monkeypatch):
        # bands of both sides and the tolerance scaled by 2^600 take the windows too
        grid = sq.make_grid(-10.0, 10.0, 1001)
        system = sq.build_susy_system(sq.get_superpotential("shifted_cubic"), grid)
        big_plus, big = (sq.Tridiagonal(np.ldexp(H.diag, 600), np.ldexp(H.off, 600))
                         for H in (system.H_plus, system.H_minus))
        monkeypatch.setattr(spectral, "PAIR_TOL", np.ldexp(PAIR_TOL, 600))
        _, found = sq.solve_partners(big_plus, big, 6)
        assert found.counts == (1,) * 7
        found = sq.eigenstates(found, grid)
        blind = sq.solve_spectrum(big, 7, grid)
        assert max_ulps([p.energy for p in found], [p.energy for p in blind]) <= 2
        for w, b in zip(found, blind):
            assert abs(sq.inner_product(w.state, b.state)) >= 1.0 - 1e-12

    def test_no_result_unless_the_plus_levels_are_the_partners(self, systems):
        # the windows reproduce the k lowest H- levels only when the H+
        # levels, with no zero, are H-'s levels 1..; H+ here is diagonal,
        # with the harmonic H+ levels on it
        system = systems["harmonic"]
        plus = system.H_plus.eigh(0, 6).values
        _, found = sq.solve_partners(diagonal(plus), system.H_minus, 6)
        assert found.counts == (1,) * 7
        # the lowest level missing: the windows sit one level up and the
        # count fails, so H- is bisected blind and its levels, as found,
        # fail the pairing check from the first pair on
        shifted, found = sq.solve_partners(diagonal(plus[1:]), system.H_minus, 6)
        assert found.counts == (7,)
        assert found.values.tolist() == system.H_minus.eigh(0, 6).values.tolist()
        assert checks._pairing(shifted, found).passed is False
        # a zero added: level 0 of H+ is a second zero mode
        lifted = np.concatenate([[0.0], plus[:-1]])
        with pytest.raises(sq.DegeneracyError, match="a second zero mode"):
            sq.solve_partners(diagonal(lifted), system.H_minus, 6)

    def test_crowded_levels_fall_back_to_the_blind_solve(self):
        # two levels 1e-10 apart: window 1 takes both and window 2 none, so
        # H- is bisected blind, and the pairs still hold level for level
        levels = [0.0, 1.0, 1.0 + 1e-10, 2.0]
        windows = [(-np.inf, sq.EPS0), (1.0 - PAIR_TOL, 1.0 + PAIR_TOL),
                   (1.0 + PAIR_TOL, 1.0 + 1e-10 + PAIR_TOL), (2.0 - PAIR_TOL, 2.0 + PAIR_TOL)]
        assert diagonal(levels).eigh_windows(windows).counts == (1, 2, 0, 1)
        plus, minus = sq.solve_partners(diagonal(levels[1:]), diagonal(levels), 3)
        assert minus.counts == (4,)  # one index selection: the blind solve
        assert plus.values.tolist() == minus.values[1:].tolist() == levels[1:]

    def test_crowded_levels_fall_back_without_reading_levels(self, monkeypatch):
        # a caller that reads no H- level solves H+ alone: the crowded
        # levels that send the pairing above to the blind H- solve come
        # back as they are, from one bisection of H+, and no H- is touched
        levels = [1.0, 1.0 + 1e-10, 2.0]
        H_plus = diagonal(levels)
        touched = bisected(monkeypatch)
        plus = sq.solve_plus(H_plus, 3)
        assert touched == [H_plus]
        assert plus.counts == (3,)
        assert plus.values.tolist() == levels

    def test_second_zero_mode_raises_before_h_minus_is_touched(self, monkeypatch):
        touched = bisected(monkeypatch)
        H_plus, H_minus = diagonal([5e-11, 1.0]), diagonal([1e-14, 5e-11, 1.0])
        with pytest.raises(sq.DegeneracyError, match="a second zero mode"):
            sq.solve_partners(H_plus, H_minus, 2)
        assert touched == [H_plus]

    @pytest.mark.parametrize("solve", (
        lambda H_plus: sq.solve_plus(H_plus, 2),
        lambda H_plus: sq.solve_partners(H_plus, diagonal([0.0, sq.EPS0, 1.0]), 2),
    ), ids=("solve_plus", "solve_partners"))
    def test_level_at_eps0_is_a_second_zero_mode(self, solve):
        # the zero window of H- is (-inf, EPS0], and intertwine_down refuses
        # E <= EPS0: an H+ level 0 of exactly EPS0 is a second zero mode, not
        # a level whose partner state divides by sqrt(E) later
        with pytest.raises(sq.DegeneracyError, match="a second zero mode") as err:
            solve(diagonal([sq.EPS0, 1.0]))
        assert err.value.level == sq.EPS0

    @pytest.mark.parametrize("levels", (0, -1))
    def test_levels_below_one_rejected(self, levels):
        with pytest.raises(ValueError, match="levels must be >= 1"):
            sq.solve_partners(diagonal([0.0, 1.0]), diagonal([0.0, 1.0]), levels)
        with pytest.raises(ValueError, match="levels must be >= 1"):
            sq.solve_plus(diagonal([0.0, 1.0]), levels)


def bisected(monkeypatch):
    """The Tridiagonals bisected from now on, in order (`eigh` and `eigh_windows`)."""
    touched = []
    for name in ("eigh", "eigh_windows"):
        method = getattr(sq.Tridiagonal, name)

        def spy(H, *args, _method=method, **kwargs):
            touched.append(H)
            return _method(H, *args, **kwargs)
        monkeypatch.setattr(sq.Tridiagonal, name, spy)
    return touched


def pairing_outcome(plus_levels, minus_levels, levels):
    """How `solve_partners` and the pairing check end on two diagonal
    Tridiagonals: (the check, windowed, H- values), windowed True when the
    H- windows held, so H- was not bisected blind."""
    plus, minus = sq.solve_partners(diagonal(plus_levels), diagonal(minus_levels), levels)
    return (checks._pairing(plus, minus), minus.counts == (1,) * (levels + 1),
            minus.values.tolist())


def gap_rule(plus_levels, minus_levels, levels):
    """The pairing check read off exact levels: the largest gap between H+
    level i of 0..levels - 1 and H- level i + 1, against PAIR_TOL."""
    e_plus, e_minus = plus_levels[:levels], sorted(minus_levels)[:levels + 1]
    return checks.Check("pairing_max_gap", max(
        abs(ep - em) for ep, em in zip(map(float, e_plus), map(float, e_minus[1:]))), PAIR_TOL)


class TestCountCertificate:
    """The pairing windows give the exact levels, and the check the gap rule's verdict on them.

    Each side is a diagonal Tridiagonal, whose Sturm count flips exactly at
    its levels and whose bisected levels are its diagonal, so a level can be
    put at any float next to a window's end and the verdict read off the
    levels themselves. (The name is that of the count certificate, a second
    pairing path these inputs pinned; `supercharge` now solves H+ alone.)
    """

    @staticmethod
    def same_verdict(plus_levels, minus_levels, levels):
        check, windowed, values = pairing_outcome(plus_levels, minus_levels, levels)
        # windowed or blind, the H- levels are the exact lowest ones
        assert values == sorted(minus_levels)[:levels + 1]
        assert check == gap_rule(plus_levels, minus_levels, levels)
        return check, windowed

    @pytest.mark.parametrize("e", (1.0, 3.7, 6.5e4, 6e5, 4e6))
    def test_levels_next_to_the_window_ends(self, e):
        # H- level at e +- PAIR_TOL + k ulp(e), k in -6..6: where fl(e +-
        # PAIR_TOL) rounds outward the window holds a level the gap rule
        # rejects, and the pairing check fails on it. From 2^20 on
        # an ulp of e exceeds 2 PAIR_TOL, so fl(e +- PAIR_TOL) = e, the
        # level's window is empty and every case is bisected blind
        outcomes = [self.same_verdict([e], [0.0, em], 1)
                    for em in (e + side * PAIR_TOL + k * np.spacing(e)
                               for side in (-1, 1) for k in range(-6, 7))]
        windowed = sum(check.passed and held for check, held in outcomes)
        assert windowed > 0 if e < 2.0 ** 20 else windowed == 0
        assert {check.passed for check, _ in outcomes} == {True, False}

    @pytest.mark.parametrize("n_points", (201, 1001, 2001))
    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_bundled_systems_pair_on_counts(self, name, n_points):
        # at the levels cap every level of the bundled W pairs through the
        # windows, with no blind H- solve
        system = sq.build_susy_system(sq.get_superpotential(name),
                                      sq.make_grid(-10.0, 10.0, n_points))
        levels = n_points // 10 - 1
        plus, minus = sq.solve_partners(system.H_plus, system.H_minus, levels)
        assert minus.counts == (1,) * (levels + 1)
        assert np.max(np.abs(plus.values - minus.values[1:])) <= PAIR_TOL

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_property_same_verdict_as_the_bisection(self, data):
        scale = data.draw(st.sampled_from((1.0, 3.7, 6.5e4, 6e5, 4e6)))
        count = data.draw(st.integers(1, 4))
        e_plus = [scale * (1 + i) for i in range(count)]
        e_minus = [e + data.draw(st.sampled_from((-1, 0, 1))) * PAIR_TOL
                   + data.draw(st.integers(-6, 6)) * np.spacing(e) for e in e_plus]
        # the H- zero mode, lifted above EPS0 now and then, and a stray H- level
        zero = data.draw(st.sampled_from((0.0, 1e-14, 2e-10)))
        stray = data.draw(st.sampled_from(([], [scale * 0.5], [scale * (count + 0.5)])))
        self.same_verdict(e_plus, sorted([zero, *e_minus, *stray]), count)


class TestPairPartnerLevels:
    """Level 0 of H- is its zero; H+ level i pairs with H- level i + 1.

    Each side is a diagonal Tridiagonal, whose levels are its diagonal.
    """

    def test_exact_lists_with_zero_mode(self):
        plus, minus = sq.solve_partners(diagonal([1.0, 2.0]), diagonal([0.0, 1.0, 2.0]), 2)
        assert list(zip(plus.values.tolist(), minus.values[1:].tolist())) == [(1, 1), (2, 2)]
        assert minus.values[0] == 0.0

    def test_forced_mismatch_names_offending_level(self):
        # the levels come back as found, and the pairing check reads the
        # offending level's gap
        plus, minus = sq.solve_partners(diagonal([1.5]), diagonal([0.0, 1.0]), 1)
        assert (plus.values.tolist(), minus.values.tolist()) == ([1.5], [0.0, 1.0])
        assert checks._pairing(plus, minus) == checks.Check("pairing_max_gap", 0.5, PAIR_TOL)
        assert checks._pairing(plus, minus).passed is False

    def test_double_zero_mode_rejected(self):
        # a paired H+ level below EPS0 is a second zero mode, even when its
        # H- partner matches it within tol
        with pytest.raises(sq.DegeneracyError) as err:
            sq.solve_partners(diagonal([5e-11, 1.0]), diagonal([1e-14, 5e-11, 1.0]), 2)
        assert err.value.level == 5e-11
        assert "a second zero mode" in str(err.value)

    def test_lifted_zero_mode_keeps_levels_paired(self, monkeypatch):
        # the H- zero mode bisected to 2^-23, as at 2^20 + 1 harmonic
        # points: the pairs stay level for level, and only the zero-mode
        # verdict fails, here among `spectrum`'s checks given these levels
        plus, minus = sq.solve_partners(
            diagonal([1.0, 2.0]), diagonal([2.0 ** -23, 1.0, 2.0]), 2)
        assert plus.values.tolist() == minus.values[1:].tolist() == [1.0, 2.0]
        assert minus.values[0] == 2.0 ** -23
        monkeypatch.setattr(spectral, "solve_partners", lambda *args: (plus, minus))
        system = sq.build_susy_system(sq.get_superpotential("harmonic"),
                                      sq.make_grid(-10.0, 10.0, 201))
        pairing, present, _ = checks.spectrum(system, 2)[3]
        assert pairing == checks.Check("pairing_max_gap", 0.0, PAIR_TOL)
        assert present == checks.Check("zero_mode_present", 2.0 ** -23, sq.EPS0)
        assert pairing.passed is True and present.passed is False

    def test_trailing_tail_recorded_not_fatal(self):
        # an H+ level above the levels asked for is never read
        plus, minus = sq.solve_partners(
            diagonal([1.0, 2.0, 9.0]), diagonal([0.0, 1.0, 2.0]), 2)
        assert plus.values.tolist() == minus.values[1:].tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic"))
    def test_bundled_superpotentials_pair_tightly(self, systems, name):
        plus, minus = sq.solve_partners(systems[name].H_plus, systems[name].H_minus, 6)
        assert plus.values.size + 1 == minus.values.size == 7
        assert np.max(np.abs(plus.values - minus.values[1:])) <= 1e-10
        assert abs(minus.values[0]) <= sq.EPS0

    @given(
        ticks=st.lists(st.integers(1, 1000), min_size=1, max_size=8, unique=True),
        jitter=st.lists(st.floats(-1e-12, 1e-12), min_size=8, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_jittered_twins_always_pair(self, ticks, jitter):
        levels = [0.05 * t for t in sorted(ticks)]  # separation far above tol
        plus, minus = sq.solve_partners(
            diagonal(levels), diagonal([0.0] + [e + j for e, j in zip(levels, jitter)]),
            len(levels))
        assert minus.counts == (1,) * (len(levels) + 1)
        assert np.max(np.abs(plus.values - minus.values[1:])) <= 1e-10


class TestZeroLevelsFromStructure:
    """B's kernel is the one zero of the pair, at level 0 of H-, by construction."""

    @pytest.mark.parametrize("n_points", (201, 2001, 8001))
    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_one_zero_a_side(self, name, n_points):
        # one zero for the two sides: B is one row short of square, so H+
        # on its n - 1 cells has none and H- one, its level 0; every other
        # level is a nonzero squared singular value of B, at least EPS0
        system = sq.build_susy_system(sq.get_superpotential(name),
                                      sq.make_grid(-10.0, 10.0, n_points))
        assert system.H_plus.shape == (n_points - 1, n_points - 1)
        assert abs(system.H_minus.eigh(0, 0).values[0]) <= sq.EPS0
        assert system.H_plus.eigh(0, 0).values[0] >= sq.EPS0
        assert system.H_minus.eigh(1, 1).values[0] >= sq.EPS0

    @pytest.mark.parametrize("n_points", (21, 201, 2001))
    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_b_is_one_row_short_and_q1_has_one_zero(self, name, n_points):
        # B is (n - 1) x n and H+- are its products; counted by Sturm counts
        # (tol = inf reads only the counts), H+ has no level at or below EPS0,
        # H- one, and Q1, of size 2n - 1, one in (-EPS0, EPS0]
        system = sq.build_susy_system(sq.get_superpotential(name),
                                      sq.make_grid(-10.0, 10.0, n_points))
        B = sps.csr_matrix(system.B.to_dense())
        assert B.shape == (n_points - 1, n_points)
        assert np.array_equal(system.H_plus.to_dense(), (B @ B.T).toarray())
        assert np.array_equal(system.H_minus.to_dense(), (B.T @ B).toarray())
        low = [(-np.inf, sq.EPS0)]
        assert system.H_plus.eigh_windows(low, tol=np.inf).counts == (0,)
        assert system.H_minus.eigh_windows(low, tol=np.inf).counts == (1,)
        Q1 = system.Q1
        assert Q1.shape == (2 * n_points - 1, 2 * n_points - 1)
        assert Q1.eigh_windows([(-sq.EPS0, sq.EPS0)], tol=np.inf).counts == (1,)


class TestZeroMode:
    def test_harmonic_matches_sampled_gaussian(self, systems, grid2001, normalize):
        psi0 = sq.zero_mode(systems["harmonic"])
        x = grid2001.nodes()
        gauss = normalize(sq.Wavefunction(grid2001, np.exp(-x * x / 2)))
        # node sampling of the analytic profile carries an O(dx^2) deficit
        assert abs(sq.inner_product(psi0, gauss)) >= 1 - 1e-5

    def test_tanh_matches_sampled_sech(self, systems, grid2001, normalize):
        psi0 = sq.zero_mode(systems["tanh"])
        sech = normalize(sq.Wavefunction(grid2001, 1 / np.cosh(grid2001.nodes())))
        assert abs(sq.inner_product(psi0, sech)) >= 1 - 1e-5

    def test_sign_condition_violation_raises(self):
        W = sq.get_superpotential("harmonic", scale=-1.0)
        system = sq.build_susy_system(W, sq.make_grid(-10, 10, 201))
        with pytest.raises(sq.SignConditionError):
            sq.zero_mode(system)

    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic"))
    def test_recursion_is_discrete_kernel(self, systems, grid2001, name):
        # psi_{i+1} = -(diag_i / off_i) psi_i, read off B's bands, solves
        # B psi = 0 row by row
        psi0 = sq.zero_mode(systems[name])
        resid = np.sqrt(grid2001.dx) * np.linalg.norm(
            systems[name].B @ psi0.amplitudes)
        assert resid <= 1e-12

    @pytest.mark.parametrize("n_points", (201, 2001))
    def test_kernel_follows_b_not_w(self, n_points):
        # B from W = x^3, W swapped for x afterwards: the zero mode is the
        # kernel of the stored B, W only decides the sign condition
        grid = sq.make_grid(-10.0, 10.0, n_points)
        system = dataclasses.replace(
            sq.build_susy_system(sq.get_superpotential("cubic"), grid),
            W=sq.get_superpotential("harmonic"))
        psi0 = sq.zero_mode(system)
        resid = np.sqrt(grid.dx) * np.linalg.norm(system.B @ psi0.amplitudes)
        assert resid <= 1e-12

    @pytest.mark.parametrize("n_points", (201, 2001, 8001))
    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_matches_recursion_from_w(self, zero_mode_from_w, name, n_points):
        W = sq.get_superpotential(name)
        grid = sq.make_grid(-10.0, 10.0, n_points)
        psi0 = sq.zero_mode(sq.build_susy_system(W, grid)).amplitudes
        oracle = zero_mode_from_w(W, grid)
        assert np.max(np.abs(psi0 - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_tanh_kernel_residual_is_a_wall_effect(self, systems, grid2001):
        # sech decays too slowly to vanish at x = 10, yet B has no wall
        # equation, only a row a cell, so the boundary amplitude leaves no
        # residual on any row, the last cell's included
        system = systems["tanh"]
        psi0 = sq.zero_mode(system)
        assert psi0.amplitudes[-1] > 1e-5
        resid_vec = system.B @ psi0.amplitudes
        assert resid_vec.shape == (grid2001.n_points - 1,)
        assert np.sqrt(grid2001.dx) * np.linalg.norm(resid_vec) <= 1e-12
        assert np.sqrt(grid2001.dx) * abs(resid_vec[-1]) <= 1e-12

    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_agrees_with_analytic_integral_profile(
            self, systems, zero_mode_profile_overlap, name):
        assert zero_mode_profile_overlap(systems[name]) >= 1 - 1e-5

    @pytest.mark.parametrize("n_points", (201, 2001, 32001))
    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_blocked_product_is_the_sequential_loop(self, zero_mode_sequential, name, n_points):
        system = sq.build_susy_system(sq.get_superpotential(name),
                                      sq.make_grid(-10.0, 10.0, n_points))
        got = sq.zero_mode(system).amplitudes
        assert got.tobytes() == zero_mode_sequential(system).tobytes()

    def test_stiff_cell_box_is_the_sequential_loop(self, zero_mode_sequential):
        # harmonic 1e5 x at dx = 0.1: every cell with x > 0 is stiff, its
        # ratio 1/(1 + dx W) down to 1e-5, and the tail underflows to zero
        grid = sq.make_grid(-10.0, 10.0, 201)
        W = sq.get_superpotential("harmonic", scale=1e5)
        assert np.sum(1.0 - grid.dx * W(grid.nodes()) <= 0.0) == 100
        system = sq.build_susy_system(W, grid)
        got = sq.zero_mode(system).amplitudes
        assert got[-1] == 0.0 < got[100]
        assert got.tobytes() == zero_mode_sequential(system).tobytes()

    @pytest.mark.parametrize("ratios", (
        np.ldexp(1.0, np.tile([700, -700], 250)),  # blocks of one
        np.ldexp(1.0, np.tile([1000, -1060], 250)),  # subnormal products
        np.exp(np.random.default_rng(3).uniform(-14.0, 14.0, 500)),  # 20-octave ratios
        np.concatenate([np.full(300, 0.5), [0.0], np.full(199, 3.0)]),  # a zero ratio
        np.concatenate([np.full(300, 2.0), [-0.0], np.full(199, -1.5)]),
    ), ids=("huge", "subnormal", "random", "zero", "negative_zero"))
    def test_extreme_ratios_are_the_sequential_loop(self, zero_mode_sequential, ratios):
        # B set by hand to diag_i = -r_i, off_i = 1: the block length follows
        # max|log2 r| down to blocks of one, and a zero ratio zeroes the rest
        grid = sq.make_grid(-10.0, 10.0, ratios.size + 1)
        B = sq.Bidiagonal(-ratios, np.ones(ratios.size))
        system = sq.SusySystem(grid, sq.get_superpotential("harmonic"), B, B.T, None, None)
        got = sq.zero_mode(system).amplitudes
        assert got.tobytes() == zero_mode_sequential(system).tobytes()

    def test_strong_superpotential_truncates_instead_of_oscillating(self, systems):
        # for W = x^3 the explicit factor 1 - dx W crosses zero inside the box;
        # the stiff-cell ratio keeps the kernel positive and its tail underflows
        psi0 = sq.zero_mode(systems["cubic"]).amplitudes
        nz = np.nonzero(psi0)[0]
        assert nz[-1] < psi0.size - 1
        assert np.all(psi0[nz[0]:nz[-1] + 1] > 0)


class TestIntertwining:
    def test_down_map_is_first_hermite(self, systems, grid2001, normalize):
        plus = sq.solve_spectrum(systems["harmonic"].H_plus, 1, grid2001)
        ground = plus[0]  # H+ has no zero: its level 0 is H-'s level 1
        assert ground.energy == pytest.approx(1.0, abs=1e-4)
        mapped = sq.intertwine_down(systems["harmonic"], ground)
        x = grid2001.nodes()
        herm1 = normalize(sq.Wavefunction(grid2001, x * np.exp(-x * x / 2)))
        assert abs(sq.inner_product(mapped, herm1)) >= 1 - 1e-4

    def test_round_trip_fidelity(self, systems, nonzero_levels, intertwine_up, norm):
        plus_nz, _ = nonzero_levels["harmonic"]
        pp = plus_nz[0]
        down = sq.intertwine_down(systems["harmonic"], pp)
        back = intertwine_up(
            systems["harmonic"], sq.EigenPair(pp.energy, down))
        fid = abs(sq.inner_product(back, pp.state)) ** 2 / norm(back) ** 2
        assert fid >= 1 - 1e-10

    def test_zero_mode_input_rejected(self, systems, spectra):
        # the zero mode's energy has no partner state, whatever the state
        plus, minus = spectra["harmonic"]
        assert minus[0].energy < sq.EPS0
        with pytest.raises(ValueError):
            sq.intertwine_down(systems["harmonic"], sq.EigenPair(minus[0].energy, plus[0].state))

    def test_nonzero_last_node_rejected(self, systems, spectra):
        # an H+ state lives on the n - 1 cells, 0 at the last node: a state
        # with anything else there is refused, not cut, alone or in a batch
        plus, _ = spectra["harmonic"]
        amps = plus.state.amplitudes.copy()
        assert np.all(amps[:, -1] == 0.0)
        amps[1, -1] = 1e-300
        bad = sq.EigenPair(plus.energy, sq.Wavefunction(plus.state.grid, amps))
        for pair in (bad, bad[1]):
            with pytest.raises(ValueError, match="last node"):
                sq.intertwine_down(systems["harmonic"], pair)
        assert sq.intertwine_down(systems["harmonic"], bad[0]).amplitudes.shape == amps[0].shape

    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic"))
    def test_mapped_state_matches_solved_partner(self, systems, nonzero_levels, name):
        plus_nz, minus_nz = nonzero_levels[name]
        for pp, mm in zip(plus_nz, minus_nz):
            mapped = sq.align_phase(sq.intertwine_down(systems[name], pp), mm.state)
            dev = np.sqrt(systems[name].grid.dx) * np.linalg.norm(
                mapped.amplitudes - mm.state.amplitudes)
            assert dev <= 1e-8

    @pytest.mark.parametrize("name", ("harmonic", "tanh"))
    def test_up_map_norm_squared_returns_energy(self, systems, nonzero_levels, name):
        _, minus_nz = nonzero_levels[name]
        for mm in minus_nz:
            val = systems[name].grid.dx * np.linalg.norm(
                systems[name].B @ mm.state.amplitudes) ** 2
            assert val == pytest.approx(mm.energy, abs=1e-8)


class TestBatches:
    """A batch of eigenpairs or states is taken row by row, bit for bit."""

    @pytest.fixture(scope="class")
    def harmonic(self):
        grid = sq.make_grid(-10.0, 10.0, 401)
        system = sq.build_susy_system(sq.get_superpotential("harmonic"), grid)
        plus, minus = sq.solve_partners(system.H_plus, system.H_minus, 12)
        return system, plus, minus

    @staticmethod
    def same_bits(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_eigenstates_are_phase_fixed_rows(self, harmonic):
        system, plus, _ = harmonic
        grid = system.grid
        pairs = sq.eigenstates(plus, grid)
        vectors = plus.vectors()
        assert vectors.shape == (400, 12)  # H+ on the cells
        assert len(pairs) == 12 and pairs.state.amplitudes.shape == (12, 401)
        for j, pair in enumerate(pairs):
            # on the nodes, 0 at the last, then phase-fixed and scaled
            assert type(pair.energy) is float and pair.energy == plus.values[j]
            assert self.same_bits(pair.state.amplitudes,
                                  sq.fix_phase(np.append(vectors[:, j], 0.0)) / np.sqrt(grid.dx))
        block = pairs[3:7]
        assert self.same_bits(block.energy, plus.values[3:7])
        assert self.same_bits(block.state.amplitudes, pairs.state.amplitudes[3:7])

    def test_intertwine_down_rows(self, harmonic):
        system, plus, _ = harmonic
        pairs = sq.eigenstates(plus, system.grid)
        mapped = sq.intertwine_down(system, pairs)
        for j, pair in enumerate(pairs):
            assert self.same_bits(mapped.amplitudes[j],
                                  sq.intertwine_down(system, pair).amplitudes)
        with pytest.raises(ValueError, match="energy 0.0 is at or below"):
            sq.intertwine_down(system, sq.EigenPair(np.append(pairs.energy[:2], 0.0),
                                                    pairs[:3].state))

    def test_align_phase_and_inner_product_rows(self, harmonic):
        system, plus, minus = harmonic
        grid = system.grid
        raw = sq.intertwine_down(system, sq.eigenstates(plus, grid))
        rng = np.random.default_rng(11)
        flips = sq.Wavefunction(grid, raw.amplitudes * rng.choice([-1.0, 1.0], (12, 1)))
        ref = sq.eigenstates(minus, grid)[1:].state
        twisted = sq.Wavefunction(grid, flips.amplitudes * np.exp(1j * rng.uniform(0, 7, (12, 1))))
        for mapped in (flips, twisted):
            aligned, ov = sq.align_phase(mapped, ref), sq.inner_product(mapped, ref)
            for j in range(12):
                one = sq.Wavefunction(grid, mapped.amplitudes[j])
                other = sq.Wavefunction(grid, ref.amplitudes[j])
                assert ov[j] == sq.inner_product(one, other)
                assert self.same_bits(aligned.amplitudes[j],
                                      sq.align_phase(one, other).amplitudes)

    def test_fix_phase_rows(self):
        rng = np.random.default_rng(12)
        for a in (rng.normal(size=(5, 9)),
                  rng.normal(size=(5, 9)) + 1j * rng.normal(size=(5, 9)),
                  np.zeros((2, 9)), np.zeros((2, 9), dtype=complex)):
            fixed = sq.fix_phase(a)
            for row, got in zip(a, fixed):
                assert self.same_bits(got, sq.fix_phase(row))


class TestOperatorNorm:
    def test_tridiagonal_matches_dense(self):
        rng = np.random.default_rng(11)
        H = sq.Tridiagonal(rng.normal(size=30), rng.normal(size=29))
        assert sq.operator_norm(H) == pytest.approx(
            np.max(np.abs(np.linalg.eigvalsh(H.to_dense()))), rel=1e-12)

    @staticmethod
    def both_bisections(H):
        n = H.shape[0]
        lo, hi = (H.eigh(j, j, tol=0.0).values[0] for j in (0, n - 1))
        return float(max(abs(lo), abs(hi)))

    @staticmethod
    def count_bisections(monkeypatch):
        calls = []
        eigh = sq.Tridiagonal.eigh

        def counted(self, *args, **kwargs):
            calls.append(args)
            return eigh(self, *args, **kwargs)
        monkeypatch.setattr(sq.Tridiagonal, "eigh", counted)
        return calls

    def test_indefinite_takes_both_bisections(self, monkeypatch):
        # lambda_min = -2.88 and lambda_max = 2.40: Gershgorin's lower bound
        # lies below -lambda_max, so lambda_min is bisected too
        rng = np.random.default_rng(11)
        H = sq.Tridiagonal(rng.normal(size=30), rng.normal(size=29))
        expected = self.both_bisections(H)
        calls = self.count_bisections(monkeypatch)
        assert sq.operator_norm(H) == expected
        assert len(calls) == 2

    @pytest.mark.parametrize("n", (201, 2001, 32001))
    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_partner_hamiltonians_take_one_bisection(self, monkeypatch, name, n):
        # H-, whose norm the commands read, is positive semidefinite with
        # Gershgorin's lower bound below 0 and far above -lambda_max, so
        # lambda_max alone gives the same norm
        H = sq.build_susy_system(sq.get_superpotential(name),
                                 sq.make_grid(-10.0, 10.0, n)).H_minus
        expected = self.both_bisections(H)
        assert self.widened_lower_bound(H) < 0.0
        calls = self.count_bisections(monkeypatch)
        assert sq.operator_norm(H) == expected
        assert len(calls) == 1

    @staticmethod
    def widened_lower_bound(H):
        """Gershgorin's lower bound of H widened twice as far as stebz widens it."""
        e = np.abs(H.off)
        radius = np.concatenate((e, [0.0])) + np.concatenate(([0.0], e))
        low, high = np.min(H.diag - radius), np.max(H.diag + radius)
        pivmin = np.finfo(float).tiny * max(1.0, np.max(e)) ** 2
        return low - 2.0 * (2.1 * (H.shape[0] * np.finfo(float).eps * max(abs(low), abs(high))
                                   + 2.0 * pivmin))

    @pytest.mark.parametrize("n", (201, 2001, 32001))
    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_plus_hamiltonian_bisects_its_bottom_only_at_a_bound_above_zero(
            self, monkeypatch, name, n):
        # the positive definite H+ may have Gershgorin's widened lower bound
        # at or above 0, where both extremes are bisected, to the same norm;
        # below 0 lambda_max alone gives it
        H = sq.build_susy_system(sq.get_superpotential(name),
                                 sq.make_grid(-10.0, 10.0, n)).H_plus
        expected = self.both_bisections(H)
        calls = self.count_bisections(monkeypatch)
        assert sq.operator_norm(H) == expected
        assert len(calls) == (1 if self.widened_lower_bound(H) < 0.0 else 2)

    @pytest.mark.parametrize("diag, off", (
        (np.full(5, 3.0), np.zeros(4)),          # a multiple of the identity
        (np.zeros(5), np.zeros(4)),              # zero
        (np.full(7, -2.0), np.full(6, 1e-30)),   # negative definite
        (np.full(5, 1e300), np.full(4, 1e300)),  # bands beyond the squaring range
    ))
    def test_edge_matrices_match_both_bisections(self, diag, off):
        H = sq.Tridiagonal(diag, off)
        assert sq.operator_norm(H) == self.both_bisections(H)


class TestFortyDigitOracle:
    """The `sturm_eigenvalue` oracle, checked against exact spectra, then on H+-."""

    @pytest.mark.parametrize("n", (7, 200))
    def test_toeplitz_closed_form(self, sturm_eigenvalue, n):
        # the eigenvalues of the Toeplitz tridiagonal (a, b) are
        # a + 2 b cos(k pi/(n + 1)), k = 1..n, ascending in k for b < 0; a and
        # b are the exact values of their doubles, the closed form is taken
        # at 50 digits, and the oracle stops at a width of 1e-30 max(1, |x|)
        a, b = 0.3, -0.7
        T = sq.Tridiagonal(np.full(n, a), np.full(n - 1, b))
        with mpmath.workdps(50):
            for k in sorted({0, 1, n // 2, n - 1}):
                exact = mpmath.mpf(a) + 2 * mpmath.mpf(b) * mpmath.cos(
                    (k + 1) * mpmath.pi / (n + 1))
                got = sturm_eigenvalue(T, k, float(exact))
                assert abs(got - decimal.Decimal(mpmath.nstr(exact, 50))) <= 1e-30

    @pytest.mark.parametrize("n", (1, 2, 13, 50))
    def test_dense_eigvalsh(self, sturm_eigenvalue, n):
        # dense symmetric eigenvalues are backward stable: each is within a
        # small multiple of eps ||T|| of the exact one; n eps ||T|| covers it
        rng = np.random.default_rng(n)
        T = sq.Tridiagonal(rng.normal(size=n), rng.normal(size=n - 1))
        dense = np.linalg.eigvalsh(T.to_dense())
        bound = n * np.finfo(float).eps * np.max(np.abs(dense))
        for k, value in enumerate(dense.tolist()):
            assert abs(float(sturm_eigenvalue(T, k, value)) - value) <= bound

    def test_bracket_must_hold_the_level(self, sturm_eigenvalue):
        with pytest.raises(ValueError, match="not within"):
            sturm_eigenvalue(sq.Tridiagonal([1.0, 3.0], [0.0]), 0, 2.0)

    @pytest.mark.parametrize("name", ("harmonic", "cubic"))
    def test_partner_levels_to_eps_times_norm(self, sturm_eigenvalue, systems, name):
        # LAPACK's Sturm count in doubles is the exact count of T with each
        # off-diagonal moved by at most 2.5 roundoffs (Kahan; Demmel, Applied
        # Numerical Linear Algebra, Thm 5.13), 3 with the stored e^2 rounded
        # once more: by Weyl at most 2 * 3 (eps/2) max|e| <= 3 eps ||H|| on an
        # eigenvalue. stebz stops at a width of 2 eps |E|, whose midpoint adds
        # eps |E| <= eps ||H||. So |E_double - E| <= 4 eps ||H||. Seen at
        # 2001 points: at most 0.12 eps ||H|| (harmonic level 1 of H+- , 6e-13)
        system = systems[name]
        plus, minus = sq.solve_partners(system.H_plus, system.H_minus, 3)
        for H, side, levels in ((system.H_plus, plus, (0, 1, 2)),
                                (system.H_minus, minus, (1, 2, 3))):
            bound = 4 * np.finfo(float).eps * sq.operator_norm(H)
            for k in levels:
                exact = sturm_eigenvalue(H, k, side.values[k])
                assert abs(float(decimal.Decimal(side.values[k]) - exact)) <= bound, (k, bound)
