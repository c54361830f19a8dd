"""Spin-times-mode states, Schmidt structure and the three concurrence routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import susyqm as sq

INV_ROOT2 = 1.0 / np.sqrt(2.0)


def overlap_06_state():
    """Two-mode state with real component overlap 0.6 and c1 = c2 = 1/sqrt(2)."""
    u = np.array([1.0, 0.0])
    v = np.array([0.6, 0.8])
    return sq.SpinorState(u * INV_ROOT2, v * INV_ROOT2, 1.0)


def random_decomposed_state(seed, dim=16):
    rng = np.random.default_rng(seed)
    psi_p = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi_m = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi_p /= np.linalg.norm(psi_p)
    psi_m /= np.linalg.norm(psi_m)
    theta, alpha, beta = rng.uniform(0, 2 * np.pi, size=3)
    c1 = np.cos(theta) * np.exp(1j * alpha)
    c2 = np.sin(theta) * np.exp(1j * beta)
    state = sq.SpinorState(c1 * psi_p, c2 * psi_m, 1.0)
    return state, c1, c2, complex(np.vdot(psi_p, psi_m))


def sweep_coefficients(c1_points=21, phase_points=8):
    """(c1, c2) of the default entangle sweep, |c1| outer and phase inner."""
    c1 = np.repeat(np.linspace(0.0, 1.0, c1_points), phase_points)
    phase = np.tile(np.linspace(0.0, 2 * np.pi, phase_points, endpoint=False), c1_points)
    return c1, np.sqrt(1.0 - c1 * c1) * np.exp(1j * phase)


class TestBuildEnergyEigenstate:
    def test_pure_spin_up_product(self, nonzero_levels):
        plus_nz, minus_nz = nonzero_levels["harmonic"]
        state = sq.build_energy_eigenstate(1.0, 0.0, plus_nz[0].state, minus_nz[0].state)
        assert np.max(np.abs(state.down)) == 0.0
        assert sq.spin_expectation(state) == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_pure_spin_down_product(self, nonzero_levels):
        plus_nz, minus_nz = nonzero_levels["harmonic"]
        state = sq.build_energy_eigenstate(0.0, 1.0, plus_nz[0].state, minus_nz[0].state)
        assert np.max(np.abs(state.up)) == 0.0
        # normalization round-off in the solved eigenvector leaks into C
        assert sq.concurrence_from_spin(state) <= 1e-7

    def test_equal_superposition_is_maximally_entangled(self, nonzero_levels):
        plus_nz, minus_nz = nonzero_levels["harmonic"]
        state = sq.build_energy_eigenstate(
            INV_ROOT2, INV_ROOT2, plus_nz[0].state, minus_nz[0].state)
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-10)
        assert sq.concurrence_from_spin(state) == pytest.approx(1.0, abs=1e-10)

    def test_coefficient_norm_validated(self, nonzero_levels):
        plus_nz, minus_nz = nonzero_levels["harmonic"]
        with pytest.raises(ValueError):
            sq.build_energy_eigenstate(1.0, 1.0, plus_nz[0].state, minus_nz[0].state)

    def test_component_norm_validated(self, nonzero_levels, grid2001):
        plus_nz, minus_nz = nonzero_levels["harmonic"]
        bad = sq.Wavefunction(grid2001, 2.0 * minus_nz[0].state.amplitudes)
        with pytest.raises(ValueError):
            sq.build_energy_eigenstate(INV_ROOT2, INV_ROOT2, plus_nz[0].state, bad)

    def test_two_mode_batch_keeps_grid_inner_products(self, nonzero_levels):
        # shifted_cubic: <psi+|psi-> = 0.30, so R has an off-diagonal entry
        plus_nz, minus_nz = nonzero_levels["shifted_cubic"]
        pp, mm = plus_nz[0].state, minus_nz[0].state
        c1, c2 = sweep_coefficients()
        state = sq.build_energy_eigenstate(c1, c2, pp, mm)
        assert state.up.shape == state.down.shape == (c1.size, 2)
        assert state.weight == 1.0
        row = 50  # |c1| = 0.3, phase pi/2
        ov = np.vdot(state.up[row], state.down[row]) / (np.conj(c1[row]) * c2[row])
        assert abs(ov - sq.inner_product(pp, mm)) <= 4 * np.finfo(float).eps
        assert np.max(np.abs(state.norm_squared() - 1.0)) <= 4 * np.finfo(float).eps

    def test_batch_coefficients_validated(self, nonzero_levels):
        plus_nz, minus_nz = nonzero_levels["harmonic"]
        c1, c2 = sweep_coefficients()
        c2[7] *= 1.01  # one row off the unit circle
        with pytest.raises(ValueError):
            sq.build_energy_eigenstate(c1, c2, plus_nz[0].state, minus_nz[0].state)
        with pytest.raises(ValueError):
            sq.build_energy_eigenstate(c1, c2[:-1], plus_nz[0].state, minus_nz[0].state)


class TestSpinorState:
    def test_halves_kept_read_only_copied_only_when_needed(self):
        # a read-only C-contiguous half is taken as it is, as by Wavefunction;
        # a writable or strided one is copied into a read-only array
        frozen = np.arange(6.0)
        frozen.flags.writeable = False
        writable, strided = np.arange(6.0), frozen[::2]
        state = sq.SpinorState(frozen, writable, 1.0)
        assert state.up is frozen
        assert state.down is not writable and not np.shares_memory(state.down, writable)
        strided_state = sq.SpinorState(strided, strided, 1.0)
        assert strided_state.up.flags.c_contiguous and strided_state.up.tolist() == [0.0, 2.0, 4.0]
        for half in (state.down, strided_state.up, strided_state.down):
            assert not half.flags.writeable


class TestSpinExpectation:
    def test_orthogonal_equal_weights_vanishing_spin(self):
        state = sq.SpinorState(np.array([INV_ROOT2, 0.0]),
                               np.array([0.0, INV_ROOT2]), 1.0)
        assert sq.spin_expectation(state) == pytest.approx([0, 0, 0], abs=1e-15)

    def test_real_overlap_appears_in_sigma_x(self):
        sigma = sq.spin_expectation(overlap_06_state())
        assert sigma == pytest.approx([0.6, 0.0, 0.0], abs=1e-15)

    def test_imaginary_overlap_appears_in_sigma_y(self):
        u = np.array([1.0 + 0j, 0.0])
        v = np.array([0.6j, 0.8])
        state = sq.SpinorState(u * INV_ROOT2, v * INV_ROOT2, 1.0)
        sigma = sq.spin_expectation(state)
        assert sigma == pytest.approx([0.0, 0.6, 0.0], abs=1e-15)

    def test_unnormalized_state_rejected(self):
        state = sq.SpinorState(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            sq.spin_expectation(state)

    def test_unnormalized_state_is_a_physics_violation(self):
        # a package error, which the CLI ends in one line, and still a ValueError
        state = sq.SpinorState(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0)
        for route in (sq.spin_expectation, sq.concurrence_from_spin, sq.schmidt_svd_oracle):
            with pytest.raises(sq.NormalizationError, match="not normalized") as info:
                route(state)
            assert isinstance(info.value, sq.PhysicsViolationError)
            assert isinstance(info.value, ValueError)


class TestSchmidtCoefficients:
    def test_maximal(self):
        assert sq.schmidt_coefficients((0, 0, 0)) == pytest.approx(
            (INV_ROOT2, INV_ROOT2), abs=1e-15)

    def test_product(self):
        assert sq.schmidt_coefficients((0, 0, 1)) == (1.0, 0.0)

    def test_intermediate(self):
        l1, l2 = sq.schmidt_coefficients((0.6, 0, 0))
        assert (l1, l2) == pytest.approx((np.sqrt(0.8), np.sqrt(0.2)), abs=1e-15)

    def test_oversized_sigma_rejected(self):
        with pytest.raises(ValueError):
            sq.schmidt_coefficients((1.1, 0, 0))

    @given(st.floats(0, 1), st.floats(0, np.pi), st.floats(0, 2 * np.pi))
    @settings(max_examples=60, deadline=None)
    def test_property_unit_sum_of_squares_descending(self, s, th, ph):
        sigma = s * np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                              np.cos(th)])
        l1, l2 = sq.schmidt_coefficients(sigma)
        assert l1 >= l2 >= 0
        assert l1 ** 2 + l2 ** 2 == pytest.approx(1.0, abs=1e-12)


class TestConcurrenceRoutes:
    def test_spin_route_endpoints(self):
        product = sq.SpinorState(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 1.0)
        assert sq.concurrence_from_spin(product) == 0.0
        bell = sq.SpinorState(np.array([INV_ROOT2, 0.0]),
                              np.array([0.0, INV_ROOT2]), 1.0)
        assert sq.concurrence_from_spin(bell) == pytest.approx(1.0, abs=1e-15)

    def test_spin_route_intermediate(self):
        assert sq.concurrence_from_spin(overlap_06_state()) == pytest.approx(
            0.8, abs=1e-15)

    def test_overlap_route_examples(self):
        assert sq.concurrence_overlap(INV_ROOT2, INV_ROOT2, 0.0) == pytest.approx(
            1.0, abs=1e-15)
        assert sq.concurrence_overlap(1.0, 0.0, 0.37 - 0.2j) == 0.0
        assert sq.concurrence_overlap(INV_ROOT2, INV_ROOT2, 0.6) == pytest.approx(
            0.8, abs=1e-15)

    def test_overlap_route_validates_inputs(self):
        with pytest.raises(ValueError):
            sq.concurrence_overlap(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            sq.concurrence_overlap(INV_ROOT2, INV_ROOT2, 1.2)

    def test_svd_route_endpoints(self):
        product = sq.SpinorState(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 1.0)
        assert sq.schmidt_svd_oracle(product) == pytest.approx((1.0, 0.0), abs=1e-15)
        bell = sq.SpinorState(np.array([INV_ROOT2, 0.0]),
                              np.array([0.0, INV_ROOT2]), 1.0)
        assert sq.schmidt_svd_oracle(bell) == pytest.approx(
            (INV_ROOT2, INV_ROOT2), abs=1e-15)

    def test_svd_route_matches_spin_schmidt(self):
        state = overlap_06_state()
        via_spin = sq.schmidt_coefficients(sq.spin_expectation(state))
        via_svd = sq.schmidt_svd_oracle(state)
        assert via_spin == pytest.approx(via_svd, abs=1e-12)

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_property_three_routes_agree(self, seed):
        state, c1, c2, overlap = random_decomposed_state(seed)
        c_spin = sq.concurrence_from_spin(state)
        c_over = sq.concurrence_overlap(c1, c2, overlap)
        c_svd = sq.concurrence_svd(state)
        assert abs(c_spin - c_over) <= 1e-12
        assert abs(c_spin - c_svd) <= 1e-12

    @given(seed=st.integers(0, 2 ** 31), phi=st.floats(0, 2 * np.pi),
           chi=st.floats(0, 2 * np.pi))
    @settings(max_examples=40, deadline=None)
    def test_property_phase_invariance(self, seed, phi, chi):
        state, _, _, _ = random_decomposed_state(seed)
        base = sq.concurrence_from_spin(state)
        rotated = sq.SpinorState(np.exp(1j * phi) * state.up,
                                 np.exp(1j * (phi + chi)) * state.down,
                                 state.weight)
        assert abs(sq.concurrence_from_spin(rotated) - base) <= 1e-12

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_property_concurrence_sigma_circle(self, seed):
        # the pure-state identity C^2 + |<sigma>|^2 = 1
        state, _, _, _ = random_decomposed_state(seed)
        sigma = sq.spin_expectation(state)
        c = sq.concurrence_from_spin(state)
        assert c * c + float(np.dot(sigma, sigma)) == pytest.approx(1.0, abs=1e-12)


class TestAnalyzeReport:
    def test_report_carries_all_routes(self, nonzero_levels, grid2001):
        plus_nz, minus_nz = nonzero_levels["shifted_cubic"]
        ov = sq.inner_product(plus_nz[0].state, minus_nz[0].state)
        state = sq.build_energy_eigenstate(
            INV_ROOT2, INV_ROOT2, plus_nz[0].state, minus_nz[0].state)
        rep = sq.analyze(state, INV_ROOT2, INV_ROOT2, ov)
        assert rep.concurrence_overlap is not None
        assert abs(rep.concurrence_spin - rep.concurrence_overlap) <= 1e-12
        assert abs(rep.concurrence_spin - rep.concurrence_svd) <= 1e-12
        assert rep.schmidt[0] >= rep.schmidt[1]

    def test_without_decomposition_overlap_route_absent(self):
        rep = sq.analyze(overlap_06_state())
        assert rep.concurrence_overlap is None
        assert rep.concurrence_spin == pytest.approx(0.8, abs=1e-15)


class TestBatchedRoutes:
    @given(seeds=st.lists(st.integers(0, 2 ** 31), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_property_stack_equals_each_row(self, seeds):
        # bitwise: a batch row is reduced by the same BLAS dot and the same
        # per-matrix SVD as the state alone, so no tolerance is needed
        rows = [random_decomposed_state(seed) for seed in seeds]
        stack = sq.SpinorState(np.stack([r[0].up for r in rows]),
                               np.stack([r[0].down for r in rows]), 1.0)
        c1, c2, ov = (np.array([r[k] for r in rows]) for k in (1, 2, 3))
        sigma = sq.spin_expectation(stack)
        lam = sq.schmidt_coefficients(sigma)
        svd = sq.schmidt_svd_oracle(stack)
        norm2 = stack.norm_squared()
        c_spin = sq.concurrence_from_spin(stack)
        c_over = sq.concurrence_overlap(c1, c2, ov)
        c_svd = sq.concurrence_svd(stack)
        rep = sq.analyze(stack, c1, c2, ov)
        for i, (state, a, b, o) in enumerate(rows):
            one = sq.analyze(state, a, b, o)
            assert np.array_equal(sigma[i], sq.spin_expectation(state))
            assert [v[i] for v in lam] == list(sq.schmidt_coefficients(sigma[i]))
            assert [v[i] for v in svd] == list(sq.schmidt_svd_oracle(state))
            assert norm2[i] == state.norm_squared()
            assert c_spin[i] == sq.concurrence_from_spin(state)
            assert c_over[i] == sq.concurrence_overlap(a, b, o)
            assert c_svd[i] == sq.concurrence_svd(state)
            assert [v[i] for v in rep.sigma_mean] == list(one.sigma_mean)
            assert [v[i] for v in rep.schmidt] == list(one.schmidt)
            assert (rep.concurrence_spin[i], rep.concurrence_overlap[i],
                    rep.concurrence_svd[i], rep.overlap[i]) == (
                one.concurrence_spin, one.concurrence_overlap,
                one.concurrence_svd, one.overlap)

    def test_single_state_returns_python_scalars(self):
        state, c1, c2, ov = random_decomposed_state(7)
        rep = sq.analyze(state, c1, c2, ov)
        values = [
            state.norm_squared(), sq.concurrence_from_spin(state),
            sq.concurrence_overlap(c1, c2, ov), sq.concurrence_svd(state),
            *sq.schmidt_svd_oracle(state),
            *sq.schmidt_coefficients(sq.spin_expectation(state)),
            *rep.sigma_mean, *rep.schmidt, rep.concurrence_spin,
            rep.concurrence_overlap, rep.concurrence_svd,
        ]
        assert [type(v) for v in values] == [float] * len(values)
        assert type(rep.overlap) is complex
        assert sq.spin_expectation(state).shape == (3,)

    def test_default_sweep_memory(self, nonzero_levels, traced_peak):
        # one rows x n complex array of the 2001-point sweep would take 5.4 MB
        plus_nz, minus_nz = nonzero_levels["shifted_cubic"]
        pp, mm = plus_nz[0].state, minus_nz[0].state
        c1, c2 = sweep_coefficients()
        ov = sq.inner_product(pp, mm)

        def sweep():
            sq.analyze(sq.build_energy_eigenstate(c1, c2, pp, mm), c1, c2, ov)

        assert traced_peak(sweep) < 1e6


@pytest.fixture(scope="module")
def harmonic_level_one(systems, nonzero_levels):
    system = systems["harmonic"]
    pp = nonzero_levels["harmonic"][0][0]
    mapped = sq.intertwine_down(system, pp)
    return system, pp, sq.supercharge_eigenstates(system, pp.energy,
                                                  pp.state, mapped)


class TestSuperchargeEigenstates:

    def test_q1_eigen_relation_via_assembled_matrix(self, harmonic_level_one,
                                                    build_supercharges):
        system, pp, rows = harmonic_level_one
        q1, _ = build_supercharges(system)
        root = np.sqrt(pp.energy)
        q1_rows = [(sign, st_) for family, sign, _, st_ in rows if family == "q1"]
        assert [sign for sign, _ in q1_rows] == [+1, -1]
        for sign, st_ in q1_rows:  # the up half on its n - 1 cells, as Q1 holds it
            vec = np.concatenate([st_.up[:-1], st_.down])
            resid = np.sqrt(system.grid.dx) * np.linalg.norm(
                q1 @ vec - sign * root * vec)
            assert resid <= 1e-8

    def test_q2_eigen_relation(self, harmonic_level_one):
        system, pp, rows = harmonic_level_one
        root = np.sqrt(pp.energy)
        q2_rows = [(sign, q) for family, sign, q, _ in rows if family == "q2"]
        assert q2_rows == [(+1, root), (-1, -root)]
        # one residual for one level, which both Q2 states share
        residual = sq.supercharge_residuals(system, pp.energy, sq.supercharge_state(
            pp.state, sq.intertwine_down(system, pp)))
        assert type(residual) is float
        assert residual <= 1e-8

    def test_concurrence_maximal(self, harmonic_level_one):
        _, _, rows = harmonic_level_one
        assert len(rows) == 4
        for *_, st_ in rows:
            assert sq.concurrence_from_spin(st_) == pytest.approx(1.0, abs=1e-10)

    def test_opposite_eigenvalues_orthogonal(self, harmonic_level_one):
        system, _, rows = harmonic_level_one
        dx = system.grid.dx
        (_, _, q_plus, plus), (_, _, q_minus, minus) = rows[:2]
        assert q_plus == -q_minus > 0
        ov = (np.vdot(plus.up, minus.up) + np.vdot(plus.down, minus.down)) * dx
        assert abs(ov) <= 1e-10

    def test_nilpotent_halves_annihilate_their_sectors(self, harmonic_level_one):
        # Q+ = (Q1 + i Q2)/2 kills spin-up states, Q- kills spin-down states;
        # in the order (down_0, up_0, ..., down_{n-1}) of SusySystem.Q1,
        # Q2 = -i sz Q1. An up half sits on the n - 1 cells: psi on the
        # nodes ends in 0 there (an H+ state), and its last node is dropped
        system, pp, _ = harmonic_level_one
        n = system.grid.n_points
        sz = np.resize([-1.0, 1.0], 2 * n - 1)
        psi = pp.state.amplitudes
        assert psi[-1] == 0.0

        def halves(up, down):
            a = system.Q1 @ np.stack([down, up], axis=-1).ravel()[:-1]
            b = -1j * (sz * a)
            return (a + 1j * b) / 2, (a - 1j * b) / 2

        q_plus_up, _ = halves(psi, np.zeros_like(psi))
        assert np.max(np.abs(q_plus_up)) <= 1e-10
        _, q_minus_down = halves(np.zeros_like(psi), psi)
        assert np.max(np.abs(q_minus_down)) <= 1e-10

    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_residual_matches_blockwise_action(self, name, blockwise_residual):
        # four rows per level in report order, eigenvalue sign * sqrt(E), and
        # the one residual of the level bit for bit that of each state by the
        # blockwise Q1/Q2 oracle
        grid = sq.make_grid(-10.0, 10.0, 201)
        system = sq.build_susy_system(sq.get_superpotential(name), grid)
        levels = [p for p in sq.solve_spectrum(system.H_plus, 8, grid)
                  if p.energy >= sq.EPS0][:6]
        assert len(levels) == 6
        for pp in levels:
            rows = sq.supercharge_eigenstates(system, pp.energy, pp.state,
                                              sq.intertwine_down(system, pp))
            assert [(family, sign) for family, sign, *_ in rows] == [
                ("q1", +1), ("q1", -1), ("q2", +1), ("q2", -1)]
            residual = sq.supercharge_residuals(system, pp.energy, sq.supercharge_state(
                pp.state, sq.intertwine_down(system, pp)))
            for family, sign, eigenvalue, st_ in rows:
                assert eigenvalue == sign * math.sqrt(pp.energy)
                assert residual == blockwise_residual(system, st_, eigenvalue, family)

    @pytest.mark.parametrize("n_points", (201, 1001))
    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_block_residuals_are_the_per_state_arithmetic(self, name, n_points,
                                                          residual_per_state):
        # levels at the cap as one block and in blocks of 6: each level's
        # residual in a block equals, bit for bit, the per-state arithmetic on
        # each of its four states alone, B and B+ applied to every state on
        # its own
        grid = sq.make_grid(-10.0, 10.0, n_points)
        system = sq.build_susy_system(sq.get_superpotential(name), grid)
        levels = n_points // 10 - 1
        pairs = sq.eigenstates(system.H_plus.eigh(0, levels - 1), grid)
        for step in (levels, 6):
            for lo in range(0, levels, step):
                pp = pairs[lo:lo + step]
                mapped = sq.intertwine_down(system, pp)
                got = sq.supercharge_residuals(system, pp.energy,
                                               sq.supercharge_state(pp.state, mapped))
                assert got.shape == (len(pp),)
                for family, _, eigenvalues, states in sq.supercharge_eigenstates(
                        system, pp.energy, pp.state, mapped):
                    want = [residual_per_state(system, sq.SpinorState(up, down, grid.dx),
                                               q, family)
                            for up, down, q in zip(states.up, states.down, eigenvalues.tolist())]
                    assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_concurrences_are_those_of_the_four_states(self, name):
        # formed from the Q1 + state only, for one level and a block of them:
        # bit for bit the concurrence_from_spin of both Q1 states, and within
        # an ulp of each Q2 state's own (cubic levels 13, 18 and 19 and tanh
        # level 1 sit an ulp off at 201 points)
        grid = sq.make_grid(-10.0, 10.0, 201)
        system = sq.build_susy_system(sq.get_superpotential(name), grid)
        pairs = sq.eigenstates(system.H_plus.eigh(0, 18), grid)
        for pp, kind in ((pairs, np.ndarray), (pairs[0], float)):
            mapped = sq.intertwine_down(system, pp)
            got = sq.concurrence_from_spin(sq.supercharge_state(pp.state, mapped))
            assert type(got) is kind
            for family, _, _, state in sq.supercharge_eigenstates(
                    system, pp.energy, pp.state, mapped):
                own = np.asarray(sq.concurrence_from_spin(state))
                if family == "q1":
                    assert own.tobytes() == np.asarray(got).tobytes()
                else:
                    assert np.all(np.abs(own - got) <= np.spacing(got))

    def test_zero_energy_rejected(self, systems, nonzero_levels):
        plus_nz, minus_nz = nonzero_levels["harmonic"]
        with pytest.raises(ValueError):
            sq.supercharge_eigenstates(systems["harmonic"], 0.0,
                                       plus_nz[0].state, minus_nz[0].state)

    def test_ground_state_not_entangled(self, systems, grid2001):
        psi0 = sq.zero_mode(systems["harmonic"])
        state = sq.SpinorState(np.zeros_like(psi0.amplitudes),
                               psi0.amplitudes, grid2001.dx)
        assert sq.concurrence_from_spin(state) == 0.0

    def test_residuals_validate_energy_and_grid(self, harmonic_level_one):
        system, pp, _ = harmonic_level_one
        mapped = sq.intertwine_down(system, pp)
        with pytest.raises(ValueError, match="zero-mode threshold"):
            sq.supercharge_residuals(system, [pp.energy, 0.0],
                                     sq.supercharge_state(pp.state, mapped))
        other = sq.Wavefunction(sq.make_grid(-9.0, 9.0, system.grid.n_points),
                                mapped.amplitudes)
        with pytest.raises(ValueError, match="share a grid"):
            sq.supercharge_state(pp.state, other)

    def test_state_is_the_q1_plus_row_halved_once(self, harmonic_level_one):
        # the halves are psi+-/sqrt(2), bit for bit those of the Q1 + row of
        # supercharge_eigenstates, read-only, and kept by SpinorState as they
        # are: the concurrence reads them without a copy
        system, pp, rows = harmonic_level_one
        mapped = sq.intertwine_down(system, pp)
        state = sq.supercharge_state(pp.state, mapped)
        assert state.weight == system.grid.dx
        for half, psi, row_half in ((state.up, pp.state, rows[0][3].up),
                                    (state.down, mapped, rows[0][3].down)):
            assert half.tobytes() == (psi.amplitudes / np.sqrt(2.0)).tobytes()
            assert half.tobytes() == row_half.tobytes()
            assert not half.flags.writeable and half.flags.c_contiguous
        assert sq.SpinorState(state.up, state.down, state.weight).up is state.up
