"""Truncated Jaynes-Cummings model: assembly, hidden SUSY algebra, level match."""

from dataclasses import asdict

import numpy as np
import pytest

import susyqm as sq
from susyqm import checks, cli
from susyqm import jaynescummings as jcm

COLUMNS = ("n", "branch", "E_analytic", "E_numeric", "gap", "fidelity", "concurrence")


def layout(sys_, state):
    """An (up, down) SpinorState as a vector in the excitation order of H."""
    return np.concatenate([state.up, state.down])[sys_.fock.excitation_order()]


class TestBuildJC:
    def test_shapes_and_symmetry(self, jc_default):
        d = jc_default.fock.dimension
        assert d == 65
        assert jc_default.fock.guard_n_max == 62
        for M in (jc_default.Q, jc_default.H0, jc_default.Hint, jc_default.H):
            assert isinstance(M, sq.Tridiagonal)
            assert M.shape == (2 * d, 2 * d)
        dense = jc_default.H.to_dense()
        assert np.array_equal(dense, dense.T)
        assert np.array_equal(jc_default.Q.to_dense(), jc_default.Q.to_dense().T)

    def test_bands_by_hand(self):
        # excitation order |0 down>, |0 up>, |1 down>, |1 up>, ...
        sys_ = sq.build_jc(2.0, 0.5, 4)
        m = np.repeat(np.arange(5), 2)
        spin = np.tile([-1.0, 1.0], 5)
        assert np.array_equal(sys_.Q.diag, np.zeros(10))
        expected = np.zeros(9)
        expected[1::2] = np.sqrt([1.0, 2.0, 3.0, 4.0])  # |m-1 up> <-> |m down>
        assert np.array_equal(sys_.Q.off, expected)
        assert np.array_equal(sys_.H0.diag, 2.0 * (m + 0.5 * spin))
        assert np.array_equal(sys_.Hint.off, 0.5 * expected)

    @pytest.mark.parametrize("n_max", (4, 64, 513))
    def test_supercharge_is_golub_kahan_of_the_annihilator(self, n_max):
        # b has an empty diagonal and sqrt(1..n_max) above it, and an empty
        # last row, like the grid B; Q is its [[0, b], [b+, 0]], bit for bit
        b = sq.Bidiagonal(np.zeros(n_max + 1), np.sqrt(np.arange(1, n_max + 1)))
        Q, expected = sq.build_jc(1.0, 0.1, n_max).Q, sq.golub_kahan(b)
        assert Q.diag.tobytes() == expected.diag.tobytes()
        assert Q.off.tobytes() == expected.off.tobytes()

    def test_number_operator_exact(self):
        # omega b+ b is the integer ladder, not sqrt(m) sqrt(m) rounded
        sys_ = sq.build_jc(1.0, 0.1, 512)
        m = np.arange(1026) // 2
        assert np.array_equal(sys_.H0.diag - np.tile([-0.5, 0.5], 513), m)

    def test_excitation_order(self):
        # a permutation of the (up, down) layout: |m down> = d + m, |m up> = m
        order = sq.FockSpace(6).excitation_order()
        assert sorted(order) == list(range(14))
        assert list(order[:4]) == [7, 0, 8, 1]
        assert list(order[-2:]) == [13, 6]

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError):
            sq.build_jc(1.0, 0.1, 3)

    def test_rejects_bad_couplings(self):
        with pytest.raises(ValueError):
            sq.build_jc(0.0, 0.1, 8)
        with pytest.raises(ValueError):
            sq.build_jc(-1.0, 0.1, 8)
        with pytest.raises(ValueError):
            sq.build_jc(1.0, -0.1, 8)
        with pytest.raises(ValueError):
            sq.build_jc(np.inf, 0.1, 8)

    @pytest.mark.parametrize("omega, gamma", ((1e308, 0.1), (1.0, 1e308)))
    def test_rejects_overflowing_bands(self, omega, gamma):
        with pytest.raises(ValueError, match="overflow"):
            sq.build_jc(omega, gamma, 8)

    @pytest.mark.parametrize("coupling", ("omega", "gamma"))
    def test_largest_couplings_keep_the_algebra_finite(self, coupling):
        # the largest band entry of H is omega (n_max + 1/2) or gamma
        # sqrt(n_max). Just below the float range over 2 (n_max + 1), every
        # product of the algebra check stays finite; 1% above, the couplings
        # are rejected ([N, H] used to overflow into NaN)
        n_max = 17
        top = np.finfo(float).max / (2 * (n_max + 1)) * (1.0 - 2.0 ** -10)
        omega, gamma = ((top / (n_max + 0.5), 1.0) if coupling == "omega"
                        else (1.0, top / np.sqrt(n_max)))
        sys_ = sq.build_jc(omega, gamma, n_max)
        with np.errstate(all="raise"):
            alg = sq.verify_susy_algebra(sys_)
            match = sq.numeric_vs_analytic(sys_)
        assert np.all(np.isfinite(list(asdict(alg).values())))
        assert np.isfinite(match.max_gap)
        bigger = (1.01 * omega, gamma) if coupling == "omega" else (omega, 1.01 * gamma)
        with pytest.raises(ValueError, match="overflow"):
            sq.build_jc(*bigger, n_max)

    def test_zero_coupling_free_hamiltonian(self):
        sys_ = sq.build_jc(1.0, 0.0, 8)
        assert np.max(np.abs(sys_.Hint.off)) == 0.0
        assert np.max(np.abs(sys_.Hint.diag)) == 0.0
        assert np.array_equal(sys_.H.diag, sys_.H0.diag)
        assert np.array_equal(sys_.H.off, sys_.H0.off)

    def test_matrices_immutable(self, jc_default):
        with pytest.raises(ValueError):
            jc_default.H.diag[0] = 99.0
        with pytest.raises(ValueError):
            jc_default.Q.off[1] = 99.0
        with pytest.raises(AttributeError):
            jc_default.H.diag = np.zeros(130)

    def test_supercharge_action_by_hand(self):
        # Q sends |n>|down> to sqrt(n)|n-1>|up>
        sys_ = sq.build_jc(1.0, 0.5, 4)
        d = sys_.fock.dimension
        order = sys_.fock.excitation_order()
        for n in (1, 2):
            v = np.zeros(2 * d)
            v[d + n] = 1.0
            expect = np.zeros(2 * d)
            expect[n - 1] = np.sqrt(n)
            out = np.empty(2 * d)
            out[order] = sys_.Q @ v[order]
            assert np.allclose(out, expect, atol=1e-15)


class TestAnalyticSpectrum:
    def test_first_doublet(self, jc_default):
        e_plus, e_minus = sq.analytic_spectrum(jc_default, 1)
        assert e_plus == pytest.approx(0.6, abs=1e-12)
        assert e_minus == pytest.approx(0.4, abs=1e-12)

    def test_ground_energy(self, jc_default):
        assert sq.analytic_ground_energy(jc_default) == -0.5

    def test_splitting_grows_as_sqrt_n(self, jc_default):
        for n in (1, 4, 9):
            e_plus, e_minus = sq.analytic_spectrum(jc_default, n)
            assert e_plus - e_minus == pytest.approx(
                2 * jc_default.gamma * np.sqrt(n), abs=1e-12)

    def test_degenerate_without_coupling(self):
        sys_ = sq.build_jc(1.0, 0.0, 8)
        for n in (1, 2, 3):
            e_plus, e_minus = sq.analytic_spectrum(sys_, n)
            assert e_plus == e_minus == n - 0.5

    def test_truncation_guard(self, jc_default):
        with pytest.raises(ValueError):
            sq.analytic_spectrum(jc_default, 0)
        with pytest.raises(ValueError):
            sq.analytic_spectrum(jc_default, 63)
        sq.analytic_spectrum(jc_default, 62)  # guard edge is certified


class TestAnalyticEigenstate:
    def test_first_doublet_vector(self, jc_default, analytic_eigenstate):
        st = analytic_eigenstate(jc_default, 1, +1)
        assert st.up[0] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert st.down[1] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert np.count_nonzero(st.up) == 1
        assert np.count_nonzero(st.down) == 1

    def test_ground_is_product(self, jc_default, analytic_eigenstate):
        st = analytic_eigenstate(jc_default, 0, 0)
        assert st.down[0] == 1.0
        assert np.max(np.abs(st.up)) == 0.0
        assert sq.concurrence_from_spin(st) == 0.0

    def test_supercharge_eigenrelation(self, jc_default, analytic_eigenstate):
        for n in (1, 2, 5):
            for branch in (+1, -1):
                v = layout(jc_default, analytic_eigenstate(jc_default, n, branch))
                resid = np.linalg.norm(jc_default.Q @ v - branch * np.sqrt(n) * v)
                assert resid <= 1e-12

    def test_hamiltonian_eigenrelation(self, jc_default, analytic_eigenstate):
        for n in (1, 2, 5):
            for branch, E in zip((+1, -1), sq.analytic_spectrum(jc_default, n)):
                v = layout(jc_default, analytic_eigenstate(jc_default, n, branch))
                assert np.linalg.norm(jc_default.H @ v - E * v) <= 1e-12

    def test_branch_validated(self, jc_default, analytic_eigenstate):
        with pytest.raises(ValueError):
            analytic_eigenstate(jc_default, 1, 2)

    def test_guard_enforced(self, jc_default, analytic_eigenstate):
        with pytest.raises(ValueError):
            analytic_eigenstate(jc_default, 64, +1)


@pytest.fixture(scope="module")
def alg(jc_default):
    return sq.verify_susy_algebra(jc_default)


class TestAlgebraReport:
    def test_guarded_identities(self, alg, max_guarded_deviation):
        assert max_guarded_deviation(alg) <= 1e-12

    def test_exact_structural_identities(self, alg):
        assert alg.anti_sz_q == 0.0
        assert alg.h_equals_h0_plus_hint == 0.0
        # the truncation corrupts exactly one diagonal entry by omega (n_max+1)
        assert alg.truncation_corner_deviation == 0.0

    def test_interior_identities(self, alg):
        assert alg.h0_identity_interior <= 1e-13
        assert alg.h_q2_identity_offcorner <= 1e-13
        assert alg.comm_n_exc_h <= 1e-13

    def test_commutator_small_globally(self, alg):
        # [Q, H0] = 0 holds on the whole truncated space, not just the guard band
        assert alg.comm_q_h0_full <= 1e-12

    def test_zero_coupling_algebra(self, max_guarded_deviation):
        alg = sq.verify_susy_algebra(sq.build_jc(1.0, 0.0, 16))
        assert max_guarded_deviation(alg) <= 1e-12
        assert alg.comm_q_h0_full <= 1e-12

    @pytest.mark.parametrize("gamma", (0.1, 0.0))
    @pytest.mark.parametrize("n_max", (16, 64))
    def test_matches_dense_oracle(self, jc_dense_algebra, n_max, gamma):
        sys_ = sq.build_jc(1.0, gamma, n_max)
        banded = asdict(sq.verify_susy_algebra(sys_))
        dense = asdict(jc_dense_algebra(sys_))
        tol = 4 * np.finfo(float).eps * np.linalg.norm(sys_.H.to_dense(), 2)
        for name, value in dense.items():
            if value == 0.0:
                assert banded[name] == 0.0, name
            assert abs(banded[name] - value) <= tol, (name, banded[name], value)

    def test_matches_dense_oracle_off_identity(self, jc_dense_algebra):
        # random bands break every identity, so each field is far from 0 and
        # the band products are checked against the dense ones in full; the
        # entries grow along the order, so each maximum sits at the edge of
        # its guard or interior mask and a mask one entry too wide shows
        rng = np.random.default_rng(7)
        fock = sq.FockSpace(8)
        n = 2 * fock.dimension
        growth = 2.0 ** np.arange(n)

        def band(size):
            return rng.choice((-1.0, 1.0), size) * rng.uniform(0.5, 1.0, size) * growth[:size]

        Q, H0, Hint, H = (sq.Tridiagonal(band(n), band(n - 1)) for _ in range(4))
        sys_ = sq.JCSystem(fock, 1.5, 0.75, Q, H0, Hint, H)
        banded = asdict(sq.verify_susy_algebra(sys_))
        dense = asdict(jc_dense_algebra(sys_))
        for name, value in dense.items():
            assert value >= 0.05, name
            assert abs(banded[name] - value) <= 16 * np.finfo(float).eps * value, name

    def test_number_conservation_exact(self):
        # integer excitation numbers: [N_exc, H] has no rounded entries
        for gamma in (0.1, 0.0):
            alg = sq.verify_susy_algebra(sq.build_jc(1.0, gamma, 512))
            assert alg.comm_n_exc_h == 0.0
            assert alg.comm_q_h0_full == 0.0
            assert alg.truncation_corner_deviation == 0.0

    def test_banded_memory(self, traced_peak):
        # the dense 2(n_max+1)-square products would need over 1 GB here
        assert traced_peak(lambda: sq.verify_susy_algebra(sq.build_jc(1.0, 0.1, 4096))) < 4e6

    def test_grid_identities_banded_memory(self, traced_peak):
        # verify's five grid identities run on the same band kernel. In units
        # of one 5 x 2n float array (80 n bytes), the most alive at once is
        # inside the parity anticommutator: the interleaved H, the product and
        # the second product (3), the three rows of Q1, of R = sz Q1 and of sz
        # (3 x 3/5), sz's two bands (2/5) and one 2n-float slice product inside
        # band_product (1/5), 5.4 units; 6 leave room for small objects
        n = 8001
        system = sq.build_susy_system(sq.get_superpotential("harmonic"),
                                      sq.make_grid(-10.0, 10.0, n))
        assert traced_peak(lambda: checks._susy_identities(system)) < 6 * 5 * 2 * n * 8


class TestNumericMatch:
    def test_gaps_and_fidelities(self, jc_match):
        assert jc_match.max_gap <= 1e-10
        assert jc_match.min_fidelity >= 1 - 1e-10
        assert jc_match.all_matched
        assert jc_match.failures == ()

    def test_excited_levels_maximally_entangled(self, jc_match):
        assert jc_match.min_excited_concurrence == pytest.approx(1.0, abs=1e-10)

    def test_ground_level_not_entangled(self, jc_match):
        assert jc_match.n[0] == 0
        assert jc_match.concurrence[0] <= 1e-10

    def test_row_budget(self, jc_match, jc_default):
        # ground plus two branches per certified doublet, in every column
        rows = 1 + 2 * jc_default.fock.guard_n_max
        for name in COLUMNS:
            assert getattr(jc_match, name).shape == (rows,), name
        assert jc_match.n[0] == 0

    def test_columns_read_only(self, jc_match):
        for name in COLUMNS:
            with pytest.raises(ValueError):
                getattr(jc_match, name)[0] = 0

    @pytest.mark.parametrize("gamma", (0.1, 0.0))
    def test_failures_row_by_row(self, gamma, monkeypatch):
        # the failed checks of a row-by-row scan of the columns, in its order:
        # a row's gap before its fidelity deficit, and a NaN fidelity fails. |2 down>
        # lifted by 0.01 moves doublet 2 off its levels; doublet 1 decoupled
        # by hand has neither coupling nor splitting, so no eigenvector: its
        # fidelity is NaN at gamma = 0.1
        sys_ = sq.build_jc(1.0, gamma, 8)
        diag, off = sys_.H.diag.copy(), sys_.H.off.copy()
        diag[4] += 0.01
        off[1] = 0.0
        sys_ = sq.JCSystem(sys_.fock, sys_.omega, sys_.gamma, sys_.Q, sys_.H0,
                           sys_.Hint, sq.Tridiagonal(diag, off))
        monkeypatch.setattr(jcm, "GAP_TOL", 1e-3)
        monkeypatch.setattr(jcm, "FIDELITY_TOL", 0.0)
        with np.errstate(invalid="ignore"):
            match = sq.numeric_vs_analytic(sys_)
        expected = []
        for n, b, gap, fid in zip(match.n.tolist(), match.branch.tolist(),
                                  match.gap.tolist(), match.fidelity.tolist()):
            if gap > 1e-3:
                expected.append(checks.Check(f"gap[n={n},branch={b}]", gap, 1e-3))
            if not fid >= 1.0:
                expected.append(checks.Check(f"fidelity_deficit[n={n},branch={b}]",
                                             1.0 - fid, 0.0))
        assert repr(match.failures) == repr(tuple(expected))
        assert not any(f.passed for f in match.failures)
        names = [f.name for f in match.failures]
        assert f"gap[n=2,branch={0 if gamma == 0.0 else -1}]" in names
        if gamma:
            assert names[:4] == ["gap[n=1,branch=-1]", "fidelity_deficit[n=1,branch=-1]",
                                 "gap[n=1,branch=1]", "fidelity_deficit[n=1,branch=1]"]
            assert np.isnan(match.failures[1].value)

    def test_resonant_doublets_read_one_exactly(self):
        # a = b on every resonant block, so s = c / |c| = 1: fidelity and
        # concurrence are 1 with no rounding
        match = sq.numeric_vs_analytic(sq.build_jc(1.0, 0.1, 512))
        excited = match.n > 0
        assert np.all(match.fidelity == 1.0)
        assert np.all(match.concurrence[excited] == 1.0)
        assert match.min_fidelity == match.min_excited_concurrence == 1.0

    def test_eigen_angle_matches_numpy_eigh(self):
        # hand-built blocks [[a, c], [c, b]] on (|n-1 up>, |n down>): a != b,
        # a negative c, a subnormal c at resonance and off it, and
        # c = a - b = 0, which has no single eigenvector. The oracle is
        # numpy's eigh of the block shifted by its centre and scaled by a
        # power of two, which keeps the eigenvectors and brings the subnormal
        # entries to order one
        blocks = ((0.3, -0.45, 0.7), (1.5, 1.5, 1e-310), (1.0, 0.5, 1e-310),
                  (4.5, 4.7, -0.2), (2.0, 2.0, 0.0), (6.0, 5.0, 0.25))
        sys_ = sq.build_jc(1.0, 0.1, 8)
        diag, off = sys_.H.diag.copy(), sys_.H.off.copy()
        for n, (a, b, c) in enumerate(blocks, start=1):
            diag[2 * n - 1], diag[2 * n], off[2 * n - 1] = a, b, c
        sys_ = sq.JCSystem(sys_.fock, sys_.omega, sys_.gamma, sys_.Q, sys_.H0,
                           sys_.Hint, sq.Tridiagonal(diag, off))
        with np.errstate(invalid="ignore"):
            match = sq.numeric_vs_analytic(sys_)
        eps = np.finfo(float).eps
        for row in range(1, match.n.size):
            n, branch = int(match.n[row]), int(match.branch[row])
            a, b, c = blocks[n - 1]
            if c == a - b == 0.0:
                assert np.isnan(match.fidelity[row]) and np.isnan(match.concurrence[row])
                assert (f"fidelity_deficit[n={n},branch={branch}]"
                        in [f.name for f in match.failures])
                continue
            h = (a - b) / 2.0
            scale = -np.frexp(max(abs(h), abs(c)))[1]
            _, vectors = np.linalg.eigh(np.ldexp([[h, c], [c, -h]], scale))
            up, down = vectors[:, 0 if branch < 0 else 1]
            assert abs(match.fidelity[row] - (up + branch * down) ** 2 / 2.0) <= 4 * eps
            assert abs(match.concurrence[row] - 2.0 * abs(up * down)) <= 4 * eps

    def test_photon_label_evidence(self, jc_match):
        assert jc_match.label_residual_implemented <= 1e-12
        assert jc_match.label_residual_alternative > 1.0

    def test_failures_surface_under_impossible_tolerance(self, jc_default, monkeypatch):
        monkeypatch.setattr(jcm, "GAP_TOL", 0.0)
        monkeypatch.setattr(jcm, "FIDELITY_TOL", 0.0)
        match = sq.numeric_vs_analytic(jc_default)
        assert not match.all_matched

    def test_degenerate_zero_coupling_path(self):
        match = sq.numeric_vs_analytic(sq.build_jc(1.0, 0.0, 16))
        assert match.degenerate
        assert match.max_gap <= 1e-10
        assert match.min_fidelity >= 1 - 1e-10
        assert match.all_matched
        excited = match.n > 0
        assert excited.any() and np.all(match.branch[excited] == 0)
        assert np.all(np.isnan(match.concurrence[excited]))
        assert match.min_excited_concurrence is None

    @pytest.mark.parametrize("gamma", (3.0, 5.0))
    def test_exact_level_crossing(self, gamma):
        # E(1, -) = E(4, -) = -2.5 at gamma 3 and E(1, -) = E(16, -) = -4.5 at
        # gamma 5: a nearest-unused scan hands level 1 the other doublet's vector
        match = sq.numeric_vs_analytic(sq.build_jc(1.0, gamma, 16))
        assert match.all_matched
        assert match.min_fidelity >= 1 - 1e-10

    @pytest.mark.parametrize("gamma", (1e-12, 1e-17))
    def test_weak_coupling(self, gamma):
        # the splitting 2 gamma sqrt(n) is at or below the rounding of E, so an
        # eigenvector formed from the numeric E would be wrong
        match = sq.numeric_vs_analytic(sq.build_jc(1.0, gamma, 16))
        assert match.all_matched
        assert match.min_fidelity >= 1 - 1e-10
        assert match.min_excited_concurrence == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("gamma", (1e-310, 1e-320, 5e-324))
    def test_subnormal_coupling(self, tmp_path, gamma):
        # each block's vector (c, +-c) has a subnormal c: normalized as it
        # stands, it lost its digits (C = 1 - 1.7e-14 at 1e-310) or failed
        # the unit-norm check of the concurrence (below about 1e-315)
        match = sq.numeric_vs_analytic(sq.build_jc(1.0, gamma, 8))
        eps = np.finfo(float).eps
        assert match.all_matched
        assert 1.0 - match.min_fidelity <= 2 * eps
        assert 1.0 - match.min_excited_concurrence <= 2 * eps
        cfg = {"command": "jc", "jc_params": {"omega": 1.0, "gamma": gamma, "n_max": 8}}
        assert cli.run_jc(cfg, str(tmp_path), "csv") == 0

    @pytest.mark.parametrize("gamma", (0.1, 0.0))
    @pytest.mark.parametrize("n_max", (16, 64))
    def test_matches_dense_eigenvector_oracle(self, jc_dense_match, n_max, gamma):
        sys_ = sq.build_jc(1.0, gamma, n_max)
        match = sq.numeric_vs_analytic(sys_)
        oracle = jc_dense_match(sys_)
        tol = 4 * np.finfo(float).eps * np.linalg.norm(sys_.H.to_dense(), 2)
        assert np.array_equal(match.n, oracle["n"])
        assert np.array_equal(match.branch, oracle["branch"])
        assert np.array_equal(match.E_analytic, oracle["E_analytic"])
        assert np.max(np.abs(match.E_numeric - oracle["E_numeric"])) <= tol
        assert np.max(np.abs(match.fidelity - oracle["fidelity"])) <= 1e-12
        none = np.isnan(oracle["concurrence"])
        assert np.array_equal(np.isnan(match.concurrence), none)
        assert np.max(np.abs(match.concurrence[~none] - oracle["concurrence"][~none])) <= 1e-12

    def test_match_memory(self, traced_peak):
        # the eigenvector matrix of the general path would take over 500 MB here
        assert traced_peak(lambda: sq.numeric_vs_analytic(sq.build_jc(1.0, 0.1, 4096))) < 8e6

    def test_rejects_coupled_manifolds(self, jc_default):
        # an entry between |m down> and |m up> breaks the 2x2 block structure
        H = jc_default.H
        off = H.off.copy()
        off[2] = 0.25
        sys_ = sq.JCSystem(jc_default.fock, jc_default.omega, jc_default.gamma,
                           jc_default.Q, jc_default.H0, jc_default.Hint,
                           sq.Tridiagonal(H.diag, off))
        with pytest.raises(ValueError, match="block"):
            sq.numeric_vs_analytic(sys_)
