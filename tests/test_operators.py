"""Factorized operators: B, its adjoint, the partner pair and supercharges."""

import _ctypes
import ctypes
import decimal
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import _flapack
from scipy.linalg.lapack import dstebz, dstein

import susyqm as sq
from susyqm import operators

ROOT2 = np.sqrt(2.0)
SRC = Path(__file__).resolve().parent.parent / "src"


# scipy's own OpenBLAS, which its LAPACK wrappers run on
_SCIPY_BLAS = ctypes.CDLL(_flapack.__file__)
_SCIPY_BLAS.scipy_openblas_set_num_threads.argtypes = (ctypes.c_int,)
_SCIPY_BLAS.scipy_openblas_set_num_threads.restype = None
_SCIPY_BLAS.scipy_openblas_get_num_threads.restype = ctypes.c_int


def wrapper_stein(d, e, w, iblock, isplit):
    """scipy's dstein wrapper, its BLAS on one thread as `Bisection` runs stein: (z, info).

    On more threads its dot products over a long vector sum in another order.
    """
    before = _SCIPY_BLAS.scipy_openblas_get_num_threads()
    _SCIPY_BLAS.scipy_openblas_set_num_threads(1)
    try:
        return dstein(d, e, w, iblock, isplit)
    finally:
        _SCIPY_BLAS.scipy_openblas_set_num_threads(before)


@pytest.fixture(scope="module")
def small_grid():
    return sq.make_grid(-10, 10, 201)


def wrapper_vectors(solved):
    """`Bisection.vectors()` on scipy's dstein wrapper, one call per gap group, written out.

    scipy's wrapper runs its own LAPACK build, an independent oracle of the
    one numpy's linalg links, on which `_Lapack` runs.

    The values ascending, equal ones by block, start a new group where one
    lies at least operators._GROUP_GAP (max|d| + 2 max|e|) above the one
    below it; each group goes to the wrapper by block, and its columns are
    put at its values' places by indexing. Returns the vectors and the sum
    of the wrapper's infos.
    """
    d, e = solved._d, solved._e
    w, blocks, isplit = solved._found
    n = d.size
    order = sorted(range(w.size), key=lambda j: (w[j], blocks[j]))
    gap = operators._GROUP_GAP * (np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))
    groups = [[0]]
    for k in range(1, w.size):
        if w[order[k]] - w[order[k - 1]] >= gap:
            groups.append([k])
        else:
            groups[-1].append(k)
    v = np.empty((n, w.size), order="F")
    total = 0
    for group in groups:
        by_block = sorted(group, key=lambda k: blocks[order[k]])
        iblock = np.zeros(n, dtype=np.int32)
        iblock[:len(group)] = [blocks[order[k]] for k in by_block]
        z, info = wrapper_stein(d, e, np.array([w[order[k]] for k in by_block]), iblock, isplit)
        v[:, by_block] = z
        total += info
    return v, total


def recorded_stein(monkeypatch, record):
    """Spy on every `_Lapack.stein` call: record(lapack, w, groups) is run before it."""
    stein = operators._Lapack.stein

    def recording(lapack, isplit, w, iblock, z, groups):
        record(lapack, w, groups)
        return stein(lapack, isplit, w, iblock, z, groups)

    monkeypatch.setattr(operators._Lapack, "stein", recording)


def twin_blocks(rng, half):
    """A tridiagonal in blocks, then behind one more zero a copy of it scaled by 1 - 1e-12.

    Its levels are positive, so each has a twin 1e-12 relatively below it,
    in a later block: the two share a gap group whose blocks descend.
    """
    diag = 10.0 + rng.normal(size=half)
    off = rng.normal(size=half - 1) * (rng.random(half - 1) < 0.7)
    scale = 1.0 - 1e-12
    return sq.Tridiagonal(np.concatenate([diag, scale * diag]),
                          np.concatenate([off, [0.0], scale * off]))


class TestBandedTypes:
    """`@` and `.T @` of the banded operators against their dense form."""

    N = 7

    @pytest.fixture
    def operators(self):
        rng = np.random.default_rng(5)
        d, u = rng.normal(size=self.N), rng.normal(size=self.N - 1)
        return (sq.Bidiagonal(d, u), sq.Bidiagonal(d, u, lower=True),
                sq.Tridiagonal(d, u))

    @pytest.mark.parametrize("dtype", (float, complex))
    def test_matvec_matches_dense(self, operators, dtype):
        rng = np.random.default_rng(6)
        for M in operators:
            for op in (M, M.T):
                v = rng.normal(size=self.N).astype(dtype)
                if dtype is complex:
                    v += 1j * rng.normal(size=self.N)
                dense = op.to_dense()
                # two or three rounded terms per entry
                floor = 4 * np.finfo(float).eps * (np.abs(dense) @ np.abs(v))
                assert np.all(np.abs(op @ v - dense @ v) <= floor)

    @pytest.mark.parametrize("dtype", (float, complex))
    def test_stack_is_its_rows_bit_for_bit(self, operators, dtype):
        # `@` acts along the last axis: a (k, n) or (j, k, n) stack in one
        # call, each vector exactly as alone
        rng = np.random.default_rng(9)
        V = rng.normal(size=(2, 3, self.N)).astype(dtype)
        if dtype is complex:
            V += 1j * rng.normal(size=V.shape)
        for M in operators:
            for op in (M, M.T):
                for stack in (V[0], V):
                    out = op @ stack
                    assert out.shape == stack.shape and out.dtype == stack.dtype
                    for got, v in zip(out.reshape(-1, self.N), stack.reshape(-1, self.N)):
                        assert got.tobytes() == (op @ v).tobytes()

    def test_transpose_is_dense_transpose(self, operators):
        for M in operators:
            assert np.array_equal(M.T.to_dense(), M.to_dense().T)
        upper, lower, tri = operators
        assert np.array_equal(upper.to_dense(), np.triu(upper.to_dense()))
        assert np.array_equal(lower.to_dense(), np.tril(lower.to_dense()))
        assert tri.T is tri

    def test_nbytes_and_shape(self, operators):
        for M in operators:
            assert M.shape == (self.N, self.N)
            assert M.nbytes == (2 * self.N - 1) * 8

    @pytest.mark.parametrize("dtype", (float, complex))
    def test_one_row_short_bidiagonal(self, dtype):
        # N - 1 entries in both bands: an (N - 1) x N upper bidiagonal, as
        # the grid's B, and its N x (N - 1) transpose, each applied along
        # the last axis as its dense form, a stack row by row bit for bit
        rng = np.random.default_rng(7)
        B = sq.Bidiagonal(rng.normal(size=self.N - 1), rng.normal(size=self.N - 1))
        assert B.shape == (self.N - 1, self.N) and B.T.shape == (self.N, self.N - 1)
        assert B.nbytes == (2 * self.N - 2) * 8
        dense = B.to_dense()
        assert np.array_equal(dense, np.triu(dense)) and np.array_equal(B.T.to_dense(), dense.T)
        expected = np.zeros((self.N - 1, self.N))
        expected[:, :-1] += np.diag(B.diag)
        expected[:, 1:] += np.diag(B.off)
        assert np.array_equal(dense, expected)
        for op in (B, B.T):
            V = rng.normal(size=(2, 3, op.shape[1])).astype(dtype)
            if dtype is complex:
                V += 1j * rng.normal(size=V.shape)
            out = op @ V
            assert out.shape == (2, 3, op.shape[0]) and out.dtype == V.dtype
            floor = 4 * np.finfo(float).eps * (np.abs(op.to_dense()) @ np.abs(V[0, 0]))
            assert np.all(np.abs(out[0, 0] - op.to_dense() @ V[0, 0]) <= floor)
            for got, v in zip(out.reshape(-1, op.shape[0]), V.reshape(-1, op.shape[1])):
                assert got.tobytes() == (op @ v).tobytes()
            with pytest.raises(ValueError, match="cannot apply"):
                op @ np.zeros(op.shape[1] + 1)

    def test_bands_must_form_the_matrix(self):
        d = np.ones(self.N)
        for make, diag, off in ((sq.Tridiagonal, d[:-1], d[:-1]), (sq.Bidiagonal, d[:-2], d[:-1]),
                                (sq.Bidiagonal, d, d[:-2]), (sq.Tridiagonal, d, d)):
            with pytest.raises(ValueError, match="do not form"):
                make(diag, off)

    def test_read_only(self, operators):
        for M in operators:
            with pytest.raises(ValueError):
                M.diag[0] = 1.0
            with pytest.raises(ValueError):
                M.off[0] = 1.0
            with pytest.raises(AttributeError):
                M.diag = np.zeros(self.N)

    def test_bands_are_copied(self):
        d, u = np.ones(3), np.ones(2)
        M = sq.Tridiagonal(d, u)
        d[0] = 5.0
        assert M.diag[0] == 1.0

    def test_shape_mismatch_rejected(self, operators):
        for M in operators:
            for v in (np.ones(self.N + 1), np.ones((2, self.N + 1)), np.float64(1.0)):
                with pytest.raises(ValueError):
                    M @ v
        with pytest.raises(ValueError):
            sq.Tridiagonal(np.ones(4), np.ones(4))


class TestTridiagonalWindows:
    """Eigenvalues selected by value windows, by the same bisection as `eigh`."""

    def test_counts_values_and_vectors_per_window(self):
        T = sq.Tridiagonal([3.0, 1.0, 2.0, 5.0], [0.0, 0.0, 0.0])
        found = T.eigh_windows([(0.0, 1.5), (1.5, 2.5), (2.5, 2.9), (2.9, 5.0)])
        assert found.counts == (1, 1, 0, 2)
        assert found.values.tolist() == [1.0, 2.0, 3.0, 5.0]
        assert np.array_equal(np.abs(found.vectors()), np.eye(4)[:, [1, 2, 0, 3]])
        with pytest.raises(ValueError):
            found.values[0] = 0.0
        with pytest.raises(AttributeError):
            found.counts = (4,)

    def test_windows_agree_with_index_selection(self):
        rng = np.random.default_rng(11)
        T = sq.Tridiagonal(rng.normal(size=60), rng.normal(size=59))
        solved = T.eigh(0, 59)
        blind = solved.values
        cuts = (blind[:-1] + blind[1:]) / 2.0
        bounds = np.concatenate([[blind[0] - 1.0], cuts, [blind[-1] + 1.0]])
        found = T.eigh_windows(np.column_stack([bounds[:-1], bounds[1:]]))
        assert found.counts == (1,) * 60
        assert np.max(np.abs(found.values - blind)) <= 4 * np.finfo(float).eps * np.max(np.abs(blind))
        overlaps = np.sum(found.vectors() * solved.vectors(), axis=0)
        assert np.min(np.abs(overlaps)) >= 1.0 - 1e-12

    def test_infinite_tol_still_counts_exactly(self):
        # a window from -inf starts at LAPACK's Gershgorin bound, which the
        # free Laplacian's exact zero eigenvalue touches
        rng = np.random.default_rng(12)
        for T in (sq.Tridiagonal(rng.normal(size=50), rng.normal(size=49)),
                  sq.Tridiagonal(np.r_[1.0, 2.0 * np.ones(48), 1.0], -np.ones(49))):
            evals = T.eigh(0, 49).values
            hi = (evals[29] + evals[30]) / 2.0
            assert T.eigh_windows([(-np.inf, hi)], tol=np.inf).counts == (30,)
            lowest = T.eigh_windows([(-np.inf, evals[0] + 1e-6)])
            assert lowest.counts == (1,) and abs(lowest.values[0] - evals[0]) <= 1e-14

    @pytest.mark.parametrize("windows", ([(1.0, 1.0)], [(0.0, 2.0), (1.0, 3.0)],
                                         [(2.0, 3.0), (0.0, 1.0)]))
    def test_empty_overlapping_or_unsorted_windows_rejected(self, windows):
        T = sq.Tridiagonal([1.0, 2.0], [0.5])
        with pytest.raises(ValueError, match="ascending and disjoint"):
            T.eigh_windows(windows)


class TestTridiagonalIndexSelection:
    """Eigenvalues selected by index, on matrices at the edge of what stebz takes."""

    def test_one_by_one(self):
        T = sq.Tridiagonal([2.0], [])
        assert sq.operator_norm(T) == 2.0
        solved = T.eigh(0, 0)
        assert solved.values.tolist() == [2.0] and solved.vectors().tolist() == [[1.0]]

    @pytest.mark.parametrize("lo, hi", ((0, 3), (2, 1), (-1, 1)))
    def test_indices_outside_the_matrix_rejected(self, capfd, lo, hi):
        # before LAPACK is called: its error handler would print to stdout
        T = sq.Tridiagonal([1.0, 2.0, 3.0], [0.5, 0.5])
        with pytest.raises(ValueError, match=f"indices {lo}..{hi} outside 0..2"):
            T.eigh(lo, hi)
        assert capfd.readouterr() == ("", "")

    def test_near_multiples_of_the_identity(self):
        # stebz finds the Gershgorin interval of some of these index
        # selections too small and computes nothing (info 2); those are
        # redone over all eigenvalues. Every other selection is the plain
        # index selection, bit for bit. A redone one is held to the dense
        # solver: bisection stops at width eps G + 2 eps |lambda| (abstol 0,
        # G the Gershgorin bound of ||T||), and its Sturm counts are exact
        # for T perturbed by at most 2.5 eps relative in each entry (Kahan;
        # Demmel, Applied Numerical Linear Algebra, sec. 5.3.4), so it lies
        # within 5.5 eps G of an exact eigenvalue; eigvalsh is backward stable
        # within a small multiple of eps ||T||, taken as n eps G. The worst
        # measured is 3.9 eps G.
        rng = np.random.default_rng(0)
        eps = np.finfo(float).eps
        redone = 0
        for _ in range(3000):
            n = int(rng.integers(2, 40))
            lam, s = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-17, -13)
            T = sq.Tridiagonal(lam * (1.0 + s * rng.standard_normal(n)),
                               lam * s * rng.standard_normal(n - 1))
            radius = np.zeros(n)
            radius[:-1] += np.abs(T.off)
            radius[1:] += np.abs(T.off)
            bound = (n + 6) * eps * np.max(np.abs(T.diag) + radius)
            dense = np.linalg.eigvalsh(T.to_dense())
            for lo, hi in ((0, n - 1), (0, 0), (n - 1, n - 1)):
                got = T.eigh(lo, hi, tol=0.0).values
                m, w, *_, info = dstebz(T.diag, T.off, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0, "E")
                if info == 0:
                    assert np.array_equal(got, w[:m])
                else:
                    assert info == 2
                    redone += 1
                    assert np.max(np.abs(got - dense[lo:hi + 1])) <= bound
            assert abs(sq.operator_norm(T) - np.max(np.abs(dense))) <= bound
        assert redone > 0

    def test_near_multiples_of_the_identity_with_eigenvectors(self):
        # inverse iteration (stein) does not converge on some of these; it is
        # redone on T - sigma, sigma the median of the diagonal. A matrix
        # whose plain stebz + stein succeeds keeps that result bit for bit:
        # the oracle is scipy's stein wrapper, called once per gap group. A
        # redone one: lambda comes from the unshifted bisection, within
        # 5.5 eps G of an exact eigenvalue (see the test above), and v from
        # inverse iteration on T - sigma, which is exact (each diagonal entry
        # is within a factor 2 of sigma), at the shifted bisection's
        # eigenvalue, within another 5.5 eps G; stein's own residual is taken
        # as n eps ||T - sigma|| <= n eps G. So ||T v - lambda v|| <=
        # (n + 11) eps G; the worst measured is 1.6 eps G. The redo keeps the
        # gap threshold of T, on whose scale all levels of such a matrix are
        # one gap group, which stein reorthogonalises: |V^T V - I| is taken
        # as 4 n eps; the worst measured is 2.3 n eps.
        rng = np.random.default_rng(0)
        eps = np.finfo(float).eps
        redone = 0
        for _ in range(3000):
            n = int(rng.integers(2, 40))
            lam, s = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-17, -13)
            T = sq.Tridiagonal(lam * (1.0 + s * rng.standard_normal(n)),
                               lam * s * rng.standard_normal(n - 1))
            solved = T.eigh(0, n - 1)
            values, vectors = solved.values, solved.vectors()
            m, w, iblock, isplit, info = dstebz(T.diag, T.off, 2, 0.0, 1.0, 1, n, 1e-300, "B")
            if info == 2:
                m, w, iblock, isplit, info = dstebz(T.diag, T.off, 0, 0.0, 0.0, 0, 0, 1e-300, "B")
            assert info == 0 and m == n
            assert np.array_equal(values, np.sort(w[:m]))
            v, info = wrapper_vectors(solved)
            if info == 0 and np.all(np.isfinite(v)):
                assert vectors.tobytes(order="F") == v.tobytes(order="F")
                continue
            redone += 1
            radius = np.zeros(n)
            radius[:-1] += np.abs(T.off)
            radius[1:] += np.abs(T.off)
            G = np.max(np.abs(T.diag) + radius)
            assert np.array_equal(values, T.eigh(0, n - 1).values)
            residual = np.linalg.norm(T.to_dense() @ vectors - vectors * values, axis=0)
            assert np.max(residual) <= (n + 11) * eps * G
            assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) <= 4 * n * eps
        assert redone > 0


class TestEigenvectorOrder:
    @pytest.mark.parametrize("seed", range(20))
    def test_split_blocks_reordered_in_place_as_by_indexing(self, seed):
        # off-diagonal zeros split T into blocks, and every level has a twin
        # in a later block just below it, so their gap groups span blocks,
        # which stein takes in block order; the columns put in ascending
        # order in place equal the per-group wrapper's put there by indexing
        rng = np.random.default_rng(seed)
        half = int(rng.integers(1, 30))
        T = twin_blocks(rng, half)
        lo = 2 * int(rng.integers(0, half))
        hi = int(rng.integers(lo + 1, 2 * half))
        solved = T.eigh(lo, hi)
        w, blocks, _ = solved._found
        assert np.any(np.diff(blocks[np.lexsort((blocks, w))]) < 0)  # blocks descend somewhere
        want, info = wrapper_vectors(solved)
        assert info == 0
        assert solved.vectors().tobytes(order="F") == want.tobytes(order="F")

    def test_interleaved_blocks_keep_their_vectors_orthogonal(self):
        # a near multiple of the identity splits into blocks whose values
        # interleave within the gap threshold, so another block's value cuts
        # a run of one block's close values: only the whole gap group, handed
        # to stein by block, keeps that run in one call, reorthogonalised.
        # Every set of vectors keeps the 1e-9 orthogonality that
        # `Bisection.vectors` states (the worst measured is 7.9e-14); with
        # groups that end at a block, 101 of these 300 sets break it, the
        # worst with an overlap of 1 to three digits
        rng = np.random.default_rng(0)
        cut = 0
        for _ in range(300):
            n = int(rng.integers(2, 40))
            solved = sq.Tridiagonal(*near_identity(rng, n)).eigh(0, n - 1)
            w, blocks, _ = solved._found
            blocks = blocks[np.lexsort((blocks, w))]  # in ascending order of the values
            cut += any(np.ptp(np.flatnonzero(blocks == b)) >= np.sum(blocks == b)
                       for b in np.unique(blocks))
            v = solved.vectors()
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-9
        assert cut > 0

    def test_nan_vectors_are_redone_on_the_shifted_bands(self):
        # on H- of W = 2^206 x on a 20-point box the diagonal spans 3 to 5e123
        # and stein returns NaN in level 1's vector with info = 0; the redo on
        # the bands shifted by their median gives the dense solver's vectors
        system = sq.build_susy_system(sq.get_superpotential("harmonic", scale=2.0 ** 206),
                                      sq.make_grid(-10.0, 1.0, 20))
        v = system.H_minus.eigh(0, 1).vectors()
        assert np.all(np.isfinite(v))
        _, dense = np.linalg.eigh(system.H_minus.to_dense())
        assert np.allclose(np.abs(np.sum(v * dense[:, :2], axis=0)), 1.0, atol=1e-12)


def double_well(coupling):
    """Two free-Laplacian halves of 100 rows joined by `coupling`: one block, close level pairs."""
    off = np.full(199, -1.0)
    off[99] = -coupling
    return sq.Tridiagonal(np.full(200, 2.0), off)


class TestEigenvectorGroups:
    """One stein call per gap group, and only for the groups that hold the levels asked for."""

    @staticmethod
    def recorded_groups(monkeypatch):
        """The groups (lo, hi) of every `_Lapack.stein` call, a list a call."""
        parts = []
        recorded_stein(monkeypatch, lambda lapack, w, groups: parts.append(list(groups)))
        return parts

    def test_near_degenerate_levels_share_a_call(self, monkeypatch):
        # the halves' levels pair up 4e-12 to 1e-10 apart, under the gap
        # threshold _GROUP_GAP ||T|| = 8.9e-7, and the pairs lie 3e-3 and more
        # apart, above it: each pair is one stein call, reorthogonalised
        # within it. Vectors of different calls are orthogonal to about
        # eps ||T|| / gap <= 1e-9, the derived bound, which the whole set
        # meets (measured 1.6e-14); formed one call a level, the two of a
        # pair are not (measured 9.7e-6)
        T = double_well(1e-7)
        solved = T.eigh(0, 9)
        gap = operators._GROUP_GAP * 4.0  # max|d| + 2 max|e|
        splits = np.diff(solved.values)
        assert np.all(splits[0::2] < gap) and np.all(splits[1::2] >= gap)
        w, blocks, isplit = solved._found
        assert np.all(blocks == 1)
        parts = self.recorded_groups(monkeypatch)
        v = solved.vectors()
        assert parts == [[(k, k + 2) for k in range(0, 10, 2)]]
        assert np.max(np.abs(v.T @ v - np.eye(10))) <= 1e-9
        residual = np.linalg.norm(T @ v.T - solved.values[:, None] * v.T, axis=1)
        assert np.max(residual) <= 200 * np.finfo(float).eps * 4.0  # n eps ||T||, as above
        iblock = np.zeros(200, dtype=np.int32)
        iblock[0] = 1
        apart = np.column_stack([wrapper_stein(T.diag, T.off, solved.values[k:k + 1],
                                               iblock, isplit)[0][:, 0] for k in range(10)])
        assert np.max(np.abs(np.sum(apart[:, 0::2] * apart[:, 1::2], axis=0))) > 1e-9

    @pytest.mark.parametrize("case", ("harmonic", "shifted_cubic", "double_well", "twin_blocks"))
    def test_level_alone_equals_level_with_every_level(self, monkeypatch, case):
        # only the groups holding the levels asked for run, and a group's
        # vectors depend only on its own call: a level alone, a slice and
        # every level give the same bits
        if case == "double_well":
            T = double_well(1e-7)
        elif case == "twin_blocks":
            T = twin_blocks(np.random.default_rng(3), 40)
        else:
            T = sq.build_susy_system(sq.get_superpotential(case),
                                     sq.make_grid(-10.0, 10.0, 1001)).H_plus
        solved = T.eigh(0, 39)
        every = solved.vectors()
        parts = self.recorded_groups(monkeypatch)
        for k in (0, 1, 2, 17, 38, 39):
            parts.clear()
            alone = solved.vectors(slice(k, k + 1))
            assert alone.tobytes(order="F") == every[:, k].tobytes()
            (groups,) = parts
            assert len(groups) == 1 and groups[0][1] - groups[0][0] <= 2
        assert solved.vectors(slice(1, None)).tobytes(order="F") == every[:, 1:].tobytes(order="F")
        assert solved.vectors(slice(5, 9)).tobytes(order="F") == every[:, 5:9].tobytes(order="F")

    def test_low_levels_of_one_block_are_one_call(self, monkeypatch):
        # harmonic H+ at 32001 points, 32000 rows with no wall node: ||T|| is
        # about 5e6, so the gap threshold is 1.14, and levels 0..5 (one
        # block, about one apart) share one gap group, formed in one stein
        # call, equal to scipy's wrapper on those six values, bit for bit
        system = sq.build_susy_system(sq.get_superpotential("harmonic"),
                                      sq.make_grid(-10.0, 10.0, 32001))
        solved = system.H_plus.eigh(0, 5)
        w, blocks, isplit = solved._found
        gap = operators._GROUP_GAP * (np.max(np.abs(solved._d)) + 2.0 * np.max(np.abs(solved._e)))
        assert blocks.tolist() == [1] * 6 and w[0] > 0.5
        assert np.all(np.diff(w) < gap)
        formed = []
        recorded_stein(monkeypatch, lambda lapack, w, groups: formed.extend(
            w[a:b].tolist() for a, b in groups))
        v = solved.vectors()
        assert formed == [solved.values.tolist()]
        iblock = np.zeros(32000, dtype=np.int32)
        iblock[:6] = 1
        want, info = wrapper_stein(solved._d, solved._e, solved.values, iblock, isplit)
        assert info == 0
        assert v.tobytes(order="F") == want.tobytes(order="F")

    def test_empty_and_strided_selections(self):
        solved = double_well(1e-7).eigh(0, 3)
        assert solved.vectors(slice(2, 2)).shape == (200, 0)
        assert solved.vectors(slice(3, 1)).shape == (200, 0)
        with pytest.raises(ValueError, match="unit step"):
            solved.vectors(slice(0, 4, 2))


class TestLapackLoader:
    """The bisection routines come from the OpenBLAS numpy's linalg links; scipy is not loaded."""

    def test_cli_import_leaves_scipy_linalg_out(self):
        # nor any other scipy module; only a fresh interpreter shows it, as
        # this module imports scipy.linalg
        script = ("import sys\n"
                  "import susyqm.cli\n"
                  "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_routines_are_the_symbols_of_the_library_numpy_linalg_links(self):
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        for name, routine in (("scipy_dstebz_64_", operators._DSTEBZ),
                              ("scipy_dstein_64_", operators._DSTEIN),
                              ("openblas_set_num_threads_local", operators._BLAS_THREADS)):
            address = ctypes.cast(getattr(lib, name), ctypes.c_void_p).value
            assert address is not None
            assert ctypes.cast(routine, ctypes.c_void_p).value == address

    @pytest.fixture
    def blas_threads(self):
        """Set and get the process-wide thread count of numpy's OpenBLAS; restored after."""
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        set_threads = lib.scipy_openblas_set_num_threads64_
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        get_threads.restype = ctypes.c_int
        before = get_threads()
        yield set_threads, get_threads
        set_threads(before)

    def test_vectors_are_the_same_bits_on_any_blas_thread_count(self, blas_threads):
        # at 32001 points dstein's dot products over a vector split across
        # OpenBLAS's threads, which sum in another order; stein runs its BLAS
        # on one thread of its own, so the vectors are the bits of one thread
        # whatever the process-wide count of numpy's OpenBLAS
        set_threads, get_threads = blas_threads
        H = sq.build_susy_system(sq.get_superpotential("harmonic"),
                                 sq.make_grid(-10.0, 10.0, 32001)).H_minus
        bits = []
        for threads in (1, 2):
            set_threads(threads)
            assert get_threads() == threads
            bits.append(H.eigh(0, 6).vectors().tobytes(order="F"))
        assert bits[0] == bits[1]

    def test_blas_thread_count_is_restored_after_two_halves(self, blas_threads):
        # 100 levels x 8000 rows >= 2^15: the eigenvectors are formed as two
        # halves, at once when a second core is free. The setter acts on the
        # whole process, so set and restored in each half, the second half
        # saved the first half's one thread and left the process on it
        set_threads, get_threads = blas_threads
        T = sq.build_susy_system(sq.get_superpotential("harmonic"),
                                 sq.make_grid(-10.0, 10.0, 8001)).H_plus
        solved = T.eigh(0, 99)
        set_threads(2)
        for _ in range(3):
            solved.vectors()
            assert get_threads() == 2

    def test_missing_symbol_is_one_import_error_naming_numpys_lapack(self):
        # the ctypes extension links no LAPACK, so it exports none of the three
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        with pytest.raises(ImportError) as info:
            operators._load_lapack(_ctypes.__file__)
        message = str(info.value)
        assert len(message.splitlines()) == 1
        assert f"{lapack['name']} {lapack['version']}" in message
        for name in ("scipy_dstebz_64_", "scipy_dstein_64_", "openblas_set_num_threads_local"):
            assert name in message


def wrapper_part(d, e, selections, tol):
    """`operators._bisect_part` on scipy's dstebz wrapper, written out: the loop it replaced."""
    rows = []
    for rng, vl, vu, il, iu in selections:
        m, w, iblock, isplit, info = dstebz(d, e, rng, vl, vu, il, iu, tol, "B")
        keep = slice(m)
        if info == 2:
            m, w, iblock, isplit, info = dstebz(d, e, 0, 0.0, 0.0, 0, 0, tol, "B")
            keep = np.argsort(w[:m], kind="stable")[il - 1:iu]
        rows.append((w[keep], iblock[keep], info))
        if info != 0:
            break
    return rows, isplit


def assert_same_parts(got, want):
    (rows, isplit), (want_rows, want_isplit) = got, want
    assert len(rows) == len(want_rows)
    for (w, blocks, info), (want_w, want_blocks, want_info) in zip(rows, want_rows):
        assert info == want_info
        assert w.tobytes() == want_w.tobytes()
        assert np.array_equal(blocks, want_blocks)  # int64 here, the wrapper's int32
    assert np.array_equal(isplit, want_isplit)


def near_identity(rng, n):
    """A near multiple of the identity, on which stebz may compute nothing (info 2)."""
    lam, s = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-17, -13)
    return lam * (1.0 + s * rng.standard_normal(n)), lam * s * rng.standard_normal(n - 1)


@st.composite
def stebz_cases(draw):
    """Bands of 1..300 rows at any scale the squares stay finite on, and selections of them."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        d, e = near_identity(rng, n)
        scale = float(np.max(np.abs(d)))
    else:  # tiny bands underflow their squares, huge ones reach operators._BAND_MAX
        scale = 10.0 ** draw(st.floats(-300.0, 145.0))
        d, e = scale * rng.standard_normal(n), scale * rng.standard_normal(n - 1)
    selections = []
    for rng_code in draw(st.lists(st.sampled_from((0, 1, 2)), min_size=1, max_size=4)):
        if rng_code == 1:
            vl = scale * draw(st.floats(-4.0, 4.0))
            vu = vl + scale * draw(st.floats(1e-6, 8.0))
            selections.append((1, vl, vu, 0, 0) if vl < vu else (0, 0.0, 0.0, 0, 0))
        elif rng_code == 2:
            il, iu = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2)))
            selections.append((2, 0.0, 1.0, il, iu))
        else:
            selections.append((0, 0.0, 0.0, 0, 0))
    tol = draw(st.sampled_from((1e-300, 0.0, np.inf)))
    return d, e if n > 1 else np.zeros(1), selections, tol


class TestStebzBinding:
    """dstebz of numpy's LAPACK against scipy's wrapper of its own build, bit for bit."""

    @given(case=stebz_cases())
    @settings(max_examples=200, deadline=None)
    def test_selections_on_one_workspace_equal_the_wrapper(self, case):
        # every call of a part reuses one workspace, so what an earlier call
        # left in it must not reach a later result
        d, e, selections, tol = case
        assert_same_parts(operators._bisect_part(operators._Lapack(d, e), selections, tol),
                          wrapper_part(d, e, selections, tol))

    def test_the_info_2_redo_equals_the_wrapper(self):
        rng = np.random.default_rng(1)
        redone = 0
        while redone < 20:
            n = int(rng.integers(2, 40))
            d, e = near_identity(rng, n)
            for lo, hi in ((1, n), (1, 1), (n, n), (2, n - 1)):
                selections = [(2, 0.0, 1.0, max(lo, 1), max(hi, lo, 1))]
                got = operators._bisect_part(operators._Lapack(d, e), selections, 0.0)
                assert_same_parts(got, wrapper_part(d, e, selections, 0.0))
                redone += dstebz(d, e, *selections[0], 0.0, "B")[-1] == 2

    def test_the_info_2_write_before_iblock_lands_in_the_spare_slot(self):
        # iteration 13 of test_near_multiples_of_the_identity: n = 27 and the
        # selection 27..27, whose Gershgorin interval is too small (info 2).
        # On that path dstebz writes 0 to IBLOCK(0), the integer just before
        # the iblock it is given; the workspace keeps one spare slot there,
        # so the write stays inside its int array
        rng = np.random.default_rng(0)
        for _ in range(14):
            n = int(rng.integers(2, 40))
            d, e = near_identity(rng, n)
        selections = [(2, 0.0, 1.0, n, n)]
        assert n == 27 and dstebz(d, e, *selections[0], 0.0, "B")[-1] == 2
        lapack = operators._Lapack(d, e)
        ints = lapack.iblock.base
        spare = (lapack.iblock.ctypes.data - ints.ctypes.data) // ints.itemsize
        # the spare slot, then iblock, isplit and stebz's 3n of work space
        assert spare == 1 and lapack.isplit.base is ints and ints.size == 1 + 5 * n
        bands = d.tobytes() + e.tobytes()
        ints[0] = -1
        got = operators._bisect_part(lapack, selections, 0.0)  # the selection, then its redo
        assert ints[0] == 0
        assert d.tobytes() + e.tobytes() == bands
        assert_same_parts(got, wrapper_part(d, e, selections, 0.0))

    def test_what_lapack_rejects_is_refused_before_the_call(self):
        lapack = operators._Lapack(np.ones(3), np.zeros(2))
        for selection in ((1, 1.0, 1.0, 0, 0), (2, 0.0, 1.0, 0, 2), (2, 0.0, 1.0, 3, 2),
                          (2, 0.0, 1.0, 1, 4)):
            with pytest.raises(ValueError, match="out of range"):
                lapack.stebz(*selection, 0.0)
        with pytest.raises(ValueError, match="contiguous float64"):
            operators._Lapack(np.ones(6)[::2], np.zeros(2))
        with pytest.raises(ValueError, match="contiguous float64"):
            operators._Lapack(np.ones(3, dtype=np.float32), np.zeros(2))
        frozen = np.zeros(2)
        frozen.flags.writeable = False  # ctypes views only a writable buffer
        with pytest.raises(ValueError, match="writable contiguous float64"):
            operators._Lapack(np.ones(3), frozen)

    def test_stein_arrays_are_checked_before_the_call(self):
        # stein's values, blocks, block ends and columns are viewed by
        # address, so each must be a writable contiguous array of its type
        # and size, and the columns a Fortran n x m array with 0 < m <= n
        lapack = operators._Lapack(np.ones(3), np.zeros(2))
        isplit, w = np.array([1, 2, 3], dtype=np.int64), np.ones(2)
        iblock, z = np.array([1, 2], dtype=np.int64), np.empty((3, 2), order="F")
        frozen = np.ones(2)
        frozen.flags.writeable = False
        for args in ((isplit[:2], w, iblock, z), (isplit.astype(np.int32), w, iblock, z),
                     (isplit, frozen, iblock, z), (isplit, np.ones(4)[::2], iblock, z),
                     (isplit, w, iblock[:1], z), (isplit, w, iblock, np.empty((3, 2))),
                     (isplit, w, iblock, np.empty((2, 2), order="F")),
                     (isplit, w[:0], iblock[:0], np.empty((3, 0), order="F"))):
            with pytest.raises(ValueError, match="stein takes writable contiguous"):
                lapack.stein(*args, [(0, 1)])
        assert lapack.stein(isplit, w, iblock, z, [(0, 1), (1, 2)]) == 0
        assert np.array_equal(np.abs(z), np.eye(3)[:, :2])

    def test_stein_after_stebz_on_one_workspace_equals_the_wrappers(self):
        # stebz and stein share the workspace's arrays: what one leaves
        # there must reach neither the other's result nor its own next one
        rng = np.random.default_rng(4)
        n = 40
        d, e = rng.normal(size=n), rng.normal(size=n - 1) * (rng.random(n - 1) < 0.8)
        lapack = operators._Lapack(d, e)
        selections = [(0, 0.0, 0.0, 0, 0)]
        for _ in range(2):
            found = operators._bisect_part(lapack, selections, 0.0)
            assert_same_parts(found, wrapper_part(d, e, selections, 0.0))
            ((w, blocks, _),), isplit = found
            k = int(np.sum(blocks == 1))  # block 1's values, ascending, come first
            z = np.empty((n, k), order="F")
            assert lapack.stein(isplit, w[:k], blocks[:k], z, [(0, k)]) == 0
            iblock = np.zeros(n, dtype=np.int32)
            iblock[:k] = 1
            want, info = wrapper_stein(d, e, w[:k], iblock, isplit)
            assert info == 0 and z.tobytes(order="F") == want.tobytes(order="F")


class TestSplitSolve:
    """A large index selection is bisected as two fixed halves, on one core or two."""

    @pytest.fixture(scope="class")
    def deep(self):
        grid = sq.make_grid(-10.0, 10.0, 1001)
        return {name: sq.build_susy_system(sq.get_superpotential(name), grid).H_plus
                for name in ("harmonic", "shifted_cubic")}

    def test_split_rule(self):
        # tol = 1 on levels one apart: few counts a level, and only the counts are read
        T = sq.Tridiagonal(np.arange(1001.0), np.full(1000, 0.5))
        below = operators._SPLIT_WORK // 1001  # 32 levels x 1001 rows < 2^15 <= 33 x 1001
        assert T.eigh(0, below - 1, tol=1.0).counts == (below,)
        assert T.eigh(0, below, tol=1.0).counts == (17, 16)
        assert T.eigh(0, 1000, tol=1.0).counts == (1001,)  # the whole spectrum stays one
        assert T.eigh(500, 500, tol=1.0).counts == (1,)  # one level is never split

    def test_no_split_at_tol_inf(self, monkeypatch):
        # one rule, whatever the tol, splits a large solve; the one solve the
        # package makes at tol = inf, the loose count of solve_partners, is
        # one window, one selection, which is never split
        calls = []
        part = operators._bisect_part

        def recording_part(lapack, selections, tol):
            calls.append((len(selections), tol))
            return part(lapack, selections, tol)

        monkeypatch.setattr(operators, "_bisect_part", recording_part)
        monkeypatch.setattr(operators, "_CORES", 2)
        T = sq.Tridiagonal(np.arange(1001.0), np.full(1000, 0.5))
        below = operators._SPLIT_WORK // 1001
        assert T.eigh(0, below, tol=np.inf).counts == (17, 16)
        system = sq.build_susy_system(sq.get_superpotential("harmonic"),
                                      sq.make_grid(-10.0, 10.0, 1001))
        calls.clear()
        sq.solve_partners(system.H_plus, system.H_minus, 99)
        assert 100 * 1001 >= operators._SPLIT_WORK
        assert [call for call in calls if call[1] == np.inf] == [(1, np.inf)]

    @pytest.mark.parametrize("name", ("harmonic", "shifted_cubic"))
    def test_halves_agree_with_one_selection_and_the_oracle(self, deep, sturm_eigenvalue, name):
        # both solves lie within 4 eps ||H|| of the exact level (see
        # test_spectral.TestFortyDigitOracle for the bound), and bisections
        # from different intervals stop at different points of a 2-ulp width
        H = deep[name]
        split = H.eigh(0, 99)
        assert split.counts == (50, 50)
        m, w, *_, info = dstebz(H.diag, H.off, 2, 0.0, 1.0, 1, 100, 1e-300, "E")
        assert info == 0 and m == 100
        whole = w[:m]
        assert np.all(np.abs(split.values[1:] - whole[1:]) <= 2 * np.spacing(whole[1:]))
        bound = 4 * np.finfo(float).eps * sq.operator_norm(H)
        for k in (1, 2, 3, 50, 99):
            exact = sturm_eigenvalue(H, k, whole[k])
            for value in (split.values[k], whole[k]):
                assert abs(float(decimal.Decimal(value) - exact)) <= bound, (k, value)

    @pytest.mark.parametrize("name", ("harmonic", "shifted_cubic"))
    def test_one_core_and_two_give_the_same_bits(self, deep, monkeypatch, name):
        # the cores decide only where the halves run: with two, each runs in
        # its own thread on its own workspace; with one, this thread runs
        # both on one. The 100 eigenvectors are formed in two halves alike
        calls, groups = [], []
        part = operators._bisect_part

        def recording_part(lapack, *args):
            calls.append((threading.get_ident(), id(lapack)))
            return part(lapack, *args)

        monkeypatch.setattr(operators, "_bisect_part", recording_part)
        recorded_stein(monkeypatch, lambda lapack, w, part: groups.append(
            (threading.get_ident(), id(lapack), len(part))))
        H = deep[name]
        results = {}
        for cores in (1, 2):
            monkeypatch.setattr(operators, "_CORES", cores)
            calls.clear()
            groups.clear()
            solved = H.eigh(0, 99)
            results[cores] = (solved.values.tobytes(), solved.vectors().tobytes(order="F"))
            assert len(calls) == 2 and len({ident for ident, _ in calls}) == cores
            assert len({workspace for _, workspace in calls}) == cores
            assert len(groups) == 2 and len({ident for ident, *_ in groups}) == cores
            assert len({workspace for _, workspace, _ in groups}) == cores
            assert sum(count for *_, count in groups) == 100  # every level alone
        assert results[1] == results[2]


class TestBuildAnnihilator:
    def test_free_case_is_scaled_forward_difference(self, free_superpotential):
        g = sq.make_grid(0, 1, 5)
        B = sq.build_annihilator(free_superpotential, g)
        expected = (np.diag(np.full(5, -1 / g.dx)) + np.diag(np.full(4, 1 / g.dx), 1))
        # no wall equation: a row a cell, 4 x 5
        assert np.array_equal(B.to_dense(), expected[:-1] / ROOT2)

    def test_stiff_cells_move_w_to_the_right_node(self):
        # W = 4x on dx = 0.5: 1 - dx W_i <= 0 from x = 0.5 on, so cells 1..3
        # carry W_{i+1} on the superdiagonal and -1/dx on the diagonal
        g = sq.make_grid(0, 2, 5)
        B = sq.build_annihilator(sq.get_superpotential("harmonic", scale=4.0), g)
        expected = np.array([
            [-2.0, 2.0, 0.0, 0.0, 0.0],
            [0.0, -2.0, 6.0, 0.0, 0.0],
            [0.0, 0.0, -2.0, 8.0, 0.0],
            [0.0, 0.0, 0.0, -2.0, 10.0],
        ]) / ROOT2
        assert np.array_equal(B.to_dense(), expected)

    def test_unresolved_jump_rejected(self):
        # a stiff cell whose right node has 1 + dx W <= 0 has no positive ratio
        W = sq.Superpotential("step", lambda x: np.where(x < 0, 20.0, -20.0))
        with pytest.raises(ValueError, match="refine the grid"):
            sq.build_annihilator(W, sq.make_grid(-1, 1, 21))

    def test_free_partner_is_positive_semidefinite_laplacian(self, free_superpotential):
        g = sq.make_grid(-5, 5, 101)
        system = sq.build_susy_system(free_superpotential, g)
        evals = sla.eigvalsh(system.H_minus.to_dense())
        assert evals[0] >= -1e-10

    def test_harmonic_ground_state_near_zero(self, systems):
        evals = sla.eigh_tridiagonal(
            systems["harmonic"].H_minus.diag,
            systems["harmonic"].H_minus.off,
            select="i", select_range=(0, 0), eigvals_only=True,
        )
        assert abs(evals[0]) <= 1e-6

    def test_harmonic_diagonal_explicit_product(self, small_grid):
        W = sq.get_superpotential("harmonic")
        B = sq.build_annihilator(W, small_grid)
        system = sq.build_susy_system(W, small_grid)
        x = small_grid.nodes()
        inv = 1.0 / small_grid.dx
        diag = 0.5 * (x - inv) ** 2
        diag[1:] += 0.5 * inv ** 2  # under-diagonal coupling absent in row 0
        diag[-1] = 0.5 * inv ** 2  # the empty last row of B adds no W term
        H_minus = system.H_minus.to_dense()
        assert np.allclose(np.diag(H_minus), diag, rtol=1e-13, atol=0)
        dense_B = B.to_dense()
        assert np.allclose(H_minus, dense_B.T @ dense_B, rtol=0, atol=1e-12)

    def test_nonfinite_superpotential_rejected(self):
        W = sq.Superpotential("blow", lambda x: 1.0 / x)
        with pytest.raises(ValueError):
            sq.build_annihilator(W, sq.make_grid(-1, 1, 21))


class TestSusySystem:
    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_partners_exactly_symmetric(self, systems, name):
        for H in (systems[name].H_plus.to_dense(), systems[name].H_minus.to_dense()):
            assert np.max(np.abs(H - H.T)) == 0.0

    def test_adjoint_is_exact_transpose(self, systems):
        system = systems["cubic"]
        assert np.array_equal(system.B_adj.to_dense(), system.B.to_dense().T)

    def test_partners_are_the_literal_products(self, systems):
        # sparse products sum exactly the nonzero terms, as the bands do, so
        # the two agree bit for bit (dense BLAS products may fuse the adds)
        system = systems["shifted_cubic"]
        B = sps.csr_matrix(system.B.to_dense())
        assert np.array_equal(system.H_plus.to_dense(), (B @ B.T).toarray())
        assert np.array_equal(system.H_minus.to_dense(), (B.T @ B).toarray())

    @pytest.mark.parametrize("name", ("harmonic", "tanh"))
    def test_partners_positive_semidefinite(self, systems, name):
        for H in (systems[name].H_plus, systems[name].H_minus):
            low = sla.eigh_tridiagonal(
                H.diag, H.off,
                select="i", select_range=(0, 0), eigvals_only=True,
            )
            assert low[0] >= -1e-10

    def test_matrices_immutable(self, systems):
        system = systems["harmonic"]
        for M in (system.B, system.B_adj, system.H_plus, system.H_minus):
            for band in (M.diag, M.off):
                with pytest.raises((ValueError, RuntimeError)):
                    band[0] = 1.0


class TestSusyHamiltonian:
    def test_blocks_bit_exact(self, small_grid, build_susy_hamiltonian):
        system = sq.build_susy_system(sq.get_superpotential("tanh"), small_grid)
        H = build_susy_hamiltonian(system)
        m = small_grid.n_points - 1  # H+ on the cells
        assert H.shape == (2 * m + 1, 2 * m + 1)
        assert np.array_equal(H[:m, :m], system.H_plus.to_dense())
        assert np.array_equal(H[m:, m:], system.H_minus.to_dense())
        assert np.max(np.abs(H[:m, m:])) == 0.0

    def test_free_case_fully_doubly_degenerate(self, free_superpotential,
                                               build_susy_hamiltonian):
        g = sq.make_grid(-5, 5, 61)
        system = sq.build_susy_system(free_superpotential, g)
        H = build_susy_hamiltonian(system)
        # H+ has no wall node: every level but H-'s zero mode has a twin
        assert system.H_plus.shape == (60, 60)
        evals = np.sort(sla.eigvalsh(H))
        assert abs(evals[0]) <= 1e-10 * evals[-1] < evals[1]
        gaps = evals[2::2] - evals[1::2]  # consecutive twins
        assert np.max(np.abs(gaps)) <= 1e-10 * max(1.0, abs(evals[-1]))

    def test_harmonic_spectrum_is_union_of_blocks(self, small_grid,
                                                  build_susy_hamiltonian):
        system = sq.build_susy_system(sq.get_superpotential("harmonic"), small_grid)
        H = build_susy_hamiltonian(system)
        full = np.sort(sla.eigvalsh(H))
        union = np.sort(np.concatenate([
            sla.eigvalsh(system.H_plus.to_dense()),
            sla.eigvalsh(system.H_minus.to_dense()),
        ]))
        assert np.max(np.abs(full - union)) <= 1e-10 * max(1.0, abs(full[-1]))


class TestSupercharges:
    def test_hand_assembled_three_point_free_case(self, free_superpotential,
                                                  build_supercharges):
        g = sq.make_grid(0, 1, 3)
        system = sq.build_susy_system(free_superpotential, g)
        q1, q2 = build_supercharges(system)
        B = np.array([[-2.0, 2.0, 0.0], [0.0, -2.0, 2.0]]) / ROOT2
        up, down = np.zeros((2, 2)), np.zeros((3, 3))
        assert np.array_equal(q1, np.block([[up, B], [B.T, down]]))
        assert np.array_equal(q2, np.block(
            [[up, -1j * B], [1j * B.T, down]]))

    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_squares_equal_hamiltonian(self, small_grid, name, unfused_product,
                                       build_supercharges, build_susy_hamiltonian):
        system = sq.build_susy_system(sq.get_superpotential(name), small_grid)
        q1, q2 = build_supercharges(system)
        H = build_susy_hamiltonian(system)
        assert np.max(np.abs(unfused_product(q1, q1) - H)) <= 1e-13
        assert np.max(np.abs(unfused_product(q2, q2) - H)) <= 1e-13

    def test_anticommutator_vanishes(self, small_grid, build_supercharges):
        system = sq.build_susy_system(sq.get_superpotential("harmonic"), small_grid)
        q1, q2 = build_supercharges(system)
        assert np.max(np.abs(np.dot(q1, q2) + np.dot(q2, q1))) <= 1e-13

    def test_hermitian(self, small_grid, build_supercharges):
        system = sq.build_susy_system(sq.get_superpotential("cubic"), small_grid)
        q1, q2 = build_supercharges(system)
        assert np.max(np.abs(q1 - q1.T)) == 0.0
        assert np.max(np.abs(q2 - q2.conj().T)) == 0.0

    @pytest.mark.parametrize("name", ("harmonic", "cubic", "shifted_cubic", "tanh"))
    def test_interleaved_q1_is_the_applied_supercharge(self, small_grid, name,
                                                       build_supercharges,
                                                       blockwise_supercharge):
        # position 2i holds down_i and 2i + 1 up_i, up on the n - 1 cells; the
        # zero diagonal of Q1 only adds exact zeros, so each entry is the
        # stencil's two rounded products summed once
        system = sq.build_susy_system(sq.get_superpotential(name), small_grid)
        n = small_grid.n_points
        Q1 = system.Q1
        assert Q1.shape == (2 * n - 1, 2 * n - 1)
        sz = np.resize([-1.0, 1.0], 2 * n - 1)

        def interleave(state):  # the up half's last node is not a cell
            return np.stack([state.down, state.up], axis=-1).ravel()[:-1]

        rng = np.random.default_rng(3)
        real = rng.normal(size=(2, n))
        for up, down in (real, real + 1j * rng.normal(size=(2, n))):
            state = sq.SpinorState(up, down)
            v = interleave(state)
            assert np.array_equal(Q1 @ v, interleave(blockwise_supercharge(system, state, "q1")))
            assert np.array_equal(-1j * (sz * (Q1 @ v)),
                                  interleave(blockwise_supercharge(system, state, "q2")))
        # the dense form holds the n - 1 up rows first, then the n down rows
        order = np.stack([n - 1 + np.arange(n), np.arange(n)], axis=1).ravel()[:-1]
        layout = np.empty((2 * n - 1, 2 * n - 1))
        layout[np.ix_(order, order)] = Q1.to_dense()
        assert np.array_equal(layout, build_supercharges(system)[0])

    def test_witten_parity_anticommutes_exactly(self, small_grid, build_supercharges,
                                                witten_parity):
        system = sq.build_susy_system(sq.get_superpotential("tanh"), small_grid)
        q1, q2 = build_supercharges(system)
        P = witten_parity(small_grid.n_points)
        assert np.max(np.abs(np.dot(P, q1) + np.dot(q1, P))) == 0.0
        assert np.max(np.abs(np.dot(P, q2) + np.dot(q2, P))) == 0.0



def band_dense(rows):
    """The dense matrix of a product's five rows: row 2 + o, column j holds (j, j + o)."""
    n = rows.shape[1]
    return sum(np.diag(rows[2 + o, max(0, -o):n - max(0, o)], o) for o in range(-2, 3))


class TestSuperchargeAlgebra:
    @pytest.mark.parametrize("m", (6, 5), ids=("square", "one_row_short"))
    def test_golub_kahan_is_the_interleaved_block_matrix(self, m):
        # [[0, B], [B.T, 0]] of an m x n B in the (up, down) layout, read in
        # the order (down_0, up_0, down_1, up_1, ...): size 2n for the
        # square Fock b, 2n - 1 ending on down_{n-1} for the grid's B
        rng = np.random.default_rng(5)
        n = 6
        B = sq.Bidiagonal(rng.normal(size=m), rng.normal(size=n - 1))
        block = np.zeros((m + n, m + n))
        block[:m, m:] = B.to_dense()
        block[m:, :m] = B.to_dense().T
        order = np.stack([m + np.arange(n), np.arange(n)], axis=1).ravel()[:m + n]
        Q = sq.golub_kahan(B)
        assert isinstance(Q, sq.Tridiagonal)
        assert np.array_equal(Q.to_dense(), block[np.ix_(order, order)])
        with pytest.raises(ValueError, match="upper"):
            sq.golub_kahan(B.T)

    @pytest.mark.parametrize("n", (12, 13))
    def test_products_match_dense(self, unfused_product, n):
        # a general tridiagonal, diagonal included, so no term of any product
        # vanishes by structure; each entry sums at most three rounded terms.
        # An odd size, as the grid's Q1, ends on a down position (-1)
        rng = np.random.default_rng(9)
        Q1 = sq.Tridiagonal(rng.normal(size=n), rng.normal(size=n - 1))
        q = Q1.to_dense()
        sz = np.diag([(-1.0) ** (j + 1) for j in range(n)])
        R = unfused_product(sz, q)
        dense = (unfused_product(q, q), unfused_product(R, R),
                 unfused_product(q, R) + unfused_product(R, q),
                 unfused_product(sz, q) + unfused_product(q, sz))
        products = sq.supercharge_products(Q1)
        for want in dense:
            got = band_dense(next(products))
            assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))
        assert next(products, None) is None

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_property_identities_exact_for_any_bidiagonal(self, data):
        # for Q1 = golub_kahan(B) of any upper bidiagonal B, square (as the
        # Fock b) or one row short (as the grid's B), with bands spread over
        # 300 decades: R^2 = -Q1^2 entry for entry, and {Q1, R} and
        # {sz, Q1} are exactly 0. Q1's diagonal is zero and sz alternates, so
        # every term of R^2 is the negated term of Q1^2, in the same order,
        # and every term of an anticommutator meets its negation. So three of
        # verify's identity checks read 0 for any B whose products are finite
        n = data.draw(st.integers(2, 40), label="n")
        m = data.draw(st.sampled_from((n, n - 1)), label="m")
        entry = st.builds(lambda sign, mantissa, exponent: sign * np.ldexp(mantissa, exponent),
                          st.sampled_from((-1.0, 1.0)),
                          st.floats(1.0, 2.0, exclude_max=True), st.integers(-500, 500))
        B = sq.Bidiagonal(np.array(data.draw(st.lists(entry, min_size=m, max_size=m))),
                          np.array(data.draw(st.lists(entry, min_size=n - 1, max_size=n - 1))))
        q1_sq, r_sq, anti_q1_r, anti_sz_q1 = sq.supercharge_products(sq.golub_kahan(B))
        assert np.all(np.isfinite(q1_sq))
        assert np.array_equal(r_sq, -q1_sq)
        assert not anti_q1_r.any()
        assert not anti_sz_q1.any()

    def test_products_formed_one_at_a_time(self, traced_peak):
        # in units of one five-row array (40 n bytes), a caller that reduces
        # each product before asking for the next holds at most: the two
        # products of an anticommutator (2), the generator's rows of Q1, R
        # and sz (3 x 3/5) and one slice product inside band_product (1/5),
        # 4 units; the four products formed at once would take 4 alone
        n = 20000
        Q1 = sq.Tridiagonal(np.zeros(n), np.ones(n - 1))

        def reduce_each():
            products = sq.supercharge_products(Q1)
            for _ in range(4):
                float(next(products).max())
        assert traced_peak(reduce_each) < 4.5 * 5 * n * 8
