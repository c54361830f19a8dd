"""Discrete SUSY factorization on bands.

B = (D_fwd + W)/sqrt(2) with the forward difference (D psi)_i =
(psi_{i+1} - psi_i)/dx, one row a cell: an (n - 1) x n upper bidiagonal on
the n nodes, kept as its two bands of n - 1 entries; B_adj is its
transpose on the same bands. The partner Hamiltonians H+ = B B_adj, on the
n - 1 cells, and H- = B_adj B, on the n nodes, are symmetric tridiagonal
and formed band by band in O(n): with d the diagonal and u the
superdiagonal of B, and terms outside the bands left out,

    H+ : diagonal d_i^2 + u_i^2,      off-diagonal u_i d_{i+1}
    H- : diagonal d_i^2 + u_{i-1}^2,  off-diagonal d_i u_i

which is every nonzero term of the matrix products, each summed once, so H+
and H- are exactly isospectral on nonzero eigenvalues as a matrix-level
theorem, not just in the dx -> 0 limit. No operator is ever held as an n x n
array; `to_dense()` exists only for small-n test oracles. LAPACK bisection on
the bands is the package's one eigensolver: `Tridiagonal.eigh` selects its
eigenvalues by index, `Tridiagonal.eigh_windows` by value windows, and both
return a `Bisection`, whose eigenvectors are formed only when asked for. Its two
routines, `dstebz` and `dstein`, come from the OpenBLAS that numpy's linalg
is linked against, which every numpy process has loaded already: numpy's
bundled build is ILP64 and exports them as `scipy_dstebz_64_` and
`scipy_dstein_64_`, with 8-byte integers. They are looked up through the
handle of numpy's `_umath_linalg` extension, whose dlsym reaches the
libraries it links, and called through ctypes with the arguments of scipy's
f2py wrappers, on one workspace a thread (`_Lapack`), so they give those
wrappers' bits, and each call releases the GIL.

Eigenvectors are formed one gap group at a time. stein alone
reorthogonalises every run of eigenvalues of one block closer than
1e-3 ||T||, which on a fine grid is all the low levels, at O(n m^2) for m of
them (Dhillon, BIT 38, 685 (1998)). Here only eigenvalues closer than
_GROUP_GAP ||T|| share a call, every other level is formed alone in O(n),
and only the groups that hold the levels a caller reads run. Vectors of
different blocks have disjoint supports, so they are exactly orthogonal
however they are formed; a group still spans blocks, since blocks may
interleave (see `Bisection.vectors`).

A large solve, levels x n >= 2^15 (`_SPLIT_WORK`, about 10 ms of Sturm
counts), bisects its selections as two halves: `eigh` splits an index range
into two fixed halves unless it is the whole spectrum (which LAPACK solves
as "all"); the eigenvectors of as many levels are formed as two fixed halves
of their groups. When a second core is free, `Bisection` runs the first half
in a second thread while this one runs the second, each half on its own
workspace. Sturm counts are monotone, so disjoint selections bisect
independently (Demmel, Dhillon & Ren, ETNA 3, 116 (1995)), and stein resets
its random seed on every call, so a group's vectors depend only on its own
call. The split depends only on the solve; the number of cores this process
may use decides only whether the halves run at the same time, so every
result is the same bits on one core or several.

B has no row at the last node, which is the discrete form of the
SUSY-preserving interval condition: B psi = 0 at the wall for H-, Dirichlet
for H+. Every row of B psi = 0 is solved by the two-term recursion between
neighbouring nodes, so B has an exact one-dimensional kernel on any box and
H- an exact zero mode. B's n - 1 nonzero superdiagonal entries give it rank
n - 1, so that kernel is the only zero of either side: H+ is positive
definite, its level i is the squared singular value that is H-'s level
i + 1, and level 0 of H- is its zero mode.

The (2n - 1) x (2n - 1) supercharge Q1 = [[0, B], [B_adj, 0]] has B's kernel
as its one zero. It is tridiagonal as well, in the order (down_0, up_0,
down_1, up_1, ..., down_{n-1}): `golub_kahan(B)`, which
`SusySystem.Q1` returns for the grid B and `jaynescummings.build_jc` for the
Fock annihilator b. Identities between tridiagonals are read entry by entry in
O(n) with one band-product kernel (`band_rows`, `band_product`,
`band_commutator`, `band_max_abs`); `supercharge_products` forms the four
products of the N=2 algebra that the checks of both models read.
"""

import ctypes
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import IndeterminateSignError
from .grid import Grid
from .superpotentials import Superpotential

__all__ = [
    "Bidiagonal",
    "Tridiagonal",
    "Bisection",
    "SusySystem",
    "golub_kahan",
    "build_annihilator",
    "build_susy_system",
    "check_sign_condition",
    "band_rows",
    "band_product",
    "band_commutator",
    "band_max_abs",
    "supercharge_products",
]

SQRT2 = np.sqrt(2.0)

# RMAX of LAPACK's dstev: bisection squares the off-diagonal, so larger bands
# are scaled down first
_BAND_MAX = float(np.sqrt(np.finfo(float).eps / np.finfo(float).tiny))


def _load_lapack(path):
    """dstebz, dstein and OpenBLAS's thread setter from the library `path` links.

    The two routines declare no argument types, so ctypes converts nothing:
    every argument must be a pointer, a `ctypes.byref` or a `c_void_p`. The
    setter (OpenBLAS 0.3.27 on) sets OpenBLAS's thread count and returns the
    one before; despite its name, in numpy's OpenBLAS 0.3.31 the count it
    sets is seen by every thread. A ctypes foreign function releases the
    GIL while the routine runs.
    """
    lib = ctypes.CDLL(path)
    names = ("scipy_dstebz_64_", "scipy_dstein_64_", "openblas_set_num_threads_local")
    missing = [name for name in names if not hasattr(lib, name)]
    if missing:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        raise ImportError(f"numpy's LAPACK ({lapack.get('name')} {lapack.get('version')}) "
                          f"exports no {', '.join(missing)}")
    stebz, stein, threads = (getattr(lib, name) for name in names)
    stebz.restype = stein.restype = None
    threads.argtypes, threads.restype = (ctypes.c_int,), ctypes.c_int
    return stebz, stein, threads


_DSTEBZ, _DSTEIN, _BLAS_THREADS = _load_lapack(np.linalg._umath_linalg.__file__)
# stebz range codes of the scipy wrapper: all eigenvalues, those in (vl, vu],
# or il..iu
_ALL, _BY_VALUE, _BY_INDEX = 0, 1, 2
# levels x n from which a solve is bisected, or its eigenvectors formed, as
# two halves that may run at once: a Sturm count costs about 6.7 ns a row and
# a level about 50 counts at the default tol, so 2^15 level-rows are about
# 10 ms of bisection, some 70 times the 0.14 ms of starting and joining a
# thread; an eigenvector costs a few passes over its n rows
_SPLIT_WORK = 2 ** 15
# gap / ||T|| below which neighbouring eigenvalues share one stein call:
# vectors formed in separate calls are orthogonal to about eps ||T|| / gap,
# held here to 1e-9, a tenth of the 1e-8 to which the commands hold every
# value read off a vector (see `Bisection.vectors`)
_GROUP_GAP = np.finfo(float).eps / 1e-9
# the cores this process may run on: they decide only whether the two halves
# run at the same time, never how a solve is split
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class _Scalars(ctypes.Structure):
    """The scalar arguments of one dstebz or dstein call, passed by address.

    stein reads n as ldz as well, and m as the size of its group.
    """

    _fields_ = [("n", ctypes.c_int64), ("il", ctypes.c_int64), ("iu", ctypes.c_int64),
                ("m", ctypes.c_int64), ("nsplit", ctypes.c_int64), ("info", ctypes.c_int64),
                ("vl", ctypes.c_double), ("vu", ctypes.c_double), ("tol", ctypes.c_double)]


# range codes _ALL, _BY_VALUE, _BY_INDEX, then order "B" (by block); LAPACK only reads them
_CODES = tuple(ctypes.byref(ctypes.c_char(c)) for c in b"AVIB")


class _Lapack:
    """dstebz and dstein on fixed bands (d, e), called as scipy's wrappers call them.

    Range and order go as one character each and every other argument by
    address, as in the wrappers' own calls, so a result is the wrapper's bit
    for bit. Integers are 8 bytes, as numpy's ILP64 LAPACK takes them. The
    scalars live in one ctypes structure, and the outputs and work space of
    both routines in one float and one int array allocated once: every
    argument outlives the call, and a repeated call allocates nothing. The
    int array starts with one spare slot: an index selection whose
    Gershgorin interval is too small (info 2) makes dstebz write 0 to
    IBLOCK(0), the integer just before the iblock it is given, which here
    is that slot and not the memory before the array. The bands are reached
    through ctypes' own buffer view, which takes a writable array (LAPACK
    only reads them) and costs a sixth of `c_void_p(a.ctypes.data)`. One
    thread owns an instance. `stebz` leaves w[:m] and iblock[:m] holding the
    eigenvalues and their blocks, and isplit the block ends, until the next
    call of either routine.
    """

    __slots__ = ("w", "iblock", "isplit", "_scalars", "_stebz", "_stein")

    def __init__(self, d, e):
        n = d.size
        if not (_writable(d, np.float64, n) and _writable(e, np.float64, n - 1)):
            raise ValueError("LAPACK takes writable contiguous float64 bands of n and n - 1 entries")
        reals = np.empty(5 * n)  # stebz: w, work; stein: work
        # the spare slot, then stebz: iblock, isplit, iwork; stein: iwork, ifail
        ints = np.zeros(1 + 5 * n, dtype=np.int64)
        self.w, self.iblock, self.isplit = reals[:n], ints[1:n + 1], ints[n + 1:2 * n + 1]
        self._scalars = s = _Scalars(n)
        ref, real, field = ctypes.byref, ctypes.c_double.from_buffer, _Scalars
        r, i = real(reals), ctypes.c_int64.from_buffer(ints)
        n_, m, info = (ref(s, f.offset) for f in (field.n, field.m, field.info))
        bands = (ref(real(d)), ref(real(e)))
        # each ctypes view holds its array, so every argument outlives the call
        self._stebz = (_CODES[3], n_, ref(s, field.vl.offset), ref(s, field.vu.offset),
                       ref(s, field.il.offset), ref(s, field.iu.offset), ref(s, field.tol.offset),
                       *bands, m, ref(s, field.nsplit.offset), _at(r, 0), _at(i, 1),
                       _at(i, n + 1), _at(r, n), _at(i, 2 * n + 1), info)
        self._stein = (n_, *bands, m), (n_, _at(r, 0), _at(i, 1), _at(i, n + 1), info)

    def stebz(self, rng, vl, vu, il, iu, tol):
        """One dstebz call (LAPACK range code, vl, vu, il, iu, tol), ordered by block: (m, info)."""
        s = self._scalars
        # what LAPACK would reject, checked here, so its error handler never runs
        if rng == _BY_VALUE and vl >= vu or rng == _BY_INDEX and not 1 <= il <= iu <= s.n:
            raise ValueError(f"stebz selection out of range: {(rng, vl, vu, il, iu)}")
        s.vl, s.vu, s.il, s.iu, s.tol = vl, vu, il, iu, tol
        _DSTEBZ(_CODES[rng], *self._stebz)
        return s.m, s.info

    def stein(self, isplit, w, iblock, z, groups):
        """One dstein call per group (lo, hi) of w, in order: the sum of their infos.

        `w` holds eigenvalues, `iblock` their stebz blocks and `isplit` the
        block ends, both int64 as numpy's LAPACK takes them; `z` is the
        n x len(w) Fortran array the calls fill. A group hands stein
        w[lo:hi] and iblock[lo:hi], which must be ascending by block and by
        value within a block, so the columns it writes straight into
        z[:, lo:hi] are the wrapper's for that group bit for bit. stein
        draws its random starts from a seed it resets on every call, so a
        group's vectors do not depend on the calls before it. Its caller
        sets OpenBLAS to one thread around it (see `Bisection._stein`).
        Its work space is this workspace's, past the spare slot, so the
        arrays passed must not be views of `self.w`, `self.iblock` or
        `self.isplit`.
        """
        n, m = self._scalars.n, w.size
        if not (_writable(isplit, np.int64, n) and _writable(w, np.float64, m)
                and _writable(iblock, np.int64, m) and _writable(z.T, np.float64, n * m)
                and z.shape == (n, m) and 0 < m <= n):
            raise ValueError("stein takes writable contiguous blocks, values and columns")
        real, index = ctypes.c_double.from_buffer, ctypes.c_int64.from_buffer
        (head, tail), values, blocks, columns = self._stein, real(w), index(iblock), real(z.T)
        split = _at(index(isplit), 0)
        info = 0
        for lo, hi in groups:
            self._scalars.m = hi - lo
            _DSTEIN(*head, _at(values, lo), _at(blocks, lo), split, _at(columns, n * lo), *tail)
            info += self._scalars.info
        return info


def _at(view, k):
    """The address of entry k of the array that the ctypes scalar `view` starts."""
    return ctypes.byref(view, k * ctypes.sizeof(view))


def _writable(a, dtype, size) -> bool:
    """Whether `a` is a writable C-contiguous array of `dtype` with at least `size` entries."""
    return a.dtype == dtype and a.flags.c_contiguous and a.flags.writeable and a.size >= size


class _Banded:
    """Read-only matrix stored as its diagonal and one off-diagonal band.

    Both bands are copied as float arrays and frozen. `A @ v` applies the
    matrix along the last axis of a real or complex array whose last axis
    has the length of a column, in O(n) per vector: a (k, n) stack of k
    vectors is one call, and each of its rows is the product of that row
    alone, bit for bit.
    """

    __slots__ = ("diag", "off")
    lower = False  # a Bidiagonal's transpose flag; a symmetric Tridiagonal is never lower

    def __init__(self, diag, off):
        diag = np.array(diag, dtype=float)
        off = np.array(off, dtype=float)
        if diag.ndim != 1 or off.ndim != 1 or diag.size - off.size not in self._EXCESS:
            raise ValueError(f"bands of shapes {diag.shape} and {off.shape} do not form "
                             f"a {type(self).__name__}")
        diag.flags.writeable = False
        off.flags.writeable = False
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "off", off)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    @property
    def shape(self):
        """diag.size rows and off.size + 1 columns, or the transpose if `lower`."""
        shape = (self.diag.size, self.off.size + 1)
        return shape[::-1] if self.lower else shape

    @property
    def nbytes(self) -> int:
        return self.diag.nbytes + self.off.nbytes

    def _vector(self, v):
        v = np.asarray(v)
        if v.shape[-1:] != self.shape[1:]:
            raise ValueError(
                f"cannot apply a {self.shape} banded matrix to shape {v.shape}"
            )
        return v

    def __repr__(self):
        return f"{type(self).__name__}(shape={self.shape})"


class Bidiagonal(_Banded):
    """Bidiagonal matrix, its shape read from its bands: upper, or lower if `lower`.

    An upper m x n bidiagonal holds `diag` at (i, i) and `off` at (i, i + 1):
    n - 1 entries of `off`, and m = n entries of `diag` (square) or m = n - 1
    (one row short, as the grid's B). `lower` is its transpose, n x m, with
    `off` at (i + 1, i). `.T` is the transpose: the same band values with
    the off-diagonal moved to the other side.
    """

    __slots__ = ("lower",)
    _EXCESS = (0, 1)  # diag.size - off.size: one row short, or square

    def __init__(self, diag, off, lower=False):
        super().__init__(diag, off)
        object.__setattr__(self, "lower", bool(lower))

    @property
    def T(self) -> "Bidiagonal":
        return Bidiagonal(self.diag, self.off, not self.lower)

    def __matmul__(self, v):
        v = self._vector(v)
        m, k = self.diag.size, self.off.size
        row, column = (1, 0) if self.lower else (0, 1)  # of the off-diagonal's first entry
        out = np.zeros(v.shape[:-1] + self.shape[:1], np.result_type(self.diag, v))
        np.multiply(self.diag, v[..., :m], out=out[..., :m])
        out[..., row:row + k] += self.off * v[..., column:column + k]
        return out

    def to_dense(self) -> np.ndarray:
        m, k = self.diag.size, self.off.size
        # the square bidiagonal of k + 1 rows, its last row left out when one row short
        upper = (np.diag(np.append(self.diag, 0.0)[:k + 1]) + np.diag(self.off, 1))[:m]
        return upper.T if self.lower else upper


class Tridiagonal(_Banded):
    """Symmetric tridiagonal matrix: `off` on both the super- and subdiagonal."""

    __slots__ = ()
    _EXCESS = (1,)

    @property
    def T(self) -> "Tridiagonal":
        return self

    def eigh(self, lo, hi, tol=1e-300) -> "Bisection":
        """Eigenvalues lo..hi (0 <= lo <= hi < n), ascending; eigenvectors on request.

        The default tol, well under any eigenvalue gap, converges to machine
        width; tol = 0 stops at LAPACK's eps * ||T||. A large range, levels x
        n >= 2^15, that is not the whole spectrum is bisected as the two
        selections lo..mid and mid + 1..hi, mid = (lo + hi) // 2, whose
        `counts` the result holds; each level then stops within the same
        width from a different start, so it can differ from a one-selection
        solve in its last bit or two.
        """
        n = self.diag.size
        if not 0 <= lo <= hi < n:
            raise ValueError(f"eigenvalue indices {lo}..{hi} outside 0..{n - 1}")
        ranges = [(lo, hi)]
        if lo < hi and hi - lo + 1 < n and _large(hi - lo + 1, n):
            mid = (lo + hi) // 2
            ranges = [(lo, mid), (mid + 1, hi)]
        return Bisection(self, [(_BY_INDEX, 0.0, 1.0, a + 1, b + 1) for a, b in ranges], tol)

    def eigh_windows(self, windows, tol=1e-300) -> "Bisection":
        """Eigenvalues in each half-open window (a, b], ascending; eigenvectors on request.

        `windows` is a sequence of (a, b) with a < b, ascending and disjoint,
        so the eigenvalues come out ascending, and `counts` holds the number
        found in each window. Their eigenvectors are formed by gap groups
        across all windows, as for `eigh`. tol as in `eigh`; tol = inf stops
        at once, so only the counts are exact. A window may start at -inf,
        where bisection starts at LAPACK's own Gershgorin bound.
        """
        bounds = np.array(windows, dtype=float).reshape(-1, 2)
        if np.any(bounds[:, 0] >= bounds[:, 1]) or np.any(bounds[1:, 0] < bounds[:-1, 1]):
            raise ValueError("windows must be non-empty, ascending and disjoint")
        return Bisection(self, [(_BY_VALUE, a, b, 0, 0) for a, b in bounds.tolist()], tol)

    def __matmul__(self, v):
        v = self._vector(v)
        out = self.diag * v
        out[..., :-1] += self.off * v[..., 1:]
        out[..., 1:] += self.off * v[..., :-1]
        return out

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)


class Bisection:
    """The package's one eigensolver: LAPACK bisection (stebz) on a Tridiagonal's bands.

    Read-only result of `Tridiagonal.eigh` and `Tridiagonal.eigh_windows`:
    `counts` holds the number of eigenvalues found per selection and
    `values` all of them, ascending. `vectors(levels)` forms the
    eigenvectors of the levels asked for by inverse iteration (stein) on
    the stebz output held here; no other code runs stein, so an eigenvector
    exists only where a caller asks for it.

    One stebz call per selection (LAPACK range code, vl, vu, il, iu), in
    block order, and one stein call per gap group of eigenvalues, both
    through the ctypes workspace `_Lapack`. A large solve, or a
    large set of eigenvectors (levels x n >= 2^15, see the module
    docstring), runs the first half of its selections or groups, in order
    and on one workspace, in a second thread when a second core is free,
    and the second half in this thread on another; otherwise this thread
    runs them all on one workspace, to the same bits, since each
    selection's result depends only on the bands and the selection, and
    each group's only on the bands and its eigenvalues. Bands beyond
    _BAND_MAX are scaled by a power of two first, which is exact, so the
    squares in the Sturm count stay finite; value bounds scale with them.
    On a near multiple of the identity, stebz may find the Gershgorin
    interval of an index selection too small and compute nothing (info 2);
    that selection is redone over all eigenvalues, keeping il..iu.
    """

    __slots__ = ("counts", "values", "_d", "_e", "_selections", "_tol", "_found")

    def __init__(self, T: Tridiagonal, selections, tol):
        big = max(np.max(np.abs(T.diag)), np.max(np.abs(T.off), initial=0.0))
        exp = int(np.frexp(big)[1]) if big > _BAND_MAX else 0
        d, e = np.ldexp(T.diag, -exp), np.ldexp(T.off, -exp)
        if not e.size:  # the wrappers take max(n - 1, 1) entries; LAPACK reads none at n = 1
            e = np.zeros(1)
        selections = [(rng, np.ldexp(vl, -exp), np.ldexp(vu, -exp), il, iu)
                      for rng, vl, vu, il, iu in selections]
        for name, value in (("_d", d), ("_e", e), ("_selections", selections),
                            ("_tol", float(tol))):
            object.__setattr__(self, name, value)
        counts, w, blocks, isplit = self._bisect(d, 0.0)
        values = np.ldexp(w, exp)
        values.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_found", (w, blocks, isplit))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def vectors(self, levels=slice(None)) -> np.ndarray:
        """Eigenvectors of values[levels], as columns in the same order, by inverse iteration.

        `levels` is a slice of unit step; by default every level. The
        values, ascending, fall into gap groups: a value joins the group of
        the one below it when their gap is below _GROUP_GAP ||T||, with
        ||T|| bounded by max|d| + 2 max|e| of the bands. stein forms a group
        in one call, which reorthogonalises within each of its stebz
        blocks, and every other level alone; vectors formed apart are
        orthogonal to about eps ||T|| / gap <= 1e-9, and vectors of
        different blocks exactly. A group may span blocks: where blocks
        interleave, as on a near multiple of the identity, a run of one
        block's close values is cut by another block's, and only the whole
        group, handed to stein by block, keeps that run in one call. Only
        the groups that hold the levels asked for run, each writing its
        columns straight into one Fortran array, of which the levels'
        columns are returned as a view. The
        groups depend only on the values and the bands, and each group's
        vectors only on its own call, so a level's vector is the same bits
        whichever levels are asked for with it and on one core or two,
        unless the redo below runs.

        stein may fail to converge on nearly equal eigenvalues (info > 0),
        or return NaN entries with info = 0 (on bands spanning some 120
        decades); a non-finite entry makes the sum of the unit vectors
        non-finite. Then bisection and stein are redone on the bands with
        the diagonal shifted by its median sigma: the shift keeps every
        eigenvector and brings the diagonal down to the scale of its spread,
        where the shifted eigenvalues are resolved again. The groups keep
        the gap threshold of the unshifted bands, so a cluster that only the
        shift resolves is still formed, and reorthogonalised, in one call.
        `values` stay those of the unshifted bisection. A value window that
        the shift rounds to nothing cannot be redone, nor can a count that
        changes: then LinAlgError is raised.
        """
        first, stop, step = levels.indices(self.values.size)
        if step != 1:
            raise ValueError(f"levels must be a slice of unit step, got {levels}")
        stop = max(first, stop)
        d, e = self._d, self._e
        gap = _GROUP_GAP * (np.abs(d).max() + 2.0 * np.abs(e).max())  # max|d| + 2 max|e| >= ||T||
        v, info = self._stein(d, gap, *self._found, first, stop)
        if info > 0 or not np.isfinite(v.sum()):
            sigma = np.median(d)
            if all(vl - sigma < vu - sigma for rng, vl, vu, *_ in self._selections
                   if rng == _BY_VALUE):
                counts, *shifted = self._bisect(d - sigma, sigma)
                if counts == self.counts:
                    v, info = self._stein(d - sigma, gap, *shifted, first, stop)
        if info != 0 or not np.isfinite(v.sum()):
            raise np.linalg.LinAlgError(f"stein: eigenvectors failed to converge (info = {info})")
        return v

    def _bisect(self, d, shift):
        """Counts, eigenvalues ascending (equal ones by block), their blocks and isplit of (d, e).

        The selections' value bounds are shifted by `shift`.
        """
        selections = [(rng, vl - shift, vu - shift, il, iu)
                      for rng, vl, vu, il, iu in self._selections]
        levels = sum(iu - il + 1 if rng == _BY_INDEX else 1 for rng, _, _, il, iu in selections)
        found = _in_halves(selections, levels, d.size, lambda: _Lapack(d, self._e),
                           lambda lapack, part: _bisect_part(lapack, part, self._tol))
        rows = [row for part, _ in found for row in part]
        for _, _, info in rows:
            if info != 0:
                raise np.linalg.LinAlgError(f"stebz failed (info = {info})")
        values, blocks, _ = zip(*rows)
        w, blocks = np.concatenate(values), np.concatenate(blocks)
        order = np.lexsort((blocks, w))
        return tuple(v.size for v in values), w[order], blocks[order], found[-1][1]

    def _stein(self, d, gap, w, blocks, isplit, first, stop):
        """Eigenvectors of the bands (d, e) for levels first..stop - 1 of w, and info.

        w ascends, equal values by block. The gap groups (see `vectors`)
        that hold those levels are formed in ascending order into the
        columns of one n x k Fortran array. stein takes the values of a call
        by block, so a group that spans several blocks is formed in block
        order and its columns are then moved to ascending order.
        """
        n = d.size
        if first == stop:
            return np.empty((n, 0), order="F"), 0
        bounds = np.concatenate(([0], np.flatnonzero(w[1:] - w[:-1] >= gap) + 1, [w.size]))
        g0 = np.searchsorted(bounds, first, side="right") - 1
        g1 = np.searchsorted(bounds, stop - 1, side="right")
        lo, hi = bounds[g0], bounds[g1]
        ends = (bounds[g0:g1 + 1] - lo).tolist()
        groups = list(zip(ends[:-1], ends[1:]))
        ws, bs = w[lo:hi], blocks[lo:hi]
        mixed = bs.min() < bs.max()
        if mixed:  # group by group, blocks ascending; the sort is stable, so values stay ascending
            by_block = np.lexsort((bs, np.repeat(np.arange(len(groups)), np.diff(ends))))
            ws, bs = ws[by_block], bs[by_block]
        z = np.empty((n, hi - lo), order="F")
        # stein's BLAS calls run on one OpenBLAS thread: a dot product split
        # across threads sums in another order, so on a long vector the bits
        # of every eigenvector would depend on the thread count. The setter
        # acts on the whole process, so it is set once, around both halves:
        # set and restored in each, it could be restored while the other runs
        threads = _BLAS_THREADS(1)
        try:
            infos = _in_halves(groups, hi - lo, n, lambda: _Lapack(d, self._e),
                               lambda lapack, part: lapack.stein(isplit, ws, bs, z, part))
        finally:
            _BLAS_THREADS(threads)
        if mixed:  # column j holds the vector of value by_block[j]
            moved = by_block != np.arange(hi - lo)
            z[:, by_block[moved]] = z[:, moved]
        return z[:, first - lo:stop - lo], sum(infos)


def _large(levels, n) -> bool:
    """Whether the work on `levels` eigenvalues or eigenvectors of an n x n T is split in two."""
    return levels * n >= _SPLIT_WORK


def _in_halves(items, levels, n, workspace, task):
    """[task(space, part)] for `items` as one part, or as two fixed halves if `_large(levels, n)`.

    The first half is items[:len(items) // 2]. Two halves run at once when
    a second core is free: the first in a second thread while this one runs
    the second, each on its own workspace(). On one core, or for one part,
    this thread runs them all on one workspace.
    """
    half = len(items) // 2 if _large(levels, n) else 0
    parts = [items[:half], items[half:]] if half else [items]
    if len(parts) == 1 or _CORES == 1:
        space = workspace()
        return [task(space, part) for part in parts]
    found = [None, None]

    def first_half():
        try:
            found[0] = task(workspace(), parts[0])
        except Exception as exc:  # raised below, in the thread that joins
            found[0] = exc

    worker = threading.Thread(target=first_half)
    worker.start()
    try:
        found[1] = task(workspace(), parts[1])
    finally:
        worker.join()
    if isinstance(found[0], Exception):
        raise found[0]
    return found


def _bisect_part(lapack, selections, tol):
    """`selections` in order on one `_Lapack`: per selection (w, blocks, info), and isplit.

    A selection stebz finds too small a Gershgorin interval for (info 2) is
    redone over all eigenvalues, keeping il..iu. The first selection that
    fails ends the part.
    """
    rows = []
    for rng, vl, vu, il, iu in selections:
        m, info = lapack.stebz(rng, vl, vu, il, iu, tol)
        keep = slice(m)
        if info == 2:  # an index selection whose Gershgorin interval was too small
            m, info = lapack.stebz(_ALL, 0.0, 0.0, 0, 0, tol)
            keep = np.argsort(lapack.w[:m], kind="stable")[il - 1:iu]
        rows.append((lapack.w[keep].copy(), lapack.iblock[keep].copy(), info))
        if info != 0:
            break
    return rows, lapack.isplit.copy()


def golub_kahan(B: Bidiagonal) -> Tridiagonal:
    """[[0, B], [B.T, 0]] for an upper m x n B, in the order (down_0, up_0, down_1, ...).

    Down runs over B's n columns and up over its m rows, so the form has
    size m + n: 2n for a square B, 2n - 1 for the grid's B, one row short,
    whose order ends on down_{n-1}. The diagonal is zero and the
    off-diagonal is (d_0, u_0, d_1, u_1, ...) for B's bands d and u, ending
    on d_{n-1} or u_{n-2} (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11,
    873 (1990)). A lower bidiagonal is rejected.
    """
    if B.lower:
        raise ValueError("the Golub-Kahan form is taken of an upper bidiagonal")
    off = np.empty(B.diag.size + B.off.size)
    off[0::2] = B.diag
    off[1::2] = B.off
    return Tridiagonal(np.zeros(off.size + 1), off)


def build_annihilator(W: Superpotential, grid: Grid) -> Bidiagonal:
    """B = (D_fwd + W)/sqrt(2) as its two bands: (n - 1) x n, a row a cell.

    Row i couples nodes i and i+1. W sits on node i (kernel ratio
    psi_{i+1}/psi_i = 1 - dx W_i, explicit Euler) unless that factor is not
    positive; on such a stiff cell it sits on node i+1 (ratio
    1/(1 + dx W_{i+1}), implicit Euler), so the kernel stays positive and
    decays instead of growing with alternating sign. A cell where that
    factor is not positive either is rejected, so every superdiagonal entry
    is positive and the kernel ratio -diag_i/off_i is defined on every cell.
    This is the only place the stencil is written down.
    """
    x = grid.nodes()
    with np.errstate(all="ignore"):  # non-finite values are rejected just below
        w = np.asarray(W(x), dtype=float)
    if not np.all(np.isfinite(w)):
        bad = x[~np.isfinite(w)][0]
        raise ValueError(f"superpotential {W.name!r} is not finite at x = {bad}")
    dx = grid.dx
    inv_dx = 1.0 / dx
    stiff = 1.0 - dx * w[:-1] <= 0.0
    sup = np.where(stiff, inv_dx + w[1:], inv_dx) / SQRT2
    if np.any(sup <= 0.0):  # a stiff cell whose implicit factor is not positive
        bad = x[:-1][sup <= 0.0][0]
        raise ValueError(
            f"superpotential {W.name!r} changes by more than 2/dx in the cell "
            f"at x = {bad}; refine the grid"
        )
    return Bidiagonal(np.where(stiff, -inv_dx, w[:-1] - inv_dx) / SQRT2, sup)


@dataclass(frozen=True)
class SusySystem:
    """Grid, superpotential, B, its adjoint, and the partner Hamiltonians.

    B is the (n - 1) x n Bidiagonal of the grid's n nodes and B_adj = B.T;
    H_plus = B B_adj, (n - 1) x (n - 1) and positive definite, and
    H_minus = B_adj B, n x n with B's kernel as its one zero, are
    Tridiagonal.
    """

    grid: Grid
    W: Superpotential
    B: Bidiagonal
    B_adj: Bidiagonal
    H_plus: Tridiagonal
    H_minus: Tridiagonal

    @property
    def Q1(self) -> Tridiagonal:
        """Q1 = [[0, B], [B_adj, 0]], B's `golub_kahan` form; built on each access.

        Its size is 2n - 1, and its one zero is B's kernel. sz is -1 on even
        positions and +1 on odd ones, so Q2 = -i sz Q1.
        """
        return golub_kahan(self.B)


def build_susy_system(W: Superpotential, grid: Grid) -> SusySystem:
    """B and the partner Hamiltonians, all banded, in O(n).

    Raises ValueError when W is not finite on the grid, has a jump the stiff
    cell rule cannot resolve, or is so large that H+- overflow.
    """
    B = build_annihilator(W, grid)
    d, u = B.diag, B.off
    with np.errstate(over="ignore"):  # overflow is rejected just below
        dd = d * d
        uu = u * u
        minus_diag = np.append(dd, 0.0)
        minus_diag[1:] += uu
        H_plus = Tridiagonal(dd + uu, u[:-1] * d[1:])
        H_minus = Tridiagonal(minus_diag, d * u)
    for H in (H_plus, H_minus):
        if not (np.all(np.isfinite(H.diag)) and np.all(np.isfinite(H.off))):
            raise ValueError(
                f"superpotential {W.name!r} is too large on this grid: the "
                "partner Hamiltonians overflow"
            )
    return SusySystem(grid, W, B, B.T, H_plus, H_minus)


def check_sign_condition(W: Superpotential, grid: Grid) -> bool:
    """True iff W < 0 at x_min and W > 0 at x_max (normalizable zero mode)."""
    w_lo = float(W(grid.x_min))
    w_hi = float(W(grid.x_max))
    if w_lo == 0.0 or w_hi == 0.0:
        raise IndeterminateSignError(
            f"W({W.name!r}) vanishes at a boundary node, sign condition indeterminate"
        )
    return w_lo < 0.0 < w_hi


def band_rows(M: Tridiagonal) -> np.ndarray:
    """M's entries as three rows: row 1 + o, column j holds M[j, j + o]."""
    out = np.zeros((3, M.diag.size))
    out[0, 1:] = M.off
    out[1] = M.diag
    out[2, :-1] = M.off
    return out


def band_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Five rows of A B, row 2 + o holding entries (j, j + o), from A's and B's three.

    Entry (j, j + p + q) collects A[j, j + p] B[j + p, j + p + q] over
    |p|, |q| <= 1, each product rounded once: the nonzero terms of the dense
    product, with no sum over the zeros in between.
    """
    n = A.shape[1]
    C = np.zeros((5, n))
    for p in (-1, 0, 1):
        lo, hi = max(0, -p), n - max(0, p)
        for q in (-1, 0, 1):
            C[2 + p + q, lo:hi] += A[1 + p, lo:hi] * B[1 + q, lo + p:hi + p]
    return C


def band_commutator(A: np.ndarray, B: np.ndarray, anti: bool = False) -> np.ndarray:
    """Five rows of A B - B A, or of the anticommutator A B + B A if `anti`."""
    C = band_product(A, B)
    if anti:
        C += band_product(B, A)
    else:
        C -= band_product(B, A)
    return C


def band_max_abs(M: np.ndarray, mask=True) -> float:
    """Largest |entry| of M where `mask` holds; 0.0 if it holds nowhere."""
    return float(np.max(np.abs(M), where=mask, initial=0.0))


def supercharge_products(Q1: Tridiagonal):
    """Q1^2, R^2, {Q1, R} and {sz, Q1} for R = sz Q1, five rows each, one at a time.

    sz is -1 on even positions and +1 on odd ones, as in `golub_kahan`, so
    R is Q1 with the sz sign of each row. Q2 = c R with c = -i (the grid) or
    +i (Jaynes-Cummings) is purely imaginary, and every product with it is c
    or c^2 = -1 times the same product with R, which is exact: Q2^2 = -R^2,
    {Q1, Q2} = c {Q1, R}, and {sz, Q1} = 0 is also the hermiticity of Q2
    (entry by entry {sz, Q1}_jk = R_jk + R_kj). No complex array is formed.
    A generator: each product is formed when the next is asked for, so the
    caller decides how many are alive at once.
    """
    q1 = band_rows(Q1)
    sz = np.zeros_like(q1)  # the three rows of the diagonal sz
    sz[1] = np.tile([-1.0, 1.0], Q1.diag.size - Q1.diag.size // 2)[:Q1.diag.size]
    R = sz[1] * q1
    yield band_product(q1, q1)
    yield band_product(R, R)
    yield band_commutator(q1, R, anti=True)
    yield band_commutator(sz, q1, anti=True)
