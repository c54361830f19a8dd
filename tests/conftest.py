"""Shared fixtures: the default box, factorized systems, solved spectra, the
dense small-n oracles of the 2n x 2n SUSY operators and of the
Jaynes-Cummings algebra report and level match, the oracles that no code
in the package calls (the blockwise supercharge action and its eigen-relation
residual, that residual by the per-state arithmetic the package used before
it applied B and B+ once a level pair, the H- to H+ intertwining map, the
dx-weighted norm and normalization of a wavefunction, the sampled zero-mode
profile, the zero mode rebuilt from W and by a step-by-step frexp loop, the
guarded maximum of the Jaynes-Cummings algebra report, the closed-form
Jaynes-Cummings eigenstates and the entangle sweep one full-grid state at a
time), a 40-digit Sturm-count eigenvalue of stored bands, the continuum
levels of H+ by Chebyshev collocation, and a tracemalloc peak probe.

Everything here is session-scoped; building a 2001-point system and solving
both partners takes a noticeable fraction of a second, and many tests share
the same four superpotentials.
"""

import decimal
import functools
import math
import tracemalloc

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
    """(plus, minus) eigenpair lists: N_LEVELS on the plus side, N_LEVELS + 1 on the minus side.

    The extra slot of the minus side holds the zero mode; H+ has no zero.
    """
    out = {}
    for name, system in systems.items():
        plus = sq.solve_spectrum(system.H_plus, N_LEVELS, grid2001)
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
def traced_peak():
    """tracemalloc peak, in bytes, of run() above the memory held before it."""
    def peak(run):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
    return peak


@pytest.fixture(scope="session")
def sturm_eigenvalue():
    """Eigenvalue k (0-based, ascending) of a Tridiagonal to 40 digits, as a Decimal.

    The stored double bands are read exactly (a Decimal of a float is exact,
    and so is the square of a 53-bit off-diagonal at 40 digits), so this is
    the eigenvalue of the operator the program holds, not of its continuum
    limit. The Sturm count of T - x, the number of eigenvalues below x, is
    the number of negative pivots q_0 = d_0 - x, q_i = d_i - x - e_{i-1}^2 /
    q_{i-1}, each taken in 40-digit decimal arithmetic (a zero pivot is
    replaced by 1e-300). Bisection on the count starts from the bracket
    guess -+ 1e-9, which must hold eigenvalue k, and stops at a width of
    1e-30 max(1, |x|): 71 steps, far below the 1e-16 relative rounding of a
    double. O(n) per count, in Python: about 0.1 s a level at 2001 points.
    """
    def eigenvalue(T, k, guess, bracket=1e-9):
        D = decimal.Decimal
        with decimal.localcontext(decimal.Context(prec=40)):
            d = [D(v) for v in T.diag.tolist()]
            rows = list(zip(d[1:], [D(v) * D(v) for v in T.off.tolist()]))
            tiny = D("1e-300")

            def below(x):
                count, q = 0, d[0] - x
                for di, ee in rows:
                    if q < 0:
                        count += 1
                    elif not q:
                        q = tiny
                    q = di - x - ee / q
                return count + (q < 0)

            lo, hi = D(guess) - D(bracket), D(guess) + D(bracket)
            if not below(lo) <= k < below(hi):
                raise ValueError(f"eigenvalue {k} is not within {bracket} of {guess!r}")
            while hi - lo > D("1e-30") * max(1, abs(lo)):
                mid = (lo + hi) / 2
                if below(mid) <= k:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2
    return eigenvalue


# W and W' of each bundled superpotential in closed form, for the continuum
# reference: a differenced W' would bring back the error it measures
CONTINUUM_W = {
    "harmonic": (lambda x: x, np.ones_like),
    "cubic": (lambda x: x ** 3, lambda x: 3.0 * x ** 2),
    "shifted_cubic": (lambda x: x ** 3 + 0.5, lambda x: 3.0 * x ** 2),
    "tanh": (np.tanh, lambda x: 1.0 / np.cosh(x) ** 2),
}


@pytest.fixture(scope="session")
def continuum_w():
    return CONTINUUM_W


@pytest.fixture(scope="session")
def continuum_levels():
    """The lowest levels of the continuum H+ = (-d^2 + W^2 + W')/2 between Dirichlet walls.

    Chebyshev collocation (Trefethen, *Spectral Methods in MATLAB*, SIAM
    2000, its `cheb` differentiation matrix) on N + 1 points mapped to the
    walls [a, b]: the walls' rows and columns are dropped, and the interior
    operator is solved densely by `numpy.linalg.eigvals`. W and W' come in
    closed form from CONTINUUM_W for a bundled W by name. numpy only, no
    package code: the reference of every W for which no closed-form ladder
    exists. At N = 320 it differs from N = 240 by under 5e-13 on the
    harmonic box; one solve takes about 0.05 s.
    """
    N = 320

    @functools.lru_cache(maxsize=None)
    def levels(name, a, b):
        """Levels 0..5 of H+ for the bundled W `name` with walls at a < b."""
        W, dW = CONTINUUM_W[name]
        t = np.cos(np.pi * np.arange(N + 1) / N)
        c = np.r_[2.0, np.ones(N - 1), 2.0] * (-1.0) ** np.arange(N + 1)
        D = np.outer(c, 1.0 / c) / (t[:, None] - t + np.eye(N + 1))
        D -= np.diag(D.sum(axis=1))
        x = (a + b) / 2.0 + (b - a) / 2.0 * t[1:-1]
        d2 = (D @ D)[1:-1, 1:-1] * (2.0 / (b - a)) ** 2
        H = (np.diag(W(x) ** 2 + dW(x)) - d2) / 2.0
        return np.sort(np.linalg.eigvals(H).real)[:6]
    return levels


@pytest.fixture(scope="session")
def entangle_sweep_oracle():
    """Rows of the `entangle` report, one full-grid state at a time.

    The level pair comes from the command's own solve (`solve_partners` of
    the built system, then `eigenstates` at that level), since the rows
    check the batch route, not the eigensolver. Each (|c1|, phase)
    state is then built as c1 psi+ |up> + c2 psi- |down> on all n nodes
    with weight dx and analyzed alone: no two-mode reduction and no batch
    axis. Rows come in the
    command's order (|c1| outer, phase inner) and column order.
    """
    def rows(W, grid, level=1, c1_points=21, phase_points=8):
        system = sq.build_susy_system(W, grid)
        plus, minus = sq.solve_partners(system.H_plus, system.H_minus, level)
        pp = sq.eigenstates(plus, grid)[level - 1]
        mm = sq.eigenstates(minus, grid)[level]
        overlap = sq.inner_product(pp.state, mm.state)
        out = []
        for c1 in np.linspace(0.0, 1.0, c1_points):
            c2_mod = math.sqrt(max(0.0, 1.0 - c1 * c1))
            for phase in np.linspace(0.0, 2.0 * math.pi, phase_points, endpoint=False):
                c2 = c2_mod * complex(math.cos(phase), math.sin(phase))
                state = sq.SpinorState(c1 * pp.state.amplitudes,
                                       c2 * mm.state.amplitudes, grid.dx)
                rep = sq.analyze(state, c1, c2, overlap)
                out.append((
                    float(c1), float(phase), abs(overlap), *rep.sigma_mean,
                    *rep.schmidt, rep.concurrence_spin, rep.concurrence_overlap,
                    rep.concurrence_svd,
                ))
        return out
    return rows


@pytest.fixture(scope="session")
def jc_default():
    return sq.build_jc(1.0, 0.1, 64)


@pytest.fixture(scope="session")
def jc_match(jc_default):
    return sq.numeric_vs_analytic(jc_default)


@pytest.fixture(scope="session")
def max_guarded_deviation():
    """Largest of the algebra report's identities restricted to the guard band."""
    def deviation(alg):
        return max(alg.q1_sq_minus_q2_sq, alg.anti_q1_q2, alg.comm_q_h0_guarded,
                   alg.anti_sz_q)
    return deviation


@pytest.fixture(scope="session")
def norm():
    """dx-weighted norm of a wavefunction."""
    def value(f):
        return float(np.sqrt(np.real(np.vdot(f.amplitudes, f.amplitudes)) * f.grid.dx))
    return value


@pytest.fixture(scope="session")
def normalize(norm):
    """The wavefunction at unit dx-weighted norm with the package's phase convention."""
    def unit(f):
        return sq.Wavefunction(f.grid, sq.fix_phase(f.amplitudes / norm(f)))
    return unit


@pytest.fixture(scope="session")
def intertwine_up():
    """B psi- / sqrt(E): the H+ partner of an H- eigenpair, mirror of intertwine_down.

    Its n - 1 cells are put on the n nodes with 0 at the last, as
    `eigenstates` puts an H+ state.
    """
    def up(system, pair_minus):
        if pair_minus.energy <= sq.EPS0:
            raise ValueError(f"energy {pair_minus.energy!r} is at or below {sq.EPS0}")
        amps = (system.B @ pair_minus.state.amplitudes) / np.sqrt(pair_minus.energy)
        return sq.Wavefunction(system.grid, np.append(amps, 0.0))
    return up


@pytest.fixture(scope="session")
def zero_mode_profile_overlap():
    """Overlap of the recursion zero mode with the sampled exp(-int W) profile.

    The cumulative integral of W is taken by the trapezoid rule on the grid;
    the additive constant drops out in the normalization.
    """
    def overlap(system):
        psi = sq.zero_mode(system)
        grid = system.grid
        w = np.asarray(system.W(grid.nodes()), dtype=float)
        cum = np.concatenate([[0.0], np.cumsum((w[1:] + w[:-1]) * (grid.dx / 2.0))])
        prof = np.exp(-(cum - np.min(cum)))
        prof /= np.sqrt(np.sum(prof * prof) * grid.dx)
        return float(np.sum(psi.amplitudes * prof) * grid.dx)
    return overlap


@pytest.fixture(scope="session")
def zero_mode_from_w():
    """The zero mode rebuilt from W on the nodes, not from the bands of B.

    psi_{i+1} = psi_i (1 - dx W_i), or psi_i / (1 + dx W_{i+1}) on the stiff
    cells where 1 - dx W_i <= 0, with the running product kept exact by
    frexp/ldexp and the result normalized. Returns the amplitudes.
    """
    def recurse(W, grid):
        w = np.asarray(W(grid.nodes()), dtype=float)
        dx = grid.dx
        mants = np.zeros(grid.n_points)
        exps = np.zeros(grid.n_points, dtype=np.int64)
        mants[0], exps[0] = 0.5, 1
        c, ex = 0.5, 1
        for i in range(grid.n_points - 1):
            if 1.0 - dx * w[i] <= 0.0:
                c /= 1.0 + dx * w[i + 1]
            else:
                c *= 1.0 - dx * w[i]
            m, e = np.frexp(c)
            c, ex = float(m), ex + int(e)
            mants[i + 1], exps[i + 1] = c, ex
        amps = np.ldexp(mants, exps - int(np.max(exps)))
        return amps / np.sqrt(np.sum(amps * amps) * dx)
    return recurse


@pytest.fixture(scope="session")
def zero_mode_sequential():
    """The zero mode of a system by one frexp a step over B's bands.

    psi_{i+1} = psi_i r_i with r_i = -diag_i / off_i, each product rounded
    once and split by math.frexp into mantissa and exponent, then scaled by
    the largest exponent and normalized: the step-by-step recursion that
    `zero_mode` takes in blocks. Returns the amplitudes.
    """
    def recurse(system):
        B = system.B
        c, ex = 1.0, 0
        mants, exps = [c], [ex]
        for r in (-B.diag / B.off).tolist():
            c, e = math.frexp(c * r)
            ex += e
            mants.append(c)
            exps.append(ex)
        amps = np.ldexp(mants, np.array(exps) - max(exps))
        return amps / np.sqrt(np.sum(amps * amps) * system.grid.dx)
    return recurse


@pytest.fixture(scope="session")
def analytic_eigenstate():
    """(|n-1>|up> + branch |n>|down>)/sqrt(2) in the (up, down) layout.

    n = 0 gives the ground |0>|down>. The photon label in the upper component
    is n-1: the supercharge maps |n>|down> to sqrt(n)|n-1>|up>, so only that
    pairing solves Q psi = q psi.
    """
    def state(sys_, n, branch):
        d = sys_.fock.dimension
        up = np.zeros(d)
        down = np.zeros(d)
        if n == 0:
            down[0] = 1.0
            return sq.SpinorState(up, down, 1.0)
        if not 1 <= n <= sys_.fock.guard_n_max:
            raise ValueError(f"n = {n} outside the certified band")
        if branch not in (+1, -1):
            raise ValueError(f"branch must be +1 or -1, got {branch!r}")
        up[n - 1] = 1.0 / np.sqrt(2.0)
        down[n] = branch / np.sqrt(2.0)
        return sq.SpinorState(up, down, 1.0)
    return state


@pytest.fixture(scope="session")
def jc_dense_match(analytic_eigenstate):
    """Level columns of the Jaynes-Cummings match by the general eigenvector path.

    Every eigenpair comes from dense `np.linalg.eigh(H.to_dense())`, each
    vector scattered to the (up, down) layout with `excitation_order()`. Each
    analytic level, ground first, takes the nearest unused eigenvalue;
    fidelity is the squared overlap with the analytic state and concurrence
    the spin route on the full vector. For gamma = 0 each doublet takes two
    eigenvalues, its fidelity is the smallest squared singular value of the
    overlap of the analytic and numeric eigenspaces, and its concurrence is
    NaN. Returns a dict of arrays keyed like the `JCMatchReport` columns. Not
    valid at exact level crossings, where the nearest-unused scan can take
    the wrong level.
    """
    def match(sys_):
        d = sys_.fock.dimension
        evals, vecs = np.linalg.eigh(sys_.H.to_dense())
        vectors = np.empty_like(vecs)
        vectors[sys_.fock.excitation_order()] = vecs
        used = np.zeros(evals.size, dtype=bool)
        rows = []

        def take_nearest(E):
            idx = int(np.argmin(np.where(used, np.inf, np.abs(evals - E))))
            used[idx] = True
            return idx

        def flat(state):
            return np.concatenate([state.up, state.down])

        def row(n, branch, E, sel, fid, conc):
            E_num = float(np.mean(evals[sel]))
            gap = float(np.max(np.abs(evals[sel] - E)))
            rows.append((n, branch, float(E), E_num, gap, float(fid), conc))

        e0 = -sys_.omega / 2.0
        idx = take_nearest(e0)
        v = vectors[:, idx]
        ground = sq.SpinorState(v[:d], v[d:], 1.0)
        fid = abs(np.vdot(flat(analytic_eigenstate(sys_, 0, 0)), v)) ** 2
        row(0, 0, e0, [idx], fid, sq.concurrence_svd(ground))
        for n in range(1, sys_.fock.guard_n_max + 1):
            e_plus, e_minus = sq.analytic_spectrum(sys_, n)
            if sys_.gamma == 0.0:
                sel = [take_nearest(e_plus), take_nearest(e_plus)]
                A = np.stack([flat(analytic_eigenstate(sys_, n, b)) for b in (+1, -1)])
                sv = np.linalg.svd(A @ vectors[:, sel], compute_uv=False)
                row(n, 0, e_plus, sel, np.min(sv) ** 2, np.nan)
                continue
            for branch, E in ((-1, e_minus), (+1, e_plus)):
                idx = take_nearest(E)
                v = vectors[:, idx]
                fid = abs(np.vdot(flat(analytic_eigenstate(sys_, n, branch)), v)) ** 2
                conc = sq.concurrence_from_spin(sq.SpinorState(v[:d], v[d:], 1.0))
                row(n, branch, E, [idx], fid, conc)
        keys = ("n", "branch", "E_analytic", "E_numeric", "gap", "fidelity", "concurrence")
        return {key: np.array(col) for key, col in zip(keys, zip(*rows))}
    return match


@pytest.fixture(scope="session")
def free_superpotential():
    return sq.Superpotential("free", lambda x: np.zeros_like(x))


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
    """Dense (2n - 1)-square block-diagonal diag(H+, H-), the n - 1 spin-up rows first."""
    def build(system):
        m, n = system.B.shape
        H = np.zeros((m + n, m + n))
        H[:m, :m] = system.H_plus.to_dense()
        H[m:, m:] = system.H_minus.to_dense()
        return H
    return build


@pytest.fixture(scope="session")
def build_supercharges():
    """Dense Q1 = [[0, B], [B+, 0]] and Q2 = [[0, -iB], [iB+, 0]], both Hermitian.

    (2n - 1)-square: the n - 1 spin-up rows of B first, then the n nodes.
    """
    def build(system):
        m, n = system.B.shape
        B = system.B.to_dense()
        B_adj = system.B_adj.to_dense()
        Q1 = np.zeros((m + n, m + n))
        Q1[:m, m:] = B
        Q1[m:, :m] = B_adj
        Q2 = np.zeros((m + n, m + n), dtype=complex)
        Q2[:m, m:] = -1j * B
        Q2[m:, :m] = 1j * B_adj
        return Q1, Q2
    return build


@pytest.fixture(scope="session")
def blockwise_supercharge():
    """Q1 or Q2 applied to a spinor block by block, as a new state.

    Q1 maps (phi_up, phi_down) to (B phi_down, B+ phi_up) and Q2 to
    (-i B phi_down, +i B+ phi_up): the two-term stencils of B and B+ with
    no interleaving, copied into a fresh `SpinorState`. phi_up lives on the
    n - 1 cells and sits on the n nodes with 0 at the last, as the package
    puts an H+ state: B+ reads its cells, and B phi_down is put on the nodes
    the same way.
    """
    def apply(system, state, which):
        up, down = system.B @ state.down, system.B_adj @ state.up[..., :-1]
        up = np.concatenate((up, np.zeros(up.shape[:-1] + (1,), up.dtype)), axis=-1)
        if which == "q2":
            up, down = -1j * up, 1j * down
        return sq.SpinorState(up, down, state.weight)
    return apply


@pytest.fixture(scope="session")
def blockwise_residual(blockwise_supercharge):
    """|| Q state - q state || with Q applied by `apply` (the blockwise action).

    The up half is read on its n - 1 cells. Each half's squared moduli,
    re^2 + im^2, are summed by numpy's pairwise sum, with no BLAS call.
    """
    def residual(system, state, eigenvalue, which, apply=blockwise_supercharge):
        mapped = apply(system, state, which)
        r_up = (mapped.up - eigenvalue * state.up)[:-1]
        r_dn = mapped.down - eigenvalue * state.down
        val = sum(np.sum(r.real ** 2 + r.imag ** 2) for r in (r_up, r_dn))
        return float(np.sqrt(val * state.weight))
    return residual


@pytest.fixture(scope="session")
def residual_per_state():
    """|| Q state - q state || of one supercharge eigenstate, or of a batch of them, alone.

    The per-state arithmetic of the package before it applied B and B+ once
    per level pair: B to the state's down half and B+ to its up half, read
    on its n - 1 cells, the Q2 phases -i and +i on the products, and the
    squared moduli re^2 + im^2 of each residual vector summed over its last
    axis by numpy's pairwise sum, real for Q1 and complex for Q2.
    `eigenvalue` is an array over a batch's leading axes; one state gives a
    Python float.
    """
    def residual(system, state, eigenvalue, which):
        eigenvalue = np.asarray(eigenvalue)[..., None]
        val = 0.0  # the up half's squared norm, then the down half's added
        up = state.up[..., :-1]
        for op, source, target, phase in ((system.B, state.down, up, -1j),
                                          (system.B_adj, up, state.down, 1j)):
            q = op @ source
            if which == "q2":
                q = phase * q
            r = q - eigenvalue * target
            val = val + np.sum(r.real ** 2 + r.imag ** 2, axis=-1)
        val = np.sqrt(val * state.weight)
        return val.item() if val.ndim == 0 else val
    return residual


@pytest.fixture(scope="session")
def witten_parity():
    """Dense diag(I_{n-1}, -I_n) of n nodes; anticommutes with both supercharges."""
    def build(n):
        P = np.eye(2 * n - 1)
        P[n - 1:, n - 1:] *= -1.0
        return P
    return build


@pytest.fixture(scope="session")
def jc_dense_algebra():
    """The Jaynes-Cummings algebra report from dense products in the (up, down) layout.

    Q, H0, Hint and H come from `to_dense()` of the bands, scattered from the
    excitation order with `excitation_order()`; the number operator, sz and
    the identity are built here as Kronecker products, spin index outer.
    """
    def dense(sys_, M):
        order = sys_.fock.excitation_order()
        out = np.empty(M.shape)
        out[np.ix_(order, order)] = M.to_dense()
        return out

    def report(sys_):
        d = sys_.fock.dimension
        Q1, H0, Hint, H = (dense(sys_, M) for M in (sys_.Q, sys_.H0, sys_.Hint, sys_.H))
        sz_full = np.kron(np.diag([1.0, -1.0]), np.eye(d))
        Q2 = 1j * np.dot(sz_full, Q1)

        q1_sq = np.dot(Q1, Q1)
        q2_sq = np.dot(Q2, Q2)
        anti_q1_q2 = np.dot(Q1, Q2) + np.dot(Q2, Q1)
        comm_q_h0 = np.dot(Q1, H0) - np.dot(H0, Q1)
        anti_sz_q = np.dot(sz_full, Q1) + np.dot(Q1, sz_full)

        guard = np.arange(d) <= sys_.fock.guard_n_max
        gidx = np.concatenate([np.nonzero(guard)[0], d + np.nonzero(guard)[0]])
        interior = np.arange(d) <= sys_.fock.n_max - 1
        iidx = np.concatenate([np.nonzero(interior)[0], d + np.nonzero(interior)[0]])
        h0_id = H0 - sys_.omega * (q1_sq - 0.5 * np.eye(2 * d))

        hq = H - (sys_.omega * q1_sq + sys_.gamma * Q1
                  - (sys_.omega / 2.0) * np.eye(2 * d))
        corner = sys_.fock.n_max  # spin-up block, top Fock state
        corner_dev = abs(hq[corner, corner] - sys_.omega * (sys_.fock.n_max + 1))
        hq[corner, corner] = 0.0

        n_exc = np.kron(np.eye(2), np.diag(np.arange(d, dtype=float)))
        n_exc += 0.5 * (sz_full + np.eye(2 * d))
        comm_n = np.dot(n_exc, H) - np.dot(H, n_exc)

        def sub(M):
            return float(np.max(np.abs(M[np.ix_(gidx, gidx)])))

        return sq.JCAlgebraReport(
            q1_sq_minus_q2_sq=sub(q1_sq - q2_sq),
            anti_q1_q2=sub(anti_q1_q2),
            comm_q_h0_guarded=sub(comm_q_h0),
            comm_q_h0_full=float(np.max(np.abs(comm_q_h0))),
            anti_sz_q=float(np.max(np.abs(anti_sz_q))),
            h_equals_h0_plus_hint=float(np.max(np.abs(H - (H0 + Hint)))),
            h0_identity_interior=float(np.max(np.abs(h0_id[np.ix_(iidx, iidx)]))),
            h_q2_identity_offcorner=float(np.max(np.abs(hq))),
            truncation_corner_deviation=float(corner_dev),
            comm_n_exc_h=float(np.max(np.abs(comm_n))),
        )
    return report
