"""JSON-config command-line driver emitting machine-readable reports.

One command per invocation: spectrum, entangle, supercharge, jc or verify.
Configs are fail-closed (unknown keys rejected) and fully validated before any
computation starts. All numeric text is 17 significant digits with LF line
endings, files are written atomically (temp file + rename), and every code
path is deterministic, so rerunning a config reproduces its outputs byte for
byte. Exit codes: 0 success, 1 physics-invariant violation, 2 config error.
Every command states its verdicts as (name, value, bound) checks and ends
through one `_finish`: a failed check exits 1 with one stderr line,
`physics violation: <first failed name> = <value> exceeds <bound>`, plus
`(and N more)` when N other checks failed. Every other ending is one stderr
line too.
"""

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from .entanglement import (
    analyze,
    build_energy_eigenstate,
    supercharge_concurrences,
    supercharge_residuals,
)
from .errors import ConfigError, PhysicsViolationError, SusyQMError
from .grid import Grid, inner_product, make_grid, sum_of_squares
from .jaynescummings import (
    FIDELITY_TOL,
    GAP_TOL,
    build_jc,
    numeric_vs_analytic,
    verify_susy_algebra,
)
from .operators import band_max_abs, band_rows, build_susy_system, supercharge_products
from .spectral import (
    EPS0,
    PAIR_TOL,
    align_phase,
    eigenstates,
    intertwine_down,
    operator_norm,
    solve_partners,
    solve_plus,
    zero_mode,
)
from .superpotentials import REGISTRY_NAMES, get_superpotential

INTERTWINE_TOL = 1e-8
MATRIX_SQ_TOL = 1e-13
ANTICOMM_TOL = 1e-12

SWEEP_COLUMNS = (
    "|c1|", "phase_diff", "overlap_abs", "sigma_x", "sigma_y", "sigma_z",
    "lambda1", "lambda2", "C_spin", "C_overlap", "C_svd",
)
# bytes of one complex (levels, n) array in the batched supercharge pass. A
# block's four states and the temporaries of its residuals hold about nine
# such arrays at once, so a block adds under 1 MB to a run at any grid size:
# 6 levels a block at 1001 points, 3 at 2001, 1 from 3073 points on
SUPERCHARGE_BLOCK_BYTES = 96 * 1024
JC_COLUMNS = ("n", "branch", "E_analytic", "E_numeric", "gap", "concurrence")
# Largest (c1, phase) sweep an entangle run accepts, from the report size: the
# widest row is the JSON one, eleven `"key": value,` lines of 17-digit values
# with a three-digit exponent plus its braces, 488 bytes, so 2**14 rows keep
# either report under 8 MB
SWEEP_MAX_ROWS = 2 ** 14


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".susyqm-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _row_texts(keys, columns, nullable, row_format):
    """One string a row, each from one %-format; no per-cell string is kept.

    A NaN cell of a column whose key is in `nullable` is a null cell.
    `row_format(nulls)` is the %-format of the rows whose null cells are
    `nulls`, one flag per column, with one conversion per cell; a null
    cell's conversion is %.0s, which writes nothing. Rows with the same
    null cells share one format.
    """
    code = np.zeros(len(columns[0]), dtype=int)  # bit k set: cell k is null
    for k, (key, col) in enumerate(zip(keys, columns)):
        if key in nullable:
            code |= np.isnan(col).astype(int) << k
    codes, which = np.unique(code, return_inverse=True)
    formats = np.array([row_format([c >> k & 1 for k in range(len(columns))])
                        for c in codes.tolist()], dtype=object)[which]
    return map(str.__mod__, formats.tolist(), zip(*(col.tolist() for col in columns)))


def _table_text(fmt, head, keys, specs, columns, nullable=(), rows_key="rows") -> str:
    """A report table, one format call a row (see `_row_texts`).

    Row r has cell k = columns[k][r]: an integer, a float or a string. As
    "csv" the text is the header `keys` and one line a row, cell k written
    as "%" + specs[k]. As "json" it is `_json_text` of the dict `head` plus a
    last key `rows_key` holding one object a row that maps keys[k] to cell
    k: %r of a Python int or float is the form `json.dumps` writes, and a
    string cell is encoded by `json.dumps`. A NaN cell of a column whose key
    is in `nullable` is a null cell: empty in CSV, null in JSON.
    """
    columns = [np.asarray(col) for col in columns]
    if fmt == "csv":
        def row_format(nulls):
            return ",".join("%.0s" if null else "%" + spec for spec, null in zip(specs, nulls))
        return "\n".join([",".join(keys), *_row_texts(keys, columns, nullable, row_format)]) + "\n"

    strings = [col.dtype.kind == "U" for col in columns]
    for key, col, string in zip(keys, columns, strings):
        if not string and (np.isinf(col) if key in nullable else ~np.isfinite(col)).any():
            raise ValueError("Out of range float values are not JSON compliant")

    def row_format(nulls):
        return "    {\n" + ",\n".join(
            "      " + json.dumps(key).replace("%", "%%")
            + (": null%.0s" if null else ": %s" if string else ": %r")
            for key, null, string in zip(keys, nulls, strings)) + "\n    }"
    columns = [np.array([json.dumps(s) for s in col.tolist()]) if string else col
               for col, string in zip(columns, strings)]
    rows = list(_row_texts(keys, columns, nullable, row_format))
    text = _json_text({**head, rows_key: []})
    if not rows:
        return text
    # the rows go between the brackets of the empty list that closes the text
    rows[0] = text[:-5] + "[\n" + rows[0]
    rows[-1] += "\n  ]\n}\n"
    return ",\n".join(rows)


# ---------------------------------------------------------------- validation

def _check_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:  # quoted, so a key holding a line break keeps the message on one line
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"missing required field(s) in {where}: {', '.join(missing)}")


def _real(obj, key, where):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {v!r}")
    try:
        value = float(v)
    except OverflowError:  # a JSON integer beyond float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where}.{key} must be finite, got {v!r}")
    return value


def _integer(obj, key, where, minimum=None):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}, got {v}")
    return v


def _parse_superpotential(cfg):
    obj = cfg["superpotential"]
    _check_keys(obj, ("name",), ("params",), "superpotential")
    name = obj["name"]
    if name not in REGISTRY_NAMES:
        raise ConfigError(
            f"unknown superpotential {name!r}; known: {', '.join(REGISTRY_NAMES)}"
        )
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("superpotential.params must be a JSON object")
    for key in params:
        if not key.isidentifier():  # no parameter name; it would be written out unquoted
            raise ConfigError(f"bad parameter(s) for superpotential {name!r}: "
                              f"{key!r} is not a parameter name")
        _real(params, key, "superpotential.params")
    try:
        return get_superpotential(name, **params)
    except TypeError as exc:
        raise ConfigError(f"bad parameter(s) for superpotential {name!r}: {exc}") from exc


def _parse_grid(cfg) -> Grid:
    obj = cfg["grid"]
    _check_keys(obj, ("x_min", "x_max", "n_points"), (), "grid")
    x_min = _real(obj, "x_min", "grid")
    x_max = _real(obj, "x_max", "grid")
    n_points = _integer(obj, "n_points", "grid")
    try:
        return make_grid(x_min, x_max, n_points)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_levels(cfg, grid: Grid, key="levels"):
    # solving k states of an n-point discretization is only trusted for k <= n/10
    levels = _integer(cfg, key, "config", minimum=1)
    if (levels + 1) * 10 > grid.n_points:
        raise ConfigError(
            f"config.{key} = {levels} too large for n_points = {grid.n_points}; "
            f"need (levels + 1) * 10 <= n_points"
        )
    return levels


def _grid_payload(grid: Grid):
    return {"x_min": grid.x_min, "x_max": grid.x_max, "n_points": grid.n_points}


def _build_system(W, grid):
    """The system of W on `grid`, for every grid command; a failed build is a ConfigError."""
    try:
        return build_susy_system(W, grid)
    except ValueError as exc:  # W not finite, unresolved jump, or H+- overflow
        raise ConfigError(str(exc)) from exc


def _solve_both_sides(W, grid, levels):
    """The system of W on `grid` and its paired levels: (system, plus, minus).

    `solve_partners` solves and pairs H+ levels 0..levels - 1 with H-
    levels 1..levels, as bisection results; a failed pairing raises its
    DegeneracyError. No eigenvector is formed here: each command asks
    `eigenstates` for the levels it reads, so `spectrum` forms none,
    `entangle` its one level of each side and `verify` every H+ level and
    levels 1.. of H-. `supercharge` reads no H- level and solves H+ alone
    (`solve_plus`).
    """
    system = _build_system(W, grid)
    return (system, *solve_partners(system.H_plus, system.H_minus, levels))


def _check(name, value, bound):
    """One verdict of any command: its value passes when it is at most its bound.

    A NaN value fails. `verify` writes its checks to its report; every
    command ends through `_finish` of its checks.
    """
    return {"name": name, "value": float(value), "bound": float(bound),
            "passed": bool(value <= bound)}


def _zero_mode_check(minus):
    """The zero-mode verdict of `spectrum` and `verify`: |E0| of H- <= EPS0.

    `minus` is the bisection result of H-. Its level 0 is the zero mode by
    B's construction; the bisection finds it only to about eps ||H-||, and
    this check reads how far.
    """
    return _check("zero_mode_present", abs(minus.values[0]), EPS0)


def _zero_mode_residual(system):
    """The zero mode psi0, ||H- psi0|| / ||psi0|| and its bound 1e-12 ||H-||."""
    psi0 = zero_mode(system)
    resid = np.sqrt(sum_of_squares(system.H_minus @ psi0.amplitudes))
    resid /= np.sqrt(sum_of_squares(psi0.amplitudes))
    return psi0, resid, 1e-12 * operator_norm(system.H_minus)


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
    the relative phase the eigenstates need. The two states of a family
    differ only in the sign of the down half, so `supercharge_concurrences`
    forms only each family's + state.
    """
    mapped = intertwine_down(system, pp)
    # the concurrences check each state's unit norm before its residual is
    # reduced, and drop the two states before the residuals' temporaries
    rows = supercharge_concurrences(system, pp.energy, pp.state, mapped)
    residuals = supercharge_residuals(system, pp.energy, pp.state, mapped)
    family, sign, concurrence = zip(*rows)
    shape = residuals.shape
    return (np.broadcast_to(np.arange(block.start + 1, block.stop + 1)[:, None], shape),
            np.broadcast_to(pp.energy[:, None], shape),
            np.broadcast_to(family, shape), np.broadcast_to(sign, shape),
            residuals, np.stack(concurrence, axis=-1))


def _intertwine_deviations(system, pp, mm):
    """verify's per-level values for a block of paired eigenpairs pp (H+) and mm (H-).

    Three lists over the levels: sqrt(dx) ||aligned map - psi-||, the
    deviation |dx ||B psi-||^2 - E-|, and the four supercharge residuals of
    each level, levels outer.
    """
    raw = intertwine_down(system, pp)
    dx = system.grid.dx
    gap = align_phase(raw, mm.state).amplitudes - mm.state.amplitudes
    images = system.B @ mm.state.amplitudes
    # norm ** 2 of a Python float is libm pow, as for one state's norm alone;
    # an array's ** 2 is x * x, which can differ in the last bit
    return ((math.sqrt(dx) * np.sqrt(sum_of_squares(gap))).tolist(),
            [abs(dx * norm ** 2 - e) for norm, e in zip(
                np.sqrt(sum_of_squares(images)).tolist(), mm.energy.tolist())],
            supercharge_residuals(system, pp.energy, pp.state, raw).ravel().tolist())


def _supercharge_check(residuals):
    """The supercharge verdict of `supercharge` and `verify`: the largest residual."""
    return _check("supercharge_eigenstate_residual", np.max(residuals, initial=0.0),
                  INTERTWINE_TOL)


def _susy_identities(system):
    """(name, value, bound) of verify's five (2n - 1)-square identity checks, in O(n).

    Every operator is read in the order of `SusySystem.Q1`, where
    H = diag(H+, H-) is pentadiagonal: its rows interleave the n rows of H-
    with the n - 1 rows of H+, each side's bands formed separately. The four
    products come from `supercharge_products`, one at a time:
    Q2^2 = -R^2, {Q1, Q2} = -i {Q1, R}, and {sz, Q1} gives both the parity
    and the hermiticity check.
    """
    H = np.zeros((5, 2 * system.grid.n_points - 1))
    H[0::2, 0::2] = band_rows(system.H_minus)
    H[0::2, 1::2] = band_rows(system.H_plus)
    products = supercharge_products(system.Q1)  # each reduced before the next is formed
    return (
        ("q1_squared_vs_hamiltonian", band_max_abs(next(products) - H), MATRIX_SQ_TOL),
        ("q2_squared_vs_hamiltonian", band_max_abs(next(products) + H), MATRIX_SQ_TOL),
        ("anticommutator_q1_q2", band_max_abs(next(products)), ANTICOMM_TOL),
        ("anticommutator_parity_q1", parity := band_max_abs(next(products)), ANTICOMM_TOL),
        ("q2_hermiticity", parity, ANTICOMM_TOL),
    )


# ------------------------------------------------------------------ commands

def run_spectrum(cfg, outdir, fmt):
    W = _parse_superpotential(cfg)
    grid = _parse_grid(cfg)
    levels = _parse_levels(cfg, grid)

    system, plus, minus = _solve_both_sides(W, grid, levels)
    psi0, resid, bound = _zero_mode_residual(system)
    checks = [_zero_mode_check(minus), _check("zero_mode_residual", resid, bound)]

    e_plus, e_minus = plus.values, minus.values[1:]  # H- level 0 is the zero mode
    spectrum_text = _table_text(fmt, {
        "superpotential": W.name,
        "grid": _grid_payload(grid),
        "zero_mode_energy": float(minus.values[0]),
    }, ("index", "E_plus", "E_minus", "gap"), ("d", ".17g", ".17g", ".17g"),
        (np.arange(1, levels + 1), e_plus, e_minus, np.abs(e_plus - e_minus)), rows_key="pairs")
    x, amps = grid.nodes(), psi0.amplitudes
    if fmt == "csv":
        zero_text = _table_text(fmt, None, ("x", "re", "im"), (".17g",) * 3,
                                (x, amps.real, amps.imag))
    else:  # one list a column, not a row table
        zero_text = _json_text({"x": x.tolist(), "re": amps.real.tolist(),
                                "im": amps.imag.tolist()})

    _write(outdir, "spectrum." + fmt, spectrum_text)
    _write(outdir, "zero_mode." + fmt, zero_text)
    return _finish(checks)


def run_entangle(cfg, outdir, fmt):
    W = _parse_superpotential(cfg)
    grid = _parse_grid(cfg)
    level = _parse_levels(cfg, grid, key="level")
    sweep = cfg.get("sweep", {})
    _check_keys(sweep, (), ("c1_points", "phase_points"), "sweep")
    c1_points = _integer(sweep, "c1_points", "sweep", minimum=2) if "c1_points" in sweep else 21
    phase_points = _integer(sweep, "phase_points", "sweep", minimum=1) if "phase_points" in sweep else 8
    if c1_points * phase_points > SWEEP_MAX_ROWS:
        raise ConfigError(
            f"sweep.c1_points * sweep.phase_points = {c1_points * phase_points} "
            f"exceeds the cap of {SWEEP_MAX_ROWS} rows"
        )

    _, plus, minus = _solve_both_sides(W, grid, level)
    # report level k is H+ level k - 1 and H- level k
    pp, mm = (eigenstates(side, grid, slice(k, k + 1))[0]
              for side, k in ((plus, level - 1), (minus, level)))
    overlap = inner_product(pp.state, mm.state)

    # row r = i * phase_points + j holds c1 grid point i and phase j
    c1 = np.repeat(np.linspace(0.0, 1.0, c1_points), phase_points)
    phase = np.tile(np.linspace(0.0, 2.0 * math.pi, phase_points, endpoint=False), c1_points)
    c2 = np.sqrt(np.maximum(0.0, 1.0 - c1 * c1)) * (np.cos(phase) + 1j * np.sin(phase))
    rep = analyze(build_energy_eigenstate(c1, c2, pp.state, mm.state), c1, c2, overlap)
    columns = (
        c1, phase, np.full(c1.size, abs(overlap)), *rep.sigma_mean, *rep.schmidt,
        rep.concurrence_spin, rep.concurrence_overlap, rep.concurrence_svd,
    )

    text = _table_text(fmt, {
        "superpotential": W.name,
        "grid": _grid_payload(grid),
        "level": level,
        "E_plus": pp.energy,
        "E_minus": mm.energy,
    }, SWEEP_COLUMNS, (".17g",) * len(columns), columns)
    _write(outdir, "entangle." + fmt, text)
    return _finish([])


def run_supercharge(cfg, outdir, fmt):
    W = _parse_superpotential(cfg)
    grid = _parse_grid(cfg)
    levels = _parse_levels(cfg, grid)

    system = _build_system(W, grid)
    pairs = eigenstates(solve_plus(system.H_plus, levels), grid)  # no H- level is read
    blocks = [_supercharge_columns(system, block, pairs[block])
              for block in _level_blocks(grid, len(pairs))]
    # one row per (level, family), levels outer
    columns = [np.concatenate(col).ravel() for col in zip(*blocks)]

    text = _table_text(fmt, {"superpotential": W.name, "grid": _grid_payload(grid)},
                       ("index", "energy", "family", "sign", "residual", "concurrence"),
                       ("d", ".17g", "s", "+d", ".17g", ".17g"), columns)
    _write(outdir, "supercharge." + fmt, text)
    return _finish([_supercharge_check(columns[4])])


def run_jc(cfg, outdir, fmt):
    obj = cfg["jc_params"]
    _check_keys(obj, ("omega", "gamma", "n_max"), (), "jc_params")
    omega = _real(obj, "omega", "jc_params")
    gamma = _real(obj, "gamma", "jc_params")
    n_max = _integer(obj, "n_max", "jc_params")
    try:
        jc = build_jc(omega, gamma, n_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    match = numeric_vs_analytic(jc)
    alg = verify_susy_algebra(jc)

    # a gamma = 0 doublet has no single eigenvector, so its NaN concurrence
    # is written as an empty cell or null
    columns = (match.n, match.branch, match.E_analytic, match.E_numeric, match.gap,
               match.concurrence)
    levels_text = _table_text(fmt, {"omega": omega, "gamma": gamma, "n_max": n_max},
                              JC_COLUMNS, ("d", "d") + (".17g",) * 4, columns,
                              nullable=("concurrence",))

    algebra_payload = {
        "omega": omega, "gamma": gamma, "n_max": n_max,
        "guard_n_max": jc.fock.guard_n_max,
        "identities": asdict(alg),
        "eigenstate_label_check": {
            "implemented_upper_label_n_minus_1": match.label_residual_implemented,
            "alternative_upper_label_n_plus_1": match.label_residual_alternative,
        },
        "match_summary": {
            "max_gap": match.max_gap,
            "min_fidelity": match.min_fidelity,
            "min_excited_concurrence": match.min_excited_concurrence,
            "degenerate": match.degenerate,
            "all_matched": match.all_matched,
        },
    }

    _write(outdir, "jc_levels." + fmt, levels_text)
    _write(outdir, "jc_algebra.json", _json_text(algebra_payload))
    # a failure row holds its gap, or its fidelity F, read as the deficit 1 - F
    return _finish([
        _check(f"gap[n={n},branch={b}]", value, GAP_TOL) if kind == "gap" else
        _check(f"fidelity_deficit[n={n},branch={b}]", 1.0 - value, FIDELITY_TOL)
        for n, b, kind, value in match.failures])


def run_verify(cfg, outdir, fmt):
    W = _parse_superpotential(cfg)
    grid = _parse_grid(cfg)
    levels = _parse_levels(cfg, grid)

    system, plus, minus = _solve_both_sides(W, grid, levels)
    _, resid, bound = _zero_mode_residual(system)

    # every H+ level and levels 1.. of H-: no check reads H-'s kernel vector
    plus_pairs, minus_pairs = eigenstates(plus, grid), eigenstates(minus, grid, slice(1, None))
    deviations = [_intertwine_deviations(system, plus_pairs[block], minus_pairs[block])
                  for block in _level_blocks(grid, len(plus_pairs))]
    # each a list over report levels 1..levels, ascending
    maps, energies, residuals = ([value for block in column for value in block]
                                 for column in zip(*deviations))
    checks = [
        _check("pairing_max_gap", np.max(np.abs(plus.values - minus.values[1:])), PAIR_TOL),
        _zero_mode_check(minus),
        _check("zero_mode_residual", resid, bound),
        _check("intertwine_map_residual", np.max(maps, initial=0.0), INTERTWINE_TOL),
        _check("intertwine_energy_deviation", np.max(energies, initial=0.0), INTERTWINE_TOL),
        _supercharge_check(residuals),
        *(_check(*identity) for identity in _susy_identities(system)),
    ]
    # JSON has no NaN or infinity: such a value, which fails its check, is written as null
    rows = [{**c, "value": c["value"] if math.isfinite(c["value"]) else None} for c in checks]
    payload = {"superpotential": W.name, "grid": _grid_payload(grid), "levels": levels,
               "checks": rows, "passed": all(c["passed"] for c in checks)}
    _write(outdir, "verify.json", _json_text(payload))
    return _finish(checks)


def _write(outdir, filename, text):
    path = os.path.join(outdir, filename)
    try:
        _atomic_write(path, text)
    except OSError as exc:
        raise ConfigError(f"cannot write report {path}: {exc}") from exc
    print(f"wrote {path}")


def _finish(checks):
    """Exit code of a finished run: 0 if every check passed, else 1.

    An exit 1 prints one stderr line, naming the first failed check and
    counting the others.
    """
    failed = [c for c in checks if not c["passed"]]
    if not failed:
        return 0
    more = f" (and {len(failed) - 1} more)" if len(failed) > 1 else ""
    print(f"physics violation: {failed[0]['name']} = {failed[0]['value']!r} "
          f"exceeds {failed[0]['bound']!r}{more}", file=sys.stderr)
    return 1


# command -> (runner, required config keys, optional config keys); every
# command also requires "command" and accepts "output"
COMMANDS = {
    "spectrum": (run_spectrum, ("superpotential", "grid", "levels"), ()),
    "entangle": (run_entangle, ("superpotential", "grid", "level"), ("sweep",)),
    "supercharge": (run_supercharge, ("superpotential", "grid", "levels"), ()),
    "jc": (run_jc, ("jc_params",), ()),
    "verify": (run_verify, ("superpotential", "grid", "levels"), ()),
}


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge integers, deep nesting
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    command = raw.get("command")
    if not isinstance(command, str) or command not in COMMANDS:  # a list is unhashable
        raise ConfigError(
            f"config.command must be one of {', '.join(COMMANDS)}, got {command!r}"
        )
    _, required, optional = COMMANDS[command]
    _check_keys(raw, ("command", *required), (*optional, "output"), "config")
    output = raw.get("output", {})
    _check_keys(output, (), ("path", "format"), "output")
    if "path" in output and not isinstance(output["path"], str):
        raise ConfigError("output.path must be a string")
    if "format" in output and output["format"] not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {output['format']!r}")
    return raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="susyqm",
        description="Partner-Hamiltonian spectra, entanglement sweeps and "
                    "Jaynes-Cummings reports driven by a JSON config.",
    )
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="JSON run configuration")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default: config output.path or '.')")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="report format (default: config output.format or csv)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        output = cfg.get("output", {})
        outdir = args.out if args.out is not None else output.get("path", ".")
        fmt = args.format if args.format is not None else output.get("format", "csv")
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {outdir!r}: {exc}") from exc
        return COMMANDS[cfg["command"]][0](cfg, outdir, fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PhysicsViolationError as exc:
        print(f"physics violation: {exc}", file=sys.stderr)
        return 1
    except (SusyQMError, np.linalg.LinAlgError) as exc:  # the latter: LAPACK gave no answer
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a grid or Fock space too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
