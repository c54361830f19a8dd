"""JSON-config command-line driver emitting machine-readable reports.

One command per invocation: spectrum, entangle, supercharge, jc or verify.
Configs are fail-closed (unknown keys rejected) and fully validated before any
computation starts. All numeric text is 17 significant digits with LF line
endings, files are written atomically (temp file + rename), and every code
path is deterministic, so rerunning a config reproduces its outputs byte for
byte. Exit codes: 0 success, 1 physics-invariant violation, 2 config error.
`susyqm.checks` owns the verdicts; each command ends through one `_finish`
of the checks they return: a failed check exits 1 with one stderr line,
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

from . import checks
from .entanglement import analyze, build_energy_eigenstate
from .errors import ConfigError, PhysicsViolationError, SusyQMError
from .grid import Grid, inner_product, make_grid
from .jaynescummings import build_jc
from .operators import build_susy_system
from .superpotentials import REGISTRY_NAMES, get_superpotential

SWEEP_COLUMNS = (
    "|c1|", "phase_diff", "overlap_abs", "sigma_x", "sigma_y", "sigma_z",
    "lambda1", "lambda2", "C_spin", "C_overlap", "C_svd",
)
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


# ------------------------------------------------------------------ commands

def run_spectrum(cfg, outdir, fmt):
    W = _parse_superpotential(cfg)
    grid = _parse_grid(cfg)
    levels = _parse_levels(cfg, grid)

    plus, minus, psi0, verdicts = checks.spectrum(_build_system(W, grid), levels)

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
    return _finish(verdicts)


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

    pp, mm, verdicts = checks.entangle(_build_system(W, grid), level)
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
    return _finish(verdicts)


def run_supercharge(cfg, outdir, fmt):
    W = _parse_superpotential(cfg)
    grid = _parse_grid(cfg)
    levels = _parse_levels(cfg, grid)

    columns, verdicts = checks.supercharge(_build_system(W, grid), levels)
    text = _table_text(fmt, {"superpotential": W.name, "grid": _grid_payload(grid)},
                       ("index", "energy", "family", "sign", "residual", "concurrence"),
                       ("d", ".17g", "s", "+d", ".17g", ".17g"), columns)
    _write(outdir, "supercharge." + fmt, text)
    return _finish(verdicts)


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

    match, alg, verdicts = checks.jc(jc)

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
            "all_matched": all(c.passed for c in verdicts),
        },
    }

    _write(outdir, "jc_levels." + fmt, levels_text)
    _write(outdir, "jc_algebra.json", _json_text(algebra_payload))
    return _finish(verdicts)


def run_verify(cfg, outdir, fmt):
    W = _parse_superpotential(cfg)
    grid = _parse_grid(cfg)
    levels = _parse_levels(cfg, grid)

    verdicts = checks.verify(_build_system(W, grid), levels)
    # JSON has no NaN or infinity: such a value, which fails its check, is written as null
    rows = [{"name": c.name, "value": c.value if math.isfinite(c.value) else None,
             "bound": c.bound, "passed": c.passed} for c in verdicts]
    payload = {"superpotential": W.name, "grid": _grid_payload(grid), "levels": levels,
               "checks": rows, "passed": all(c.passed for c in verdicts)}
    _write(outdir, "verify.json", _json_text(payload))
    return _finish(verdicts)


def _write(outdir, filename, text):
    path = os.path.join(outdir, filename)
    try:
        _atomic_write(path, text)
    except OSError as exc:
        raise ConfigError(f"cannot write report {path!r}: {exc}") from exc
    print(f"wrote {path}")


def _finish(verdicts):
    """Exit code of a finished run: 0 if every check passed, else 1.

    An exit 1 prints one stderr line, naming the first failed check and
    counting the others.
    """
    failed = [c for c in verdicts if not c.passed]
    if not failed:
        return 0
    more = f" (and {len(failed) - 1} more)" if len(failed) > 1 else ""
    print(f"physics violation: {failed[0].name} = {failed[0].value!r} "
          f"exceeds {failed[0].bound!r}{more}", file=sys.stderr)
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
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge integers, deep nesting
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
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
    except Exception as exc:  # anything else, e.g. numpy's overflow or value errors: no traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
