"""The verdict layer: every command's checks from `susyqm.checks`, without the CLI."""

import json
import math

import numpy as np
import pytest

import susyqm as sq
from susyqm import checks, cli, entanglement, spectral


class TestCheck:
    def test_passes_at_most_its_bound(self):
        assert checks.Check("a", 1.0, 1.0).passed is True
        assert checks.Check("a", np.nextafter(1.0, 2.0), 1.0).passed is False
        assert checks.Check("a", -np.inf, 0.0).passed is True

    def test_nan_fails(self):
        assert checks.Check("a", math.nan, math.inf).passed is False

    def test_values_are_python_floats(self):
        # numpy scalars in, Python floats out: the stderr line and JSON read them
        c = checks.Check("a", np.float64(0.5), np.float32(0.25))
        assert type(c.value) is type(c.bound) is float
        assert repr(c.value) == "0.5"


def run(tmp_path, capsys, payload):
    """Exit code, stderr and the report directory of one CLI run of `payload`."""
    out = tmp_path / payload["command"]
    out.mkdir()
    path = tmp_path / f"{payload['command']}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    rc = cli.main(["--config", str(path), "--out", str(out), "--format", "json"])
    return rc, capsys.readouterr().err, out


def ending(found):
    """The exit code and stderr `cli` writes for the checks `found`."""
    failed = [c for c in found if not c.passed]
    if not failed:
        return 0, ""
    more = f" (and {len(failed) - 1} more)" if len(failed) > 1 else ""
    return 1, (f"physics violation: {failed[0].name} = {failed[0].value!r} "
               f"exceeds {failed[0].bound!r}{more}\n")


# (W, params, half width, points): passing runs, runs that fail some checks
# (a zero mode just above EPS0 on a steep box, levels one ulp from their
# partners on a steeper one, and H+- near overflow), and a second zero mode
# of H+, which the solve raises
GRID_CASES = (
    ("harmonic", {}, 10.0, 201),
    ("tanh", {}, 10.0, 201),
    ("cubic", {}, 10.0, 201),
    ("harmonic", {"scale": 2.0 ** 16}, 10.0 * 2 ** -8, 2001),
    ("harmonic", {"scale": 2.0 ** 20}, 10.0 * 2 ** -10, 2001),
    ("harmonic", {"scale": 1e153}, 10.0, 201),
    ("harmonic", {"scale": 2.0 ** -40}, 10.0 * 2 ** 20, 201),
)


@pytest.mark.parametrize("name, params, half_width, n_points", GRID_CASES)
def test_grid_checks_equal_the_reports(tmp_path, capsys, name, params, half_width, n_points):
    # each command's checks from the library alone; the CLI's exit code and
    # stderr line follow from them, and verify.json holds them as they are
    system = sq.build_susy_system(sq.get_superpotential(name, **params),
                                  sq.make_grid(-half_width, half_width, n_points))
    for command in ("spectrum", "entangle", "supercharge", "verify"):
        try:
            found = getattr(checks, command)(system, 6)
        except sq.SusyQMError as exc:
            expected = 1, f"physics violation: {exc}\n"
            found = None
        else:
            found = found if command == "verify" else found[-1]
            expected = ending(found)
        payload = {"command": command, "superpotential": {"name": name, "params": params},
                   "grid": {"x_min": -half_width, "x_max": half_width, "n_points": n_points},
                   "level" if command == "entangle" else "levels": 6}
        rc, err, out = run(tmp_path, capsys, payload)
        assert (rc, err) == expected, command
        if command == "verify" and found is not None:
            report = json.loads((out / "verify.json").read_text())
            assert report["checks"] == [
                {"name": c.name, "value": c.value if math.isfinite(c.value) else None,
                 "bound": c.bound, "passed": c.passed} for c in found]
            assert report["passed"] is all(c.passed for c in found)
    if name == "harmonic" and not params:
        assert [c.name for c in found] == [
            "pairing_max_gap", "zero_mode_present", "zero_mode_residual",
            "intertwine_map_residual", "intertwine_energy_deviation",
            "supercharge_eigenstate_residual", "q1_squared_vs_hamiltonian",
            "q2_squared_vs_hamiltonian", "anticommutator_q1_q2",
            "anticommutator_parity_q1", "q2_hermiticity"]
        assert all(c.passed for c in found)


@pytest.mark.parametrize("omega, gamma, n_max", ((1.0, 0.1, 16), (1e4, 0.1, 64), (1.0, 0.0, 8)))
def test_jc_checks_equal_the_exit(tmp_path, capsys, omega, gamma, n_max):
    # jc's checks are the failed rows of numeric_vs_analytic; omega 1e4
    # fails gaps of one ulp against the absolute GAP_TOL
    found = sq.numeric_vs_analytic(sq.build_jc(omega, gamma, n_max)).failures
    assert all(isinstance(c, checks.Check) and not c.passed for c in found)
    assert bool(found) is (omega == 1e4)
    payload = {"command": "jc", "jc_params": {"omega": omega, "gamma": gamma, "n_max": n_max}}
    rc, err, _ = run(tmp_path, capsys, payload)
    assert (rc, err) == ending(found)


def test_other_layers_are_called_through_their_modules(monkeypatch):
    # a name patched on its own layer module is the one the checks call, as
    # a tracer that patches layer namespaces needs
    calls = []
    for module, name in ((spectral, "solve_plus"), (spectral, "intertwine_down"),
                         (entanglement, "supercharge_concurrences"),
                         (entanglement, "supercharge_residuals")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _fn=fn, _name=name:
                            calls.append(_name) or _fn(*a))
    system = sq.build_susy_system(sq.get_superpotential("harmonic"),
                                  sq.make_grid(-10.0, 10.0, 201))
    checks.supercharge(system, 2)
    assert calls == ["solve_plus", "intertwine_down", "supercharge_concurrences",
                     "supercharge_residuals"]
