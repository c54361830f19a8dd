"""End-to-end runs of the JSON-config driver against temporary directories."""

import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import susyqm as sq
from susyqm import checks, cli, entanglement, operators, spectral

BOX = {"x_min": -10.0, "x_max": 10.0, "n_points": 401}
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
W_NAMES = ("harmonic", "cubic", "shifted_cubic", "tanh")


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def spectrum_config(**overrides):
    cfg = {
        "command": "spectrum",
        "superpotential": {"name": "harmonic"},
        "grid": dict(BOX),
        "levels": 4,
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    text = path.read_text(encoding="utf-8")
    assert "\r" not in text
    assert text.endswith("\n")
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# verify's five identity checks, in report order
IDENTITY_CHECKS = ("q1_squared_vs_hamiltonian", "q2_squared_vs_hamiltonian",
                   "anticommutator_q1_q2", "anticommutator_parity_q1", "q2_hermiticity")


def mutate_minus(monkeypatch, mutate):
    """Make the commands build H- as mutate(H-), B and H+ unchanged."""
    build = cli.build_susy_system

    def mutated(W, grid):
        system = build(W, grid)
        return dataclasses.replace(system, H_minus=mutate(system.H_minus))
    monkeypatch.setattr(cli, "build_susy_system", mutated)


def reference_table(head, keys, rows, rows_key="rows"):
    """A report table written row by row, as {"csv": text, "json": text}.

    `rows` are dicts over `keys`. A CSV cell is a float at 17 significant
    digits, an integer (with its sign in a "sign" column), a string as it
    is, or empty for None; the JSON text is `json.dumps` of `head` plus the
    rows under `rows_key`.
    """
    def cell(key, value):
        if value is None:
            return ""
        if isinstance(value, float):
            return format(value, ".17g")
        if isinstance(value, int) and key == "sign":
            return f"{value:+d}"
        return str(value)

    lines = [",".join(keys)] + [",".join(cell(key, row[key]) for key in keys) for row in rows]
    return {"csv": "\n".join(lines) + "\n",
            "json": json.dumps({**head, rows_key: rows}, indent=2, allow_nan=False) + "\n"}


class TestReportTables:
    @pytest.mark.parametrize("name", W_NAMES)
    def test_tables_match_row_by_row_writer(self, tmp_path, name):
        # each table's rows as its JSON report states them; zero_mode's
        # from the zero mode itself, whose 17-digit cells read back exactly
        grid = {"x_min": -10.0, "x_max": 10.0, "n_points": 201}
        runs = {
            "spectrum": ({"levels": 6}, "pairs"),
            "supercharge": ({"levels": 3}, "rows"),
            "entangle": ({"level": 1}, "rows"),
        }
        for command, (extra, rows_key) in runs.items():
            cfg = write_config(tmp_path, {"command": command, "superpotential": {"name": name},
                                          "grid": grid, **extra})
            for fmt in ("csv", "json"):
                assert cli.main(["--config", cfg, "--out", str(tmp_path / fmt),
                                 "--format", fmt]) == 0
            text = (tmp_path / "json" / f"{command}.json").read_text()
            head = json.loads(text)
            rows = head.pop(rows_key)
            assert rows
            expected = reference_table(head, list(rows[0]), rows, rows_key)
            for fmt in ("csv", "json"):
                got = (tmp_path / fmt / f"{command}.{fmt}").read_bytes()
                assert got == expected[fmt].encode(), (command, fmt)

        W, mesh = sq.get_superpotential(name), sq.make_grid(**grid)
        amps = sq.zero_mode(sq.build_susy_system(W, mesh)).amplitudes
        columns = {"x": mesh.nodes(), "re": amps.real, "im": amps.imag}
        rows = [dict(zip(columns, cells)) for cells in zip(*(c.tolist() for c in columns.values()))]
        expected = reference_table({}, list(columns), rows)["csv"]
        assert (tmp_path / "csv" / "zero_mode.csv").read_bytes() == expected.encode()
        _, cells = read_csv(tmp_path / "csv" / "zero_mode.csv")
        assert np.array_equal(np.array(cells, dtype=float), np.column_stack(list(columns.values())))
        assert (tmp_path / "json" / "zero_mode.json").read_text() == json.dumps(
            {key: col.tolist() for key, col in columns.items()}, indent=2) + "\n"

    @pytest.mark.parametrize("n_rows", (0, 1, 3))
    def test_writer_integer_sign_and_string_cells(self, n_rows):
        # string cells that need escaping in JSON, and a sign column with 0
        keys = ("index", "family", "sign", "value")
        columns = (np.arange(1, n_rows + 1), np.array(["q1", 'a"b\\c', "50%\u03c8"])[:n_rows],
                   np.array([1, -1, 0])[:n_rows], np.array([0.1, -2.5e-308, 1e16])[:n_rows])
        rows = [dict(zip(keys, cells)) for cells in zip(*(c.tolist() for c in columns))]
        head = {"superpotential": "harmonic", "grid": {"n_points": 3}}
        expected = reference_table(head, keys, rows, "pairs")
        for fmt in ("csv", "json"):
            assert cli._table_text(fmt, head, keys, ("d", "s", "+d", ".17g"), columns,
                                   rows_key="pairs") == expected[fmt], fmt


class TestSpectrumCommand:
    def test_csv_run(self, tmp_path):
        cfg = write_config(tmp_path, spectrum_config())
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "--format", "csv"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "spectrum.csv")
        assert header == ["index", "E_plus", "E_minus", "gap"]
        assert len(rows) == 4
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]
        assert max(abs(float(r[3])) for r in rows) <= 1e-10
        zheader, zrows = read_csv(tmp_path / "zero_mode.csv")
        assert zheader == ["x", "re", "im"]
        assert len(zrows) == BOX["n_points"]

    def test_json_run(self, tmp_path):
        cfg = write_config(tmp_path, spectrum_config())
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "--format", "json"])
        assert rc == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert payload["superpotential"] == "harmonic"
        assert abs(payload["zero_mode_energy"]) <= 1e-10
        assert len(payload["pairs"]) == 4
        zm = json.loads((tmp_path / "zero_mode.json").read_text())
        assert len(zm["x"]) == len(zm["re"]) == len(zm["im"]) == BOX["n_points"]

    def test_sign_condition_violation_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum_config(
            superpotential={"name": "harmonic", "params": {"scale": -1.0}}))
        rc = cli.main(["--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        assert "physics violation" in capsys.readouterr().err

    def test_bands_beyond_squaring_range_exit_one(self, tmp_path, capsys):
        # H+- are finite but their off-diagonal squares overflow: the solve
        # still finishes, and the lost pairing is a physics verdict
        cfg = write_config(tmp_path, spectrum_config(
            superpotential={"name": "harmonic", "params": {"scale": 1e153}}))
        rc = cli.main(["--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("physics violation")
        assert len(err.splitlines()) == 1


class TestEntangleCommand:
    def entangle_config(self, **overrides):
        cfg = {
            "command": "entangle",
            "superpotential": {"name": "harmonic"},
            "grid": dict(BOX),
            "level": 1,
            "sweep": {"c1_points": 5, "phase_points": 4},
        }
        cfg.update(overrides)
        return cfg

    def test_sweep_csv(self, tmp_path):
        cfg = write_config(tmp_path, self.entangle_config())
        rc = cli.main(["--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "entangle.csv")
        assert header == list(cli.SWEEP_COLUMNS)
        assert len(rows) == 5 * 4
        vals = [[float(c) for c in r] for r in rows]
        for r in vals:
            c1, c_spin, c_over, c_svd = r[0], r[8], r[9], r[10]
            assert abs(c_spin - c_svd) <= 1e-12
            assert abs(c_spin - c_over) <= 1e-12
            if c1 in (0.0, 1.0):  # product states at the sweep edges
                assert c_spin <= 1e-6
        assert max(r[8] for r in vals) > 0.9

    def test_overlapping_partners_cap_concurrence(self, tmp_path):
        # broken parity makes <psi+|psi-> nonzero, so C cannot reach 1
        cfg = write_config(tmp_path, self.entangle_config(
            superpotential={"name": "shifted_cubic"},
            sweep={"c1_points": 9, "phase_points": 1}))
        rc = cli.main(["--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "entangle.csv")
        vals = [[float(c) for c in r] for r in rows]
        assert vals[0][2] > 0.01  # overlap_abs column
        assert max(r[10] for r in vals) < 1.0 - 1e-4

    def test_default_sweep_density(self, tmp_path):
        cfg = write_config(tmp_path, self.entangle_config(sweep={}))
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "--format", "json"])
        assert rc == 0
        payload = json.loads((tmp_path / "entangle.json").read_text())
        assert len(payload["rows"]) == 21 * 8
        assert set(payload["rows"][0]) == set(cli.SWEEP_COLUMNS)
        assert payload["E_plus"] == pytest.approx(payload["E_minus"], abs=1e-10)

    @pytest.mark.parametrize("n_points", (1001, 2001))
    @pytest.mark.parametrize("name", W_NAMES)
    def test_sweep_matches_full_grid_oracle(self, tmp_path, entangle_sweep_oracle,
                                            name, n_points):
        # the two-mode batch against one full-grid state at a time: the sweep
        # grid and the grid overlap are the same numbers, every route within
        # 8 eps (the worst measured is 3.5 eps, C_svd for cubic at 2001 points)
        grid = {"x_min": -10.0, "x_max": 10.0, "n_points": n_points}
        cfg = write_config(tmp_path, self.entangle_config(
            superpotential={"name": name}, grid=grid, sweep={}))
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "entangle.csv")
        got = np.array(rows, dtype=float)
        want = np.array(entangle_sweep_oracle(sq.get_superpotential(name),
                                              sq.make_grid(**grid)))
        assert got.shape == want.shape == (21 * 8, len(cli.SWEEP_COLUMNS))
        for j, column in enumerate(header):
            if column in ("|c1|", "phase_diff", "overlap_abs"):
                assert np.array_equal(got[:, j], want[:, j]), column
            else:
                dev = np.max(np.abs(got[:, j] - want[:, j]))
                assert dev <= 8 * np.finfo(float).eps, (column, dev)

    def test_product_rows_print_zero_lambda2(self, tmp_path):
        # at |c1| = 0 and 1 the state is a product: the smaller Schmidt
        # coefficient is 0, not the sqrt(eps) image of round-off in |<sigma>|
        rc = cli.main(["--config", str(CONFIGS / "entangle.json"), "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "entangle.csv")
        edges = [r for r in rows if float(r[0]) in (0.0, 1.0)]
        assert len(edges) == 2 * 8
        assert [float(r[header.index("lambda2")]) for r in edges] == [0.0] * 16

    def test_capped_csv_sweep_memory(self, tmp_path, traced_peak):
        # one format call a line: the 3.6 MB report at the row cap peaks at
        # ~15 MB traced; per-cell strings and row tuples took 34 MB
        cfg = write_config(tmp_path, self.entangle_config(
            superpotential={"name": "shifted_cubic"},
            grid={"x_min": -10.0, "x_max": 10.0, "n_points": 2001},
            sweep={"c1_points": 128, "phase_points": 128}))
        assert 128 * 128 == cli.SWEEP_MAX_ROWS
        run = ["--config", cfg, "--out", str(tmp_path), "--format", "csv"]
        assert traced_peak(lambda: cli.main(run)) < 20e6
        header, rows = read_csv(tmp_path / "entangle.csv")
        assert len(rows) == cli.SWEEP_MAX_ROWS

    def test_capped_json_sweep_memory(self, tmp_path, traced_peak):
        # one format call a row: the 6.9 MB report at the row cap peaks at
        # ~17 MB traced; one dict a row through json.dumps took 55 MB
        cfg = write_config(tmp_path, self.entangle_config(
            superpotential={"name": "shifted_cubic"},
            grid={"x_min": -10.0, "x_max": 10.0, "n_points": 2001},
            sweep={"c1_points": 128, "phase_points": 128}))
        run = ["--config", cfg, "--out", str(tmp_path), "--format", "json"]
        assert traced_peak(lambda: cli.main(run)) < 20e6
        rows = json.loads((tmp_path / "entangle.json").read_text())["rows"]
        assert len(rows) == cli.SWEEP_MAX_ROWS

    def test_json_rows_match_json_dumps(self):
        # extreme exponents, signed zero, subnormals and round numbers
        values = [0.0, 1.0, -0.0, 1e-300, -2.5e-308, 5e-324, 1.7976931348623157e308,
                  0.1, 1e-05, 1e16, 123456789.0, -1.0 / 3.0]
        rng = np.random.default_rng(21)
        columns = [np.roll(values, k) * (1.0 if k % 2 else -rng.uniform(0.25, 1.0))
                   for k in range(len(cli.SWEEP_COLUMNS))]
        head = {"superpotential": "tanh", "grid": {"x_min": -1.5, "n_points": 3}, "level": 2}
        oracle = json.dumps(dict(head, rows=[dict(zip(cli.SWEEP_COLUMNS, row))
                                             for row in zip(*(c.tolist() for c in columns))]),
                            indent=2) + "\n"
        specs = (".17g",) * len(columns)
        assert cli._table_text("json", head, cli.SWEEP_COLUMNS, specs, columns) == oracle
        columns[4][3] = np.nan
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._table_text("json", head, cli.SWEEP_COLUMNS, specs, columns)

    def test_rows_text_integer_and_null_cells(self):
        # NaN cells of the nullable columns, in different sets per row, are
        # null: against json.dumps with None and a cell-by-cell CSV line
        keys = ("i", "x", "y")
        ints = np.array([0, -1, 7, 4094, 2 ** 40])
        x = np.array([0.1, np.nan, 5e-324, np.nan, 3.0])
        y = np.array([np.nan, 2.5, 1e-17, np.nan, -0.0])
        rows = [{k: None if v != v else v for k, v in zip(keys, cells)}
                for cells in zip(ints.tolist(), x.tolist(), y.tolist())]
        head = {"level": 2}
        expected = reference_table(head, keys, rows)
        for fmt in ("csv", "json"):
            assert cli._table_text(fmt, head, keys, ("d", ".17g", ".17g"), (ints, x, y),
                                   nullable=("x", "y")) == expected[fmt], fmt
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._table_text("json", head, keys, ("d", ".17g", ".17g"), (ints, x, y),
                            nullable=("x",))
        y[1] = np.inf
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._table_text("json", head, keys, ("d", ".17g", ".17g"), (ints, x, y),
                            nullable=("x", "y"))

    def test_sweep_json_matches_json_dumps(self, tmp_path):
        cfg = write_config(tmp_path, self.entangle_config())
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "--format", "json"])
        assert rc == 0
        text = (tmp_path / "entangle.json").read_text()
        payload = json.loads(text)
        assert list(payload) == ["superpotential", "grid", "level", "E_plus", "E_minus", "rows"]
        assert len(payload["rows"]) == 5 * 4
        assert text == json.dumps(payload, indent=2) + "\n"


class TestSuperchargeCommand:
    def test_unnormalized_state_ends_in_one_line(self, tmp_path, monkeypatch, capsys):
        # harmonic at 2^19 + 1 points ends so, |<psi|psi> - 1| = 1.5e-8 on an
        # intertwined state; here every intertwined state is stretched by 1e-7
        mapped = spectral.intertwine_down

        def stretched(system, pairs):
            out = mapped(system, pairs)
            return sq.Wavefunction(out.grid, out.amplitudes * (1.0 + 1e-7))
        monkeypatch.setattr(spectral, "intertwine_down", stretched)
        cfg = write_config(tmp_path, {"command": "supercharge",
                                      "superpotential": {"name": "harmonic"},
                                      "grid": dict(BOX), "levels": 2})
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("physics violation: spinor state is not normalized: ")
        assert err.count("\n") == 1

    def test_rows_and_residuals(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "supercharge",
            "superpotential": {"name": "harmonic"},
            "grid": dict(BOX),
            "levels": 2,
        })
        rc = cli.main(["--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "supercharge.csv")
        assert header == ["index", "energy", "family", "sign", "residual",
                          "concurrence"]
        assert len(rows) == 2 * 4
        for r in rows:
            assert r[2] in ("q1", "q2")
            assert r[3] in ("+1", "-1")
            assert float(r[4]) <= 1e-8
            assert float(r[5]) == pytest.approx(1.0, abs=1e-10)
        assert {(r[0], r[2], r[3]) for r in rows} == {
            (i, fam, s) for i in ("1", "2") for fam in ("q1", "q2")
            for s in ("+1", "-1")
        }

    @pytest.mark.parametrize("n_points, block_bytes", (
        (201, None), (201, 8 * 201 * 4), (1001, None)), ids=("201", "201-blocks_of_4", "1001"))
    @pytest.mark.parametrize("name", W_NAMES)
    def test_rows_equal_the_per_level_calls(self, tmp_path, monkeypatch, name, n_points,
                                            block_bytes, residual_per_state):
        # levels at the cap, over several blocks (one at 201 points unless the
        # blocks are cut to 4 levels, leaving a short last one); every cell
        # equals, bit for bit, what the 1-D calls give for its level alone,
        # each residual what the per-state arithmetic gives, and each
        # concurrence that of the level's Q1 + state, the first row, within
        # an ulp of the row's own state
        if block_bytes is not None:
            monkeypatch.setattr(checks, "SUPERCHARGE_BLOCK_BYTES", block_bytes)
        levels = n_points // 10 - 1
        payload = {"command": "supercharge", "superpotential": {"name": name},
                   "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": n_points},
                   "levels": levels}
        assert cli.main(["--config", write_config(tmp_path, payload), "--out", str(tmp_path),
                         "--format", "json"]) == 0
        rows = json.loads((tmp_path / "supercharge.json").read_text())["rows"]

        W, grid = sq.get_superpotential(name), sq.make_grid(-10.0, 10.0, n_points)
        system = sq.build_susy_system(W, grid)
        pairs = sq.eigenstates(sq.solve_plus(system.H_plus, levels), grid)
        expected = []
        for i in range(1, levels + 1):
            pp = pairs[i - 1]  # report index i is H+ level i - 1
            mapped = sq.intertwine_down(system, pp)
            assert mapped.amplitudes.shape == (n_points,)
            states = sq.supercharge_eigenstates(system, pp.energy, sq.on_nodes(pp.state, grid),
                                                mapped)
            concurrence = sq.concurrence_from_spin(states[0][3])
            for family, sign, q, st in states:
                residual = residual_per_state(system, st, q, family)
                own = sq.concurrence_from_spin(st)
                assert abs(own - concurrence) <= np.spacing(concurrence)
                assert type(q) is type(residual) is type(concurrence) is float
                expected.append({"index": i, "energy": pp.energy, "family": family,
                                 "sign": sign, "residual": residual,
                                 "concurrence": concurrence})
        assert [tuple(row.items()) for row in rows] == [tuple(row.items()) for row in expected]
        for got, want in zip(rows, expected):  # equal floats, and equal bits
            for key in ("energy", "residual", "concurrence"):
                assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes()

    @pytest.mark.parametrize("name, params, n_points", (
        *((name, {}, n_points) for n_points in (201, 1001) for name in W_NAMES),
        # the benchmark's shifted_cubic jobs whose Q2 concurrence cells moved
        # by an ulp when the cells became the Q1 + state's
        ("shifted_cubic", {"a": -0.7312715117751976}, 1001),
        ("shifted_cubic", {"a": 0.9120685437784988}, 1001),
    ))
    def test_cells_hold_for_each_state_alone(self, tmp_path, name, params, n_points,
                                             build_supercharges):
        # every level at the cap, its four states formed alone by
        # supercharge_eigenstates, against the report's row of each state.
        # Concurrence: the state's own is within an ulp of its cell (the Q2
        # states of shifted_cubic levels 68, 73, 75, 86 and 92 at 1001
        # points, among others, sit one ulp off). Residual: the state's own
        # ||Q s - q s||, with Q1 and Q2 the dense matrices, each applied to
        # its own states, is the cell within round-off. Every row of Q holds
        # two nonzeros, and zeros add exactly, so each entry of Q v - q v is
        # computed within gamma_3 (|Q| |v| + |q| |v|) of the exact one,
        # gamma_3 = 3u / (1 - 3u) with u = eps / 2, both here and in the
        # package's blockwise residual. |||Q|||_2 is at most rho, the largest
        # row sum of |Q|, so each computed vector is within gamma_3 (rho + |q|)
        # ||s|| of the exact one, and each norm of N squares is rounded by
        # at most (N + 2) u relative: the two residuals differ by at most
        # 2 gamma_3 (rho + |q|) ||s|| + 2 (N + 2) u max(r)
        levels = n_points // 10 - 1
        payload = {"command": "supercharge",
                   "superpotential": {"name": name, "params": params},
                   "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": n_points},
                   "levels": levels}
        assert cli.main(["--config", write_config(tmp_path, payload), "--out", str(tmp_path),
                         "--format", "json"]) == 0
        rows = json.loads((tmp_path / "supercharge.json").read_text())["rows"]

        grid = sq.make_grid(-10.0, 10.0, n_points)
        system = sq.build_susy_system(sq.get_superpotential(name, **params), grid)
        pairs = sq.eigenstates(sq.solve_plus(system.H_plus, levels), grid)
        u = np.finfo(float).eps / 2
        gamma3 = 3 * u / (1 - 3 * u)
        dense = dict(zip(("q1", "q2"), build_supercharges(system)))
        rho = float(np.max(np.sum(np.abs(dense["q1"]), axis=1)))
        N = 2 * n_points - 1
        states = sq.supercharge_eigenstates(system, pairs.energy, sq.on_nodes(pairs.state, grid),
                                            sq.intertwine_down(system, pairs))
        for k, (family, sign, q, st) in enumerate(states):
            # the n - 1 up cells first, then the n down nodes, one column a level
            v = np.concatenate([st.up[:, :-1], st.down], axis=1).T
            own = np.sqrt(grid.dx) * np.linalg.norm(dense[family] @ v - q * v, axis=0)
            norms = np.sqrt(grid.dx) * np.linalg.norm(v, axis=0)
            for i, row in enumerate(rows[k::4]):
                assert (row["index"], row["family"], row["sign"]) == (i + 1, family, sign)
                cell = row["concurrence"]
                assert abs(sq.concurrence_from_spin(sq.SpinorState(
                    st.up[i], st.down[i], grid.dx)) - cell) <= np.spacing(cell)
                bound = (2 * gamma3 * (rho + abs(q[i])) * norms[i]
                         + 2 * (N + 2) * u * max(own[i], row["residual"]))
                assert abs(own[i] - row["residual"]) <= bound


def reference_jc_reports(omega, gamma, n_max):
    """jc's three reports, the levels table by `reference_table`.

    The values come from the package's match and algebra reports; a doublet
    of gamma = 0 has no concurrence, written as an empty cell or null. The
    levels all match when every gap and every fidelity deficit is at most
    1e-10, a NaN fidelity failing.
    """
    jc = sq.build_jc(omega, gamma, n_max)
    match = sq.numeric_vs_analytic(jc)
    alg = sq.verify_susy_algebra(jc)
    keys = ("n", "branch", "E_analytic", "E_numeric", "gap", "concurrence")
    rows = []
    for cells in zip(*(getattr(match, key).tolist() for key in keys)):
        row = dict(zip(keys, cells))
        if gamma == 0.0 and row["n"] > 0:
            row["concurrence"] = None
        rows.append(row)
    levels = reference_table({"omega": omega, "gamma": gamma, "n_max": n_max}, keys, rows)
    algebra = {
        "omega": omega, "gamma": gamma, "n_max": n_max,
        "guard_n_max": n_max - 2,
        "identities": dataclasses.asdict(alg),
        "eigenstate_label_check": {
            "implemented_upper_label_n_minus_1": match.label_residual_implemented,
            "alternative_upper_label_n_plus_1": match.label_residual_alternative,
        },
        "match_summary": {
            "max_gap": match.max_gap,
            "min_fidelity": match.min_fidelity,
            "min_excited_concurrence": match.min_excited_concurrence,
            "degenerate": match.degenerate,
            "all_matched": bool(np.all(match.gap <= 1e-10)
                                and np.all(1.0 - match.fidelity <= 1e-10)),
        },
    }
    return {
        "jc_levels.csv": levels["csv"],
        "jc_levels.json": levels["json"],
        "jc_algebra.json": json.dumps(algebra, indent=2, allow_nan=False) + "\n",
    }


class TestJCCommand:
    @pytest.mark.parametrize("n_max", (16, 64, 512))
    @pytest.mark.parametrize("gamma", (0.1, 0.0, 3.0, 1e-17))
    def test_reports_match_row_by_row_writer(self, tmp_path, gamma, n_max):
        params = {"omega": 1.0, "gamma": gamma, "n_max": n_max}
        cfg = write_config(tmp_path, {"command": "jc", "jc_params": params})
        expected = reference_jc_reports(**params)
        for fmt in ("csv", "json"):
            out = tmp_path / fmt
            assert cli.main(["--config", cfg, "--out", str(out), "--format", fmt]) == 0
            for name in (f"jc_levels.{fmt}", "jc_algebra.json"):
                assert (out / name).read_bytes() == expected[name].encode(), name

    def test_absolute_gap_tolerance_verdict(self, tmp_path, capsys):
        # omega 1e4 puts E near 5e5, where one or two ulps exceed the
        # absolute GAP_TOL of 1e-10
        cfg = write_config(tmp_path, {
            "command": "jc",
            "jc_params": {"omega": 1e4, "gamma": 0.1, "n_max": 64},
        })
        assert cli.main(["--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "physics violation: gap[n=48,branch=-1] = 1.1641532182693481e-10 "
            "exceeds 1e-10 (and 10 more)\n")

    def test_report_memory(self, tmp_path, traced_peak):
        # At its peak the JSON writer holds the report text T twice, as the
        # row strings and as their join, plus a string header and a list
        # slot per row (57 B, under a third of a 187-byte row). Besides, the
        # match keeps its seven columns C, and the bands of the system and
        # the match's temporaries come to about one more C. Hence 3 T + 2 C;
        # one frozen object per row would add about 2 MB here
        n_max = 4096
        rows = 1 + 2 * (n_max - 2)
        cfg = {"command": "jc", "jc_params": {"omega": 1.0, "gamma": 0.1, "n_max": n_max}}
        assert cli.run_jc(cfg, str(tmp_path), "json") == 0
        text = (tmp_path / "jc_levels.json").stat().st_size
        columns = 7 * rows * 8
        assert traced_peak(lambda: cli.run_jc(cfg, str(tmp_path), "json")) < 3 * text + 2 * columns

    def test_levels_and_algebra_reports(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "jc",
            "jc_params": {"omega": 1.0, "gamma": 0.1, "n_max": 16},
        })
        rc = cli.main(["--config", cfg, "--out", str(tmp_path), "--format", "csv"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "jc_levels.csv")
        assert header == ["n", "branch", "E_analytic", "E_numeric", "gap",
                          "concurrence"]
        assert len(rows) == 1 + 2 * 14  # ground + doublets up to the guard
        assert max(float(r[4]) for r in rows) <= 1e-10
        alg = json.loads((tmp_path / "jc_algebra.json").read_text())
        assert alg["guard_n_max"] == 14
        idn = alg["identities"]
        for name in ("q1_sq_minus_q2_sq", "anti_q1_q2", "comm_q_h0_guarded",
                      "anti_sz_q"):
            assert idn[name] <= 1e-12
        assert alg["match_summary"]["all_matched"] is True
        labels = alg["eigenstate_label_check"]
        assert labels["implemented_upper_label_n_minus_1"] <= 1e-12
        assert labels["alternative_upper_label_n_plus_1"] > 1.0

    def test_many_violations_one_line(self, tmp_path, capsys):
        # finite but huge couplings: several levels miss the absolute gap
        # tolerance, and the verdict is still a single line
        cfg = write_config(tmp_path, {
            "command": "jc",
            "jc_params": {"omega": 1e200, "gamma": 1e200, "n_max": 8},
        })
        rc = cli.main(["--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("physics violation: gap[n=")
        assert "more)" in err


class TestVerifyCommand:
    def test_clean_superpotential_passes(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "verify",
            "superpotential": {"name": "harmonic"},
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 201},
            "levels": 6,
        })
        rc = cli.main(["--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["passed"] is True
        assert len(payload["checks"]) == 11
        assert all(c["passed"] for c in payload["checks"])
        assert all(c["value"] <= c["bound"] for c in payload["checks"])

    def test_wall_bound_superpotential_fails_honestly(
            self, tmp_path, capsys, monkeypatch):
        # tanh's kernel vector does not vanish at the box edge, yet every
        # physics check is green; a bound no value can meet forces the red
        # path, which must still write the report and name the first failed
        # check on one stderr line
        monkeypatch.setattr(checks, "MATRIX_SQ_TOL", -1.0)
        cfg = write_config(tmp_path, {
            "command": "verify",
            "superpotential": {"name": "tanh"},
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 201},
            "levels": 6,
        })
        rc = cli.main(["--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["passed"] is False
        failed = {c["name"] for c in payload["checks"] if not c["passed"]}
        assert failed == {"q1_squared_vs_hamiltonian", "q2_squared_vs_hamiltonian"}
        (q1,) = [c for c in payload["checks"] if c["name"] == "q1_squared_vs_hamiltonian"]
        assert capsys.readouterr().err == (
            f"physics violation: q1_squared_vs_hamiltonian = {q1['value']!r} "
            "exceeds -1.0 (and 1 more)\n")

    @pytest.mark.parametrize("name", W_NAMES)
    def test_intertwining_values_equal_the_per_level_calls(self, tmp_path, name,
                                                           residual_per_state):
        # 20 levels at 1001 points: blocks of 6, 6, 6 and 2; each check is the
        # largest of its per-level values, each from the 1-D calls alone, its
        # norms by numpy's pairwise sum of squares
        levels, grid = 20, sq.make_grid(-10.0, 10.0, 1001)
        payload = {"command": "verify", "superpotential": {"name": name},
                   "grid": cli._grid_payload(grid), "levels": levels}
        cli.main(["--config", write_config(tmp_path, payload), "--out", str(tmp_path)])
        checks = {c["name"]: c["value"]
                  for c in json.loads((tmp_path / "verify.json").read_text())["checks"]}

        system = sq.build_susy_system(sq.get_superpotential(name), grid)
        plus, minus = sq.solve_partners(system.H_plus, system.H_minus, levels)
        plus, minus = sq.eigenstates(plus, grid), sq.eigenstates(minus, grid)
        maps, energies, residuals = [0.0], [0.0], [0.0]
        for i in range(1, levels + 1):
            pp, mm = plus[i - 1], minus[i]
            mapped = sq.intertwine_down(system, pp)
            gap = sq.align_phase(mapped, mm.state).amplitudes - mm.state.amplitudes
            image = system.B @ mm.state.amplitudes
            maps.append(math.sqrt(grid.dx) * float(np.sqrt(np.sum(gap * gap))))
            energies.append(abs(grid.dx * float(np.sqrt(np.sum(image * image))) ** 2
                                - mm.energy))
            up = sq.on_nodes(pp.state, grid)
            residuals += [residual_per_state(system, st, q, family) for family, _, q, st
                          in sq.supercharge_eigenstates(system, pp.energy, up, mapped)]
        assert checks["intertwine_map_residual"] == max(maps)
        assert checks["intertwine_energy_deviation"] == max(energies)
        assert checks["supercharge_eigenstate_residual"] == max(residuals)

    # dx = 0.2: the H- mutant below lifts the zero mode by about 1e-12 / dx^2,
    # which stays under EPS0 (at 201 points it reaches 1.00005e-10 and
    # zero_mode_present fails too)
    MUTANT_GRID = {"x_min": -10.0, "x_max": 10.0, "n_points": 101}

    def failed_checks(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "verify",
            "superpotential": {"name": "harmonic"},
            "grid": self.MUTANT_GRID,
            "levels": 6,
        })
        rc = cli.main(["--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        return {c["name"]: c["value"] for c in checks if not c["passed"]}

    def test_perturbed_minus_off_diagonal_fails_exactly_the_squares(
            self, tmp_path, monkeypatch):
        # each H- off-diagonal entry is the single product d_i u_i in Q1^2
        # and Q2^2, so both squares read the largest change of an entry
        H = sq.build_susy_system(sq.get_superpotential("harmonic"),
                                 sq.make_grid(*self.MUTANT_GRID.values())).H_minus
        shift = float(np.max(np.abs(H.off * (1.0 + 1e-12) - H.off)))
        mutate_minus(monkeypatch, lambda H: sq.Tridiagonal(H.diag, H.off * (1.0 + 1e-12)))
        failed = self.failed_checks(tmp_path)
        assert failed == {"q1_squared_vs_hamiltonian": shift,
                          "q2_squared_vs_hamiltonian": shift}

    def test_nonzero_q1_diagonal_fails_every_identity(self, tmp_path, monkeypatch):
        # Q1 = [[0, B], [B+, 0]] with a diagonal of 1e-6 max|B|: the squares
        # gain its square and its products with the bands, R = sz Q1 no
        # longer meets Q1 in {Q1, R}, and {sz, Q1} = 2 sz diag(Q1)
        golub_kahan = operators.golub_kahan

        def mutant(B):
            Q = golub_kahan(B)
            return sq.Tridiagonal(np.full(Q.diag.size, 1e-6 * np.max(np.abs(Q.off))), Q.off)
        monkeypatch.setattr(operators, "golub_kahan", mutant)
        assert set(self.failed_checks(tmp_path)) == set(IDENTITY_CHECKS)

    def test_constant_sz_fails_all_but_the_q1_square(self, tmp_path, monkeypatch):
        # sz = +1 on every position instead of alternating: R = Q1, so
        # Q2^2 = -R^2 is -Q1^2, {Q1, R} is 2 Q1^2 and {sz, Q1} is 2 Q1, while
        # Q1^2 is untouched
        def mutant(Q1):
            q1 = operators.band_rows(Q1)
            sz = np.zeros_like(q1)
            sz[1] = 1.0
            R = sz[1] * q1
            yield operators.band_product(q1, q1)
            yield operators.band_product(R, R)
            yield operators.band_commutator(q1, R, anti=True)
            yield operators.band_commutator(sz, q1, anti=True)
        monkeypatch.setattr(operators, "supercharge_products", mutant)
        assert set(self.failed_checks(tmp_path)) == set(IDENTITY_CHECKS) - {
            "q1_squared_vs_hamiltonian"}

    @pytest.mark.parametrize("phases", ((1j, -1j), (-1j, -1j)),
                             ids=("sign_flipped", "minus_i_on_both_blocks"))
    def test_mutated_q2_fails_the_eigenstate_residual(self, tmp_path, monkeypatch, phases,
                                                      blockwise_supercharge, blockwise_residual):
        # the residuals verify calls, with Q2 = (-i B phi_down, +i B+ phi_up)
        # replaced by the mutant that puts `phases` on the two blocks of Q1;
        # verify passes the Q1 + states of a block of levels. Each level's
        # four states (the down half times 1, -1, i or -i, eigenvalue
        # sign * sqrt(E)) are formed and taken one at a time, and the largest
        # of the four is the level's
        def apply(system, state, which):
            if which != "q2":
                return blockwise_supercharge(system, state, which)
            q1 = blockwise_supercharge(system, state, "q1")
            return sq.SpinorState(phases[0] * q1.up, phases[1] * q1.down, state.weight)

        def residuals(system, energies, state):
            return np.max([np.array([
                blockwise_residual(system, sq.SpinorState(up, phase * down, state.weight),
                                   sign * q, which, apply=apply)
                for up, down, q in zip(state.up, state.down, np.sqrt(energies))])
                for which, sign, phase in (("q1", +1, 1), ("q1", -1, -1),
                                           ("q2", +1, 1j), ("q2", -1, -1j))], axis=0)

        monkeypatch.setattr(entanglement, "supercharge_residuals", residuals)
        assert "supercharge_eigenstate_residual" in self.failed_checks(tmp_path)


class TestNaNFailsItsCheck:
    """A NaN value fails its check: the largest of a check's values keeps a NaN."""

    GRID = {"x_min": -10.0, "x_max": 10.0, "n_points": 201}

    @staticmethod
    def poison_residual(monkeypatch):
        # the residual of the first level of the first block is NaN, the
        # rest as computed
        residuals = entanglement.supercharge_residuals

        def poisoned(*args):
            out = residuals(*args)
            if not poisoned.done:
                out[0] = np.nan
                poisoned.done = True
            return out
        poisoned.done = False
        monkeypatch.setattr(entanglement, "supercharge_residuals", poisoned)

    @staticmethod
    def poison_deviation(monkeypatch, column):
        # one per-level value of verify's first block (column 0: the
        # aligned map residual, 1: the energy deviation) is NaN
        deviations = checks._intertwine_deviations

        def poisoned(*args):
            out = deviations(*args)
            out[column][0] = math.nan
            return out
        monkeypatch.setattr(checks, "_intertwine_deviations", poisoned)

    def test_supercharge_residual_row(self, tmp_path, monkeypatch, capsys):
        self.poison_residual(monkeypatch)
        payload = {"command": "supercharge", "superpotential": {"name": "harmonic"},
                   "grid": self.GRID, "levels": 6}
        assert cli.main(["--config", write_config(tmp_path, payload),
                         "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "physics violation: supercharge_eigenstate_residual = nan exceeds 1e-08\n")
        _, rows = read_csv(tmp_path / "supercharge.csv")
        assert [r[4] for r in rows].count("nan") == 4  # the level's four rows

    @pytest.mark.parametrize("poison, name", (
        ("map", "intertwine_map_residual"),
        ("energy", "intertwine_energy_deviation"),
        ("residual", "supercharge_eigenstate_residual"),
    ))
    def test_verify_value(self, tmp_path, monkeypatch, capsys, poison, name):
        if poison == "residual":
            self.poison_residual(monkeypatch)
        else:
            self.poison_deviation(monkeypatch, ("map", "energy").index(poison))
        payload = {"command": "verify", "superpotential": {"name": "harmonic"},
                   "grid": self.GRID, "levels": 6}
        assert cli.main(["--config", write_config(tmp_path, payload),
                         "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"physics violation: {name} = nan exceeds 1e-08\n"
        report = json.loads((tmp_path / "verify.json").read_text())
        failed = [c for c in report["checks"] if not c["passed"]]
        # JSON has no NaN: the value is written as null
        assert failed == [{"name": name, "value": None, "bound": 1e-08, "passed": False}]
        assert report["passed"] is False


def harmonic_config(command, n_points, scale=1.0, half_width=10.0, levels=6):
    return {
        "command": command,
        "superpotential": {"name": "harmonic", "params": {"scale": scale}},
        "grid": {"x_min": -half_width, "x_max": half_width, "n_points": n_points},
        "levels": levels,
    }


class TestPairingWindows:
    """H- is solved inside the pairing windows of H+, blind only on failure."""

    GRID = sq.make_grid(-10.0, 10.0, 1001)

    @staticmethod
    def spy(monkeypatch, owner, name):
        """Calls of owner.name as (object, positional arguments...), results unchanged."""
        calls = []
        method = getattr(owner, name)

        def spy(obj, *args, **kwargs):
            calls.append((obj, *args))
            return method(obj, *args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
        return calls

    # the sides whose eigenstates a command reads -> the commands that read them
    READERS = {(): ("spectrum",), ("plus",): ("supercharge",),
               ("plus", "minus"): ("entangle", "verify")}

    @pytest.mark.parametrize("states", tuple(READERS))
    @pytest.mark.parametrize("name", W_NAMES)
    def test_blind_minus_solve_skipped_when_pairing_holds(self, tmp_path, monkeypatch,
                                                          name, states):
        for command in self.READERS[states]:
            # what the command's own build and solves returned, not the
            # solve_plus inside solve_partners
            returned, active = {}, []

            def recording(fn, call):
                def spy(*args):
                    nested = bool(active)
                    active.append(fn)
                    try:
                        result = call(*args)
                    finally:
                        active.pop()
                    if not nested:
                        returned.setdefault(fn, result)
                    return result
                return spy
            monkeypatch.setattr(cli, "_build_system", recording("_build_system",
                                                                 cli._build_system))
            for fn in ("solve_partners", "solve_plus"):  # checks calls spectral's
                monkeypatch.setattr(spectral, fn, recording(fn, getattr(spectral, fn)))
            calls = self.spy(monkeypatch, sq.Tridiagonal, "eigh")
            stein = self.spy(monkeypatch, sq.Bisection, "vectors")
            payload = {"command": command, "superpotential": {"name": name},
                       "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 1001},
                       "level" if command == "entangle" else "levels": 6}
            cli.main(["--config", write_config(tmp_path, payload), "--out", str(tmp_path)])
            monkeypatch.undo()
            system = returned["_build_system"]
            # supercharge solves H+ alone; the others pair both sides
            assert ("solve_plus" in returned) is (command == "supercharge"), command
            assert ("solve_partners" in returned) is (command != "supercharge"), command
            plus, minus = returned.get("solve_partners", (returned.get("solve_plus"), None))
            # the one blind solve is H+'s; H- only goes through its windows.
            # spectrum and verify also bisect H-'s top level for its norm
            n = self.GRID.n_points
            norm = [(system.H_minus, n - 1, n - 1)] if command in ("spectrum", "verify") else []
            assert calls == [(system.H_plus, 0, 5), *norm], command
            # inverse iteration runs once on each side whose eigenstates are read
            sides = {"plus": plus, "minus": minus}
            assert stein == [(sides[side],) for side in states], command

    @pytest.mark.parametrize("name", W_NAMES)
    def test_supercharge_bisects_minus_only_for_counts(self, tmp_path, monkeypatch, name):
        # supercharge reads no H- level and solves H+ alone: one bisection, of
        # H+ at machine width, and one inverse iteration, on it; verify counts
        # H- below the top window (tol = inf), bisects it in the windows to
        # machine width and bisects its top level for the norm (tol = 0)
        for command, minus_tols in (("supercharge", []), ("verify", [np.inf, 1e-300, 0.0])):
            made = []
            init = sq.Bisection.__init__

            def spy(solved, T, selections, tol, _init=init):
                made.append((solved, T, tol))
                _init(solved, T, selections, tol)
            monkeypatch.setattr(sq.Bisection, "__init__", spy)
            stein = self.spy(monkeypatch, sq.Bisection, "vectors")
            payload = {"command": command, "superpotential": {"name": name},
                       "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 1001}, "levels": 6}
            cli.main(["--config", write_config(tmp_path, payload), "--out", str(tmp_path)])
            monkeypatch.undo()
            (plus, H_plus, plus_tol), *minus = made
            assert plus_tol == 1e-300
            assert all(T is not H_plus for _, T, _ in minus)
            assert [tol for *_, tol in minus] == minus_tols, command
            if command == "supercharge":
                assert stein == [(plus,)]

    @pytest.mark.parametrize("name", W_NAMES)
    def test_commands_form_only_the_levels_they_read(self, tmp_path, monkeypatch, name):
        # supercharge and verify read every H+ level and levels 1.. of H-,
        # entangle its one level a side (H+ level 5 and H- level 6 for report
        # level 6): none asks for H-'s kernel vector. At 1001 points level 1
        # of H- lies above the gap threshold from level 0 for every bundled
        # W, so no gap group takes level 0 along: stein forms exactly the
        # levels read
        vectors, stein = sq.Bisection.vectors, operators._Lapack.stein
        for command, asked in (("supercharge", [slice(None)]),
                               ("verify", [slice(None), slice(1, None)]),
                               ("entangle", [slice(5, 6), slice(6, 7)])):
            levels, formed = [], []

            def spy(solved, levels=slice(None), _levels=levels):
                _levels.append(levels)
                return vectors(solved, levels=levels)

            def recording(lapack, isplit, w, iblock, z, groups, _formed=formed):
                _formed.append(sum(hi - lo for lo, hi in groups))
                return stein(lapack, isplit, w, iblock, z, groups)

            monkeypatch.setattr(sq.Bisection, "vectors", spy)
            monkeypatch.setattr(operators._Lapack, "stein", recording)
            payload = {"command": command, "superpotential": {"name": name},
                       "grid": cli._grid_payload(self.GRID),
                       "level" if command == "entangle" else "levels": 6}
            assert cli.main(["--config", write_config(tmp_path, payload),
                             "--out", str(tmp_path)]) == 0
            monkeypatch.undo()
            assert levels == asked, command
            assert formed == [6 if level.stop is None else 1 for level in asked], command

    def test_supercharge_reads_no_minus_level(self, tmp_path, monkeypatch):
        # every H- level 1e-9 up, which no window holds: the pairing commands
        # fail their pairing check, while supercharge writes the same bytes
        # and exit code as on the true H-
        payload = {"command": "supercharge", "superpotential": {"name": "harmonic"},
                   "grid": cli._grid_payload(self.GRID), "levels": 6}
        runs = []
        for mutated in (False, True):
            if mutated:
                mutate_minus(monkeypatch, lambda H: sq.Tridiagonal(H.diag + 1e-9, H.off))
            out = tmp_path / f"mutated={mutated}"
            out.mkdir()
            for fmt in ("csv", "json"):
                rc = cli.main(["--config", write_config(tmp_path, payload), "--out", str(out),
                               "--format", fmt])
                runs.append((rc, (out / f"supercharge.{fmt}").read_bytes()))
        assert runs[:2] == runs[2:]
        assert [rc for rc, _ in runs] == [0] * 4
        pairing = checks.spectrum(
            cli.build_susy_system(sq.get_superpotential("harmonic"), self.GRID), 6)[3][0]
        assert pairing.name == "pairing_max_gap" and pairing.passed is False

    def test_shifted_levels_empty_the_windows(self, monkeypatch):
        # every H- level 1e-9 up: no window holds its level, so H- is
        # bisected blind, and every pair is 1e-9 apart, which spectrum's
        # pairing check fails
        mutate_minus(monkeypatch, lambda H: sq.Tridiagonal(H.diag + 1e-9, H.off))
        calls = self.spy(monkeypatch, sq.Tridiagonal, "eigh")
        W = sq.get_superpotential("harmonic")
        system = cli.build_susy_system(W, self.GRID)
        _, minus = sq.solve_partners(system.H_plus, system.H_minus, 6)
        assert [(lo, hi) for H, lo, hi in calls] == [(0, 5), (0, 6)]  # H+, then H- blind
        monkeypatch.undo()
        assert minus.values.tolist() == system.H_minus.eigh(0, 6).values.tolist()
        pairing = checks.spectrum(system, 6)[3][0]
        assert pairing.name == "pairing_max_gap" and pairing.passed is False
        assert pairing.value == pytest.approx(1e-9, rel=1e-5)

    def test_stray_level_between_windows_fails_the_count(self, monkeypatch):
        # one decoupled H- level halfway between the 3rd and 4th H+ levels:
        # every window still holds exactly one level, only the count sees it,
        # and the blind solve puts the stray level in H+ level 3's partner
        # slot, one level off from there on
        W = sq.get_superpotential("harmonic")
        plus = cli.build_susy_system(W, self.GRID).H_plus.eigh(0, 5).values
        stray = float(plus[2] + plus[3]) / 2.0
        mutate_minus(monkeypatch, lambda H: sq.Tridiagonal(np.append(H.diag, stray),
                                                            np.append(H.off, 0.0)))
        system = cli.build_susy_system(W, self.GRID)
        found = system.H_minus.eigh_windows(
            [(-np.inf, sq.EPS0)] + [(e - spectral.PAIR_TOL, e + spectral.PAIR_TOL) for e in plus])
        assert found.counts == (1,) * 7
        found_plus, minus = sq.solve_partners(system.H_plus, system.H_minus, 6)
        assert minus.counts == (7,)  # one index selection: the blind solve
        assert minus.values[4] == stray
        # H- has a node more than the grid, so no zero mode is read: the
        # pairing check alone
        pairing = checks._pairing(found_plus, minus)
        assert pairing.name == "pairing_max_gap" and pairing.passed is False
        # the largest gap is between neighbouring levels, about 1 apart
        gaps = [abs(float(plus[3]) - stray), *np.diff(plus[3:]).tolist()]
        assert pairing.value == pytest.approx(max(gaps), abs=1e-9)


class TestBorderlineVerdicts:
    """Exit codes and failing checks of configs at the edge of the solver's range."""

    def run(self, tmp_path, capsys, payload):
        rc = cli.main(["--config", write_config(tmp_path, payload), "--out", str(tmp_path)])
        return rc, capsys.readouterr().err

    def failed_checks(self, tmp_path):
        payload = json.loads((tmp_path / "verify.json").read_text())
        return {c["name"] for c in payload["checks"] if not c["passed"]}

    def test_off_diagonal_squares_beyond_range_lose_pairing(self, tmp_path, capsys):
        # levels 1.. still pair, but H-'s level 0, the zero mode, is lifted
        # to about 100
        rc, err = self.run(tmp_path, capsys, harmonic_config("spectrum", 201, scale=1e153))
        assert rc == 1
        assert err.startswith("physics violation: zero_mode_present = ")
        assert err.endswith(" exceeds 1e-10\n")
        assert len(err.splitlines()) == 1

    def test_flat_superpotential_on_wide_box_has_many_zero_modes(self, tmp_path, capsys):
        # level 0 of H+ lies below EPS0: the pairing stops at a second zero mode
        rc, err = self.run(tmp_path, capsys, harmonic_config(
            "spectrum", 201, scale=2.0 ** -40, half_width=10.0 * 2 ** 20))
        assert rc == 1
        assert err.startswith("physics violation: level ")
        assert err.endswith(" of H+ is below 1e-10: a second zero mode\n")
        assert len(err.splitlines()) == 1

    def test_fine_grid_zero_mode_below_minus_eps0(self, tmp_path, capsys):
        rc, err = self.run(tmp_path, capsys, harmonic_config("verify", 32001))
        assert rc == 1
        assert self.failed_checks(tmp_path) == {"zero_mode_present"}
        assert err.startswith("physics violation: zero_mode_present = ")
        assert err.endswith(" exceeds 1e-10\n")

    @pytest.mark.parametrize("scale, half_width, rc", (
        (2.0 ** 16, 10.0 * 2 ** -8, 1),  # |E0| = 2.98e-8 on the bisection floor
        (2.0 ** -16, 10.0 * 2 ** 8, 0),
    ))
    def test_spectrum_and_verify_agree_on_the_zero_mode(self, tmp_path, capsys,
                                                        scale, half_width, rc):
        spectrum_rc, err = self.run(tmp_path, capsys, {**harmonic_config(
            "spectrum", 2001, scale=scale, half_width=half_width),
            "output": {"format": "json"}})
        verify_rc, _ = self.run(tmp_path, capsys, harmonic_config(
            "verify", 2001, scale=scale, half_width=half_width))
        assert (spectrum_rc, verify_rc) == (rc, rc)
        e0 = json.loads((tmp_path / "spectrum.json").read_text())["zero_mode_energy"]
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        (zero,) = [c for c in checks if c["name"] == "zero_mode_present"]
        assert zero["value"] == abs(e0)
        assert zero["passed"] is (rc == 0)
        if rc:
            assert err == (f"physics violation: zero_mode_present = {zero['value']!r} "
                           "exceeds 1e-10\n")

    def test_steep_narrow_box_fails_energy_deviation(self, tmp_path, capsys):
        rc, err = self.run(tmp_path, capsys, harmonic_config(
            "verify", 2001, scale=2.0 ** 16, half_width=10.0 * 2 ** -8))
        assert rc == 1
        assert self.failed_checks(tmp_path) == {"zero_mode_present",
                                                "intertwine_energy_deviation"}
        assert err.startswith("physics violation: zero_mode_present = ")
        assert err.endswith(" exceeds 1e-10 (and 1 more)\n")

    def test_one_ulp_gap_fails_only_the_pairing_commands(self, tmp_path, capsys):
        # a steep W on a narrow box: from 2^21 = 2.1e6 on an ulp is
        # 4.657e-10, above PAIR_TOL, so H+ level 1 (report level 2) and its
        # H- partner, one ulp apart, fail the pairing check of spectrum,
        # entangle and verify, whose largest gap is two ulps of 4.2e6. Each
        # writes its reports and exits 1 on one line. supercharge reads no
        # H- level
        box = {"scale": 2.0 ** 20, "half_width": 10.0 * 2 ** -10}
        line = "physics violation: pairing_max_gap = 9.313225746154785e-10 exceeds 1e-10"
        for command, reports, more in (("spectrum", ("spectrum.csv", "zero_mode.csv"), 1),
                                       ("entangle", ("entangle.csv",), 0),
                                       ("verify", ("verify.json",), 2)):
            out = tmp_path / command
            payload = harmonic_config(command, 2001, **box)
            if command == "entangle":
                payload["level"] = payload.pop("levels")
            rc = cli.main(["--config", write_config(tmp_path, payload), "--out", str(out)])
            ending = f" (and {more} more)" if more else ""
            assert (rc, capsys.readouterr().err) == (1, line + ending + "\n"), command
            assert sorted(os.listdir(out)) == list(reports), command
        # verify records the pairing failure with its other failed checks,
        # the zero mode and the energy deviation of this box
        found = json.loads((tmp_path / "verify" / "verify.json").read_text())["checks"]
        assert {c["name"]: c["value"] for c in found if not c["passed"]} == pytest.approx({
            "pairing_max_gap": 9.313225746154785e-10, "zero_mode_present": 4.77e-7,
            "intertwine_energy_deviation": 8.68e-7}, rel=1e-3)
        assert self.run(tmp_path, capsys, {**harmonic_config("supercharge", 2001, **box),
                                           "output": {"format": "json"}}) == (0, "")
        rows = json.loads((tmp_path / "supercharge.json").read_text())["rows"]
        assert len(rows) == 4 * 6
        assert max(row["residual"] for row in rows) <= 1e-8


@pytest.mark.parametrize("command", ("spectrum", "supercharge", "entangle", "verify"))
def test_reversed_superpotential_ends_in_one_violation_line(tmp_path, capsys, command):
    # W = -x: H+ has a second level below EPS0, which pairing stops at
    # before any intertwining or supercharge state divides by its sqrt(E);
    # an exception out of cli.main would be a traceback
    payload = harmonic_config(command, 201, scale=-1.0)
    if command == "entangle":
        payload["level"] = payload.pop("levels")
    rc = cli.main(["--config", write_config(tmp_path, payload), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("physics violation: ")
    assert err.endswith(" of H+ is below 1e-10: a second zero mode\n")


GRID_COMMANDS = ("spectrum", "supercharge", "entangle", "verify")
SCALES = st.one_of(st.just(0.0), st.builds(lambda sign, k: sign * 2.0 ** k,
                                           st.sampled_from((-1.0, 1.0)), st.integers(-60, 520)))
HALF_WIDTHS = st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)


@st.composite
def grid_configs(draw, commands=GRID_COMMANDS, points=(3, 401), split=False):
    """A config of a grid command: any W, an asymmetric box, 3..401 points.

    With `split`, levels x (points - 1) reaches operators._SPLIT_WORK, so
    the H+ solve, its levels 0..levels - 1 on the n - 1 cells, is bisected
    as two halves; the levels stay within twice the least that splits.
    """
    command = draw(st.sampled_from(commands))
    name = draw(st.sampled_from(W_NAMES))
    w = {"name": name}
    if name == "harmonic":
        w["params"] = {"scale": draw(SCALES)}
    elif name == "shifted_cubic":
        w["params"] = {"a": draw(st.floats(-1e300, 1e300))}
    n_points = draw(st.integers(*points))
    least = -(-operators._SPLIT_WORK // (n_points - 1)) if split else 1
    most = min(2 * least, n_points // 10 - 1) if split else n_points // 10 - 1
    levels = draw(st.integers(least, max(1, most)))
    return {"command": command, "superpotential": w,
            "grid": {"x_min": -draw(HALF_WIDTHS), "x_max": draw(HALF_WIDTHS),
                     "n_points": n_points},
            "level" if command == "entangle" else "levels": levels}


def assert_one_line_ending(tmp_path, payload):
    """The run of `payload` ends in exit 0, 1 or 2: silent on 0, one stderr
    line otherwise, no warning and no temp file left behind. Returns the
    exit code and the stderr text."""
    outdir = tempfile.mkdtemp(dir=tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = cli.main(["--config", write_config(tmp_path, payload), "--out", outdir])
    text, lines = err.getvalue(), err.getvalue().splitlines()
    assert rc in (0, 1, 2)
    if rc == 0:
        assert text == ""
    else:
        assert len(lines) == 1
    assert not caught
    assert "Warning" not in out.getvalue() + err.getvalue()
    assert not [f for f in os.listdir(outdir) if f.startswith(".susyqm-tmp-")]
    return rc, text


def test_nan_eigenvector_is_redone_not_a_traceback(tmp_path):
    # stein returns NaN for H-'s level 1 here; the shifted redo of
    # `Bisection.vectors` gives the state, and the run ends in exit 0
    payload = harmonic_config("entangle", 20, scale=2.0 ** 206)
    payload["grid"]["x_max"] = 1.0
    payload["level"] = payload.pop("levels") - 5
    assert assert_one_line_ending(tmp_path, payload) == (0, "")


def test_unpaired_supercharge_state_ends_on_its_norm(tmp_path):
    # bands near 1e260: H+ levels 0 and 1 bisect to 338, which pairs with no
    # H- level, and level 2 to 9.1e256; B_adj psi+ / sqrt(E) of a level read
    # is far from unit norm. supercharge reads no H- level, so the norm
    # check ends the run, before a residual of the state could overflow
    # into a warning
    payload = harmonic_config("supercharge", 53, scale=-2.0 ** 432, half_width=1.0, levels=3)
    rc, err = assert_one_line_ending(tmp_path, payload)
    assert rc == 1
    assert err.startswith("physics violation: spinor state is not normalized: ")


@given(payload=grid_configs())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_grid_commands_end_in_an_exit_code_and_one_line(tmp_path, payload):
    assert_one_line_ending(tmp_path, payload)


@pytest.mark.parametrize("command", GRID_COMMANDS)
@given(data=st.data())
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_split_solves_end_in_an_exit_code_and_one_line(tmp_path, command, data):
    # the property above stops at 401 points, where no solve is split; this
    # one draws 700 to 8001 points, the H+ solve split on its n - 1 rows
    payload = data.draw(grid_configs((command,), (700, 8001), split=True))
    levels = payload.get("levels", payload.get("level"))
    assert levels * (payload["grid"]["n_points"] - 1) >= operators._SPLIT_WORK
    assert_one_line_ending(tmp_path, payload)


@pytest.mark.parametrize("name", ("harmonic", "shifted_cubic"))
def test_reports_on_one_core_and_two_are_the_same_bytes(tmp_path, monkeypatch, name):
    # the H+ solve of 100 levels at 1001 points is split in two halves; the
    # cores decide only whether they run at once
    reports = {}
    for cores in (1, 2):
        monkeypatch.setattr(operators, "_CORES", cores)
        for command in ("spectrum", "supercharge", "verify"):
            out = tmp_path / f"{command}-{cores}"
            out.mkdir()
            payload = {"command": command, "superpotential": {"name": name},
                       "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 1001},
                       "levels": 99}
            rc = cli.main(["--config", write_config(tmp_path, payload), "--out", str(out)])
            reports[command, cores] = rc, {f.name: f.read_bytes() for f in out.iterdir()}
    for command in ("spectrum", "supercharge", "verify"):
        assert reports[command, 1] == reports[command, 2]
        assert reports[command, 1][0] == 0


@given(omega=st.floats(0.0, 1.7e308, exclude_min=True),
       gamma=st.one_of(st.just(0.0), st.floats(5e-324, 1e308)),
       n_max=st.integers(4, 256))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_jc_ends_in_an_exit_code_and_one_line(tmp_path, omega, gamma, n_max):
    assert_one_line_ending(tmp_path, {"command": "jc", "jc_params": {
        "omega": omega, "gamma": gamma, "n_max": n_max}})


# the JSON kind each field of a config takes; "object" for the nested blocks
FIELD_KINDS = {
    (): "object", ("command",): "string", ("superpotential",): "object",
    ("superpotential", "name"): "string", ("superpotential", "params"): "object",
    ("superpotential", "params", "a"): "number", ("grid",): "object",
    ("grid", "x_min"): "number", ("grid", "x_max"): "number",
    ("grid", "n_points"): "integer", ("levels",): "integer", ("level",): "integer",
    ("sweep",): "object", ("sweep", "c1_points"): "integer",
    ("sweep", "phase_points"): "integer", ("jc_params",): "object",
    ("jc_params", "omega"): "number", ("jc_params", "gamma"): "number",
    ("jc_params", "n_max"): "integer", ("output",): "object",
    ("output", "path"): "string", ("output", "format"): "string",
}
JSON_VALUES = (None, True, False, 0, 3, -7, 10 ** 400, 2.5, 3.0, -1e308, "", "csv", "x_min",
               [], [1, "a"], [[]], {}, {"name": "harmonic"})


def _accepts(kind, value):
    if kind == "object":
        return isinstance(value, dict)
    if kind == "string":
        return isinstance(value, str)
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (kind == "number" and isinstance(value, float))


def _valid_config(command):
    """A config of `command` that runs, every optional key present."""
    cfg = {"command": command, "output": {"path": "reports", "format": "json"}}
    if command == "jc":
        cfg["jc_params"] = {"omega": 1.0, "gamma": 0.1, "n_max": 8}
        return cfg
    cfg["superpotential"] = {"name": "shifted_cubic", "params": {"a": 0.5}}
    cfg["grid"] = {"x_min": -10.0, "x_max": 10.0, "n_points": 101}
    cfg["level" if command == "entangle" else "levels"] = 3
    if command == "entangle":
        cfg["sweep"] = {"c1_points": 3, "phase_points": 2}
    return cfg


def _paths(obj, path=()):
    """Every path into a config, the root included, parents before children."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, path + (key,))


def _replaced(cfg, path, value):
    if not path:
        return value
    return {**cfg, path[0]: _replaced(cfg[path[0]], path[1:], value)}


@st.composite
def malformed_configs(draw):
    """A valid config of any command with one field of a wrong JSON kind, or
    one unknown key added to one of its objects (root, superpotential,
    params, grid, sweep, jc_params or output)."""
    cfg = _valid_config(draw(st.sampled_from(tuple(cli.COMMANDS))))
    paths = list(_paths(cfg))
    if draw(st.booleans()):
        path = draw(st.sampled_from(paths))
        kind = FIELD_KINDS[path]
        value = draw(st.sampled_from([v for v in JSON_VALUES if not _accepts(kind, v)]))
        return _replaced(cfg, path, value)
    path = draw(st.sampled_from([p for p in paths if FIELD_KINDS[p] == "object"]))
    block = functools.reduce(lambda obj, key: obj[key], path, cfg)
    key = draw(st.text(min_size=1, max_size=12).filter(lambda k: k not in block))
    return _replaced(cfg, path, {**block, key: draw(st.sampled_from(JSON_VALUES))})


@given(payload=malformed_configs())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_configs_end_in_one_config_error_line(tmp_path, payload):
    rc, text = assert_one_line_ending(tmp_path, payload)
    assert rc == 2
    assert text.startswith("config error: ")


class TestConfigErrors:
    def run_expecting_config_error(self, tmp_path, capsys, payload, needle):
        cfg = write_config(tmp_path, payload)
        rc = cli.main(["--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert needle in err
        assert len(err.splitlines()) == 1

    def test_missing_field(self, tmp_path, capsys):
        payload = spectrum_config()
        del payload["grid"]
        self.run_expecting_config_error(tmp_path, capsys, payload, "grid")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        self.run_expecting_config_error(
            tmp_path, capsys, spectrum_config(extra=1), "extra")

    def test_unknown_superpotential(self, tmp_path, capsys):
        self.run_expecting_config_error(
            tmp_path, capsys,
            spectrum_config(superpotential={"name": "quartic"}), "quartic")

    def test_unknown_command(self, tmp_path, capsys):
        self.run_expecting_config_error(
            tmp_path, capsys, {"command": "explode"}, "command")

    @pytest.mark.parametrize("command", (["spectrum"], {"name": "spectrum"}))
    def test_command_of_wrong_type(self, tmp_path, capsys, command):
        self.run_expecting_config_error(
            tmp_path, capsys, {"command": command}, "config.command must be one of")

    @pytest.mark.parametrize("command, missing", (
        ("spectrum", "superpotential, grid, levels"),
        ("entangle", "superpotential, grid, level"),
        ("supercharge", "superpotential, grid, levels"),
        ("jc", "jc_params"),
        ("verify", "superpotential, grid, levels"),
    ))
    def test_missing_fields_listed_in_order(self, tmp_path, capsys, command, missing):
        self.run_expecting_config_error(
            tmp_path, capsys, {"command": command},
            f"missing required field(s) in config: {missing}")

    @pytest.mark.parametrize("c1_points, phase_points", (
        (10 ** 6, 10 ** 6), (cli.SWEEP_MAX_ROWS + 1, 1), (cli.SWEEP_MAX_ROWS // 8 + 1, 8),
    ))
    def test_sweep_above_row_cap(self, tmp_path, capsys, monkeypatch,
                                 c1_points, phase_points):
        # rejected while parsing: nothing is solved and no sweep is allocated
        def unreachable(*args):
            raise AssertionError("solved before the sweep size was checked")

        monkeypatch.setattr(cli, "build_susy_system", unreachable)
        rows = c1_points * phase_points
        self.run_expecting_config_error(tmp_path, capsys, {
            "command": "entangle", "superpotential": {"name": "harmonic"},
            "grid": dict(BOX), "level": 1,
            "sweep": {"c1_points": c1_points, "phase_points": phase_points},
        }, f"sweep.c1_points * sweep.phase_points = {rows} exceeds the cap of "
           f"{cli.SWEEP_MAX_ROWS} rows")
        assert not list(tmp_path.glob("entangle.*"))

    def test_sweep_row_cap_bounds_the_report(self):
        # the widest row: every value a 17-digit float with a 3-digit exponent
        row = dict.fromkeys(cli.SWEEP_COLUMNS, -2.2250738585072014e-308)
        one, two = (reference_table({}, cli.SWEEP_COLUMNS, [row] * k) for k in (1, 2))
        json_row, csv_row = (len(two[fmt]) - len(one[fmt]) for fmt in ("json", "csv"))
        assert (json_row, csv_row) == (488, 275)
        assert cli.SWEEP_MAX_ROWS * json_row <= 8 * 10 ** 6

    def test_levels_capped_by_grid(self, tmp_path, capsys):
        self.run_expecting_config_error(
            tmp_path, capsys, spectrum_config(levels=50), "levels")

    def test_boolean_not_a_number(self, tmp_path, capsys):
        bad = spectrum_config(grid={"x_min": True, "x_max": 10.0, "n_points": 401})
        self.run_expecting_config_error(tmp_path, capsys, bad, "x_min")

    @pytest.mark.parametrize("superpotential", (
        {"name": "harmonic", "params": {"scale": 1e200}},
        {"name": "shifted_cubic", "params": {"a": 1e308}},
    ))
    def test_overflowing_hamiltonian(self, tmp_path, capsys, superpotential):
        # W is finite on the grid, but H+- = (W - 1/dx)^2/2 + ... overflow
        self.run_expecting_config_error(
            tmp_path, capsys, spectrum_config(superpotential=superpotential),
            "overflow")

    @pytest.mark.parametrize("bounds", ((-1e308, 1e308), (-5e-324, 5e-324)))
    def test_unrepresentable_grid_spacing(self, tmp_path, capsys, bounds):
        # finite, ordered bounds whose dx = (x_max - x_min)/(n - 1) is inf or 0
        grid = {"x_min": bounds[0], "x_max": bounds[1], "n_points": 401}
        self.run_expecting_config_error(
            tmp_path, capsys, spectrum_config(grid=grid), "spacing")

    def test_jc_overflowing_hamiltonian(self, tmp_path, capsys):
        # omega (n + 1/2) overflows on the diagonal of H
        self.run_expecting_config_error(
            tmp_path, capsys,
            {"command": "jc", "jc_params": {"omega": 1e308, "gamma": 0.1, "n_max": 8}},
            "overflow")

    def test_jc_algebra_check_overflow(self, tmp_path, capsys):
        # H's bands are finite, but [N, H] in the algebra check overflowed
        # into NaN, which the JSON report could not hold
        self.run_expecting_config_error(
            tmp_path, capsys,
            {"command": "jc", "jc_params": {"omega": 1.0, "gamma": 2.5647331063962154e306,
                                            "n_max": 17}},
            "overflow")

    def test_jc_cutoff_too_small(self, tmp_path, capsys):
        self.run_expecting_config_error(
            tmp_path, capsys,
            {"command": "jc", "jc_params": {"omega": 1.0, "gamma": 0.1, "n_max": 3}},
            "n_max")

    def test_bad_output_format(self, tmp_path, capsys):
        self.run_expecting_config_error(
            tmp_path, capsys, spectrum_config(output={"format": "xml"}), "xml")

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json", encoding="utf-8")
        rc = cli.main(["--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, where", (
        (spectrum_config(grid={**BOX, "x_min": -10 ** 400}), "grid.x_min"),
        (spectrum_config(superpotential={"name": "harmonic", "params": {"scale": 10 ** 400}}),
         "superpotential.params.scale"),
        ({"command": "jc", "jc_params": {"omega": 10 ** 400, "gamma": 0.1, "n_max": 8}},
         "jc_params.omega"),
    ), ids=("x_min", "scale", "omega"))
    def test_integer_beyond_float_range(self, tmp_path, capsys, payload, where):
        self.run_expecting_config_error(tmp_path, capsys, payload, f"{where} must be finite")

    @pytest.mark.parametrize("payload, needle", (
        ({**spectrum_config(), "\x1e": 1}, "unknown key(s) in config: '\\x1e'"),
        (spectrum_config(grid={**BOX, "a\nb": 1}), "unknown key(s) in grid: 'a\\nb'"),
        (spectrum_config(superpotential={"name": "harmonic", "params": {"a\u2028b": 1.0}}),
         "bad parameter(s) for superpotential 'harmonic': 'a\\u2028b' is not a parameter name"),
    ), ids=("record_separator", "newline", "line_separator_in_params"))
    def test_keys_with_line_breaks_stay_on_one_line(self, tmp_path, capsys, payload, needle):
        # found by test_malformed_configs_end_in_one_config_error_line: the
        # keys were written unquoted, and their line breaks split the line
        self.run_expecting_config_error(tmp_path, capsys, payload, needle)

    @pytest.mark.parametrize("text", (
        b'{"command": "jc", "jc_params": {"omega": 1' + b"0" * 5000 + b"}}",
        b'{"command": "spectrum\xff"}',
        b"[" * 100000 + b"]" * 100000,
    ), ids=("integer_past_digit_limit", "not_utf8", "nesting_past_recursion_limit"))
    def test_unloadable_json(self, tmp_path, capsys, text):
        path = tmp_path / "broken.json"
        path.write_bytes(text)
        rc = cli.main(["--config", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"config error: config file {str(path)!r} is not valid JSON: ")
        assert len(err.splitlines()) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["--config", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_paths_holding_a_line_break_stay_on_one_line(self, tmp_path, capsys):
        # a config path that cannot be read or holds no JSON, and an output
        # directory where the report cannot be written, each holding a line
        # break: written unquoted, the path split the ending in two lines
        missing, broken = str(tmp_path / "no\nsuch.json"), tmp_path / "bad\n.json"
        broken.write_text("{", encoding="utf-8")
        outdir = tmp_path / "o\nut"
        (outdir / "spectrum.csv").mkdir(parents=True)
        report = os.path.join(str(outdir), "spectrum.csv")
        for argv, start in (
                ([missing], f"cannot read config file {missing!r}: "),
                ([str(broken)], f"config file {str(broken)!r} is not valid JSON: "),
                ([write_config(tmp_path, spectrum_config()), "--out", str(outdir)],
                 f"cannot write report {report!r}: ")):
            assert cli.main(["--config", *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: " + start)
            assert len(err.splitlines()) == 1 and err.endswith("\n")


class TestOutputResolution:
    def test_config_output_block_used_when_flags_absent(self, tmp_path):
        outdir = tmp_path / "fromconfig"
        cfg = write_config(tmp_path, spectrum_config(
            output={"path": str(outdir), "format": "json"}))
        rc = cli.main(["--config", cfg])
        assert rc == 0
        assert (outdir / "spectrum.json").exists()
        assert not (outdir / "spectrum.csv").exists()

    def test_flags_override_output_block(self, tmp_path):
        configured = tmp_path / "fromconfig"
        override = tmp_path / "fromflag"
        cfg = write_config(tmp_path, spectrum_config(
            output={"path": str(configured), "format": "json"}))
        rc = cli.main(["--config", cfg, "--out", str(override), "--format", "csv"])
        assert rc == 0
        assert (override / "spectrum.csv").exists()
        assert not configured.exists()


    @pytest.mark.parametrize("below", ("", "sub"), ids=("file", "below_file"))
    def test_output_directory_that_cannot_be_made(self, tmp_path, capsys, below):
        # --out naming a regular file (FileExistsError) or a path below one
        # (NotADirectoryError)
        blocker = tmp_path / "report"
        blocker.write_text("not a directory", encoding="utf-8")
        outdir = os.path.join(blocker, below) if below else str(blocker)
        rc = cli.main(["--config", write_config(tmp_path, spectrum_config()), "--out", outdir])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"config error: cannot create output directory {outdir!r}: ")
        assert len(err.splitlines()) == 1
        assert blocker.read_text(encoding="utf-8") == "not a directory"

    def test_report_that_cannot_be_written(self, tmp_path, capsys):
        # a directory where the report goes: os.replace cannot put the
        # finished temporary file there, which is then removed
        (tmp_path / "spectrum.csv").mkdir()
        rc = cli.main(["--config", write_config(tmp_path, spectrum_config()),
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        path = os.path.join(str(tmp_path), "spectrum.csv")
        assert err.startswith(f"config error: cannot write report {path!r}: ")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.glob(".susyqm-tmp-*"))

    @pytest.mark.parametrize("command", ("spectrum", "jc"))
    def test_system_too_large_to_allocate(self, tmp_path, capsys, monkeypatch, command):
        # an array the machine cannot hold ends in one line; the builders are
        # made to raise, since a real request of such an array would end as
        # the machine's overcommit policy decides
        def too_large(*args):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(cli, "build_susy_system", too_large)
        monkeypatch.setattr(cli, "build_jc", too_large)
        payload = (spectrum_config() if command == "spectrum" else
                   {"command": "jc", "jc_params": {"omega": 1.0, "gamma": 0.1, "n_max": 8}})
        rc = cli.main(["--config", write_config(tmp_path, payload), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 72.8 TiB for an array\n")

    @pytest.mark.parametrize("error", (OverflowError("math range error"),
                                       FloatingPointError("overflow encountered in multiply"),
                                       ValueError("array must not contain infs or NaNs")))
    def test_any_other_exception_ends_in_one_line(self, tmp_path, capsys, monkeypatch, error):
        # an exception of no type main names, such as numpy's, still ends in
        # one stderr line with exit 1, never a traceback
        def raising(*args):
            raise error

        monkeypatch.setitem(cli.COMMANDS, "spectrum", (raising, *cli.COMMANDS["spectrum"][1:]))
        rc = cli.main(["--config", write_config(tmp_path, spectrum_config()),
                       "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {type(error).__name__}: {error}\n"

    # the package's errors, numpy's LinAlgError and builtin errors, each
    # raised with a drawn message of one line: the line breaks
    # str.splitlines knows are left out of the messages
    RAISED = (OverflowError, FloatingPointError, ZeroDivisionError, ValueError, IndexError,
              KeyError, RuntimeError, MemoryError, np.linalg.LinAlgError, sq.ConfigError,
              sq.PhysicsViolationError, sq.SusyQMError)
    ONE_LINE = st.text(st.characters(blacklist_categories=("Cs",),
                                     blacklist_characters="\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"),
                       max_size=40)

    @given(error=st.sampled_from(RAISED), message=ONE_LINE)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_raised_errors_end_in_their_exit_code_and_one_line(self, tmp_path, capsys,
                                                               error, message):
        def raising(*args):
            raise error(message)

        cfg = write_config(tmp_path, spectrum_config())
        capsys.readouterr()
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(cli.COMMANDS, "spectrum", (raising, *cli.COMMANDS["spectrum"][1:]))
            rc = cli.main(["--config", cfg, "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == (2 if error is sq.ConfigError else 1)
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert "Traceback" not in out + err

    def test_empty_output_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spectrum_config(output={"path": ""}))
        rc = cli.main(["--config", cfg])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: cannot create output directory '': ")
        assert len(err.splitlines()) == 1


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, spectrum_config())
        first, second = tmp_path / "a", tmp_path / "b"
        assert cli.main(["--config", cfg, "--out", str(first)]) == 0
        assert cli.main(["--config", cfg, "--out", str(second)]) == 0
        for name in ("spectrum.csv", "zero_mode.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


def test_outputs_independent_of_blas_threads(tmp_path):
    # no report may depend on how BLAS splits its work
    jc = write_config(tmp_path, {
        "command": "jc",
        "jc_params": {"omega": 1.0, "gamma": 0.1, "n_max": 128},
    }, name="jc.json")
    # <psi+|psi-> != 0 for the broken parity, so R has an off-diagonal entry
    # and the QR of the two-mode reduction does real work
    entangle = write_config(tmp_path, {
        "command": "entangle",
        "superpotential": {"name": "shifted_cubic"},
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 2001},
        "level": 1,
    }, name="entangle_shifted_cubic.json")
    # 99 levels at 1001 points: the windowed H- solve at the levels cap
    deep = write_config(tmp_path, {
        "command": "spectrum",
        "superpotential": {"name": "shifted_cubic"},
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 1001},
        "levels": 99,
    }, name="spectrum_deep.json")
    # gamma = 0 writes null concurrence cells
    jc_degenerate = write_config(tmp_path, {
        "command": "jc",
        "jc_params": {"omega": 1.0, "gamma": 0.0, "n_max": 128},
        "output": {"format": "json"},
    }, name="jc_degenerate.json")
    # the spectrum and supercharge tables written as JSON
    spectrum_json, supercharge_json = (write_config(tmp_path, {
        "command": command,
        "superpotential": {"name": "tanh"},
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 1001},
        "levels": 5,
        "output": {"format": "json"},
    }, name=f"{command}_json.json") for command in ("spectrum", "supercharge"))
    configs = [str(CONFIGS / f"{name}.json")
               for name in ("spectrum", "entangle", "supercharge", "verify")] + [
        jc, jc_degenerate, entangle, deep, spectrum_json, supercharge_json]
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from susyqm import cli\n"
        "for cfg in sys.argv[2:]:\n"
        "    rc = cli.main(['--config', cfg, '--out', f'{sys.argv[1]}/{Path(cfg).stem}'])\n"
        "    assert rc == 0, (cfg, rc)\n"
    )
    # the package runs LAPACK from numpy's OpenBLAS; a run that has imported
    # scipy.linalg first, which loads a second OpenBLAS, must write the same bytes
    runs = {"1": ("1", script), "2": ("2", script),
            "scipy.linalg first": ("1", "import scipy.linalg\n" + script)}
    outputs = {}
    for name, (threads, code) in runs.items():
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        outdir = tmp_path / name.replace(" ", "_")
        run = subprocess.run([sys.executable, "-c", code, str(outdir), *configs],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outputs[name] = {p.relative_to(outdir): p.read_bytes()
                         for p in sorted(outdir.rglob("*")) if p.is_file()}
    assert len(outputs["1"]) == 15  # spectrum and jc write two files each
    assert outputs["1"] == outputs["2"]
    assert outputs["1"] == outputs["scipy.linalg first"]


def test_atomic_write_leaves_no_temp_file_when_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        cli._atomic_write(str(tmp_path / "report.csv"), "a,b\n")
    assert not list(tmp_path.glob(".susyqm-tmp-*"))
    assert not (tmp_path / "report.csv").exists()


def test_module_entry_point_help():
    out = subprocess.run([sys.executable, "-m", "susyqm.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    for flag in ("--config", "--out", "--format"):
        assert flag in out.stdout
