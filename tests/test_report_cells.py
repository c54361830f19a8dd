"""tools/report_cells.py: columns, ulps and moved cells, on made-up reports (no program runs)."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_cells.py"


@pytest.fixture(scope="module")
def report_cells():
    spec = importlib.util.spec_from_file_location("report_cells", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ordinal_counts_doubles_across_zero(report_cells):
    ordinal = report_cells.ordinal
    assert ordinal(0.0) == ordinal(-0.0) == 0
    assert ordinal(5e-324) == 1 and ordinal(-5e-324) == -1
    assert ordinal(math.nextafter(1.0, 2.0)) - ordinal(1.0) == 1
    assert ordinal(1.0) - ordinal(math.nextafter(1.0, 0.0)) == 1


def test_columns_drop_row_indices_and_name_checks(report_cells):
    report = {"grid": {"n_points": 5}, "rows": [{"x": 1.0}, {"x": 2.0}],
              "checks": [{"name": "gap", "value": 0.5}]}
    assert list(report_cells.cells(report)) == [
        ("grid.n_points", "grid.n_points", 5), ("rows.x", "rows[0].x", 1.0),
        ("rows.x", "rows[1].x", 2.0), ("checks[gap].name", "checks[0].name", "gap"),
        ("checks[gap].value", "checks[0].value", 0.5)]


def test_moved_columns_count_cells_and_the_largest_move(report_cells):
    parent = {"rows": [{"e": 1.0, "r": 1e-12, "s": "q1"}, {"e": 2.0, "r": 2e-12, "s": "q2"}]}
    change = {"rows": [{"e": 1.0, "r": 1.5e-12, "s": "q1"},
                       {"e": math.nextafter(2.0, 3.0), "r": 2e-12, "s": "q3"}]}
    moved = report_cells.moved_columns(parent, change)
    assert set(moved) == {"rows.e", "rows.r", "rows.s"}
    assert moved["rows.e"][:3] == [2, 1, 1]
    total, count, ulps, move, relative = moved["rows.r"]
    assert (total, count) == (2, 1) and ulps > 10 ** 14
    assert move == pytest.approx(5e-13) and relative == pytest.approx(1 / 3)
    assert moved["rows.s"] == [2, 1, None, None, None]  # a string moved: text
    assert report_cells.moved_columns(parent, parent) == {}


def test_compare_prints_moved_stderr_lines_and_counts_them(report_cells, tmp_path):
    # two runs with equal reports: the first keeps its ending and stderr, the
    # second keeps its exit code but moves its one-line reason; a report
    # only the change writes counts the run's reports as moved
    runs = {"parent": [("a", "exit 0", ""), ("b", "exit 1", "physics violation: old\n")],
            "change": [("a", "exit 0", ""), ("b", "exit 1", "physics violation: new\n")]}
    trees = []
    for side, endings in runs.items():
        tree = tmp_path / side
        for i in range(2):
            (tree / str(i)).mkdir(parents=True)
            (tree / str(i) / "r.json").write_text(json.dumps({"x": 1.0}))
        (tree / "endings.json").write_text(json.dumps(endings))
        trees.append(str(tree))
    (tmp_path / "change" / "1" / "verify.json").write_text(json.dumps({"passed": False}))
    assert report_cells.compare(trees, {False: "PARENT", True: "CHANGE"}) == [
        "b: stderr 'physics violation: old\\n' -> 'physics violation: new\\n'",
        "b verify.json: only in CHANGE",
        "2 runs: reports moved in 1, endings moved in 0, stderr moved in 1"]
