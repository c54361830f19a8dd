"""Which report cells move between two checkouts, column by column.

Usage:

    python tools/report_cells.py PARENT CHANGE

PARENT and CHANGE are susyqm source trees. Each runs every config of
`report_digest.configs` (the bundled configs, the seed-1 and seed-2 jobs of
the checkout's benchmark workloads, and `report_digest.EXTRA`) in a child
process of its own, its `susyqm.cli` imported from its `src/` and run in
process with `--format json`, each run writing into a directory of its own.
The two trees of reports are then read back and compared cell by cell.

A cell is a leaf of a JSON report: a number, string, boolean or null. Its
column is its path with the list indices left out, so every row of a table
falls in the column of its key (`rows.residual`), and a list element that
has a "name" key is named by it (`checks[zero_mode_present].value`). For
every run whose reports differ, one line a moved column gives the run, the
report, the column, how many of its cells moved out of how many, and the
largest move in ulps (the distance of the two doubles in the ordered set of
doubles), in absolute value and relative to the larger magnitude of the
two, or `text` when a cell that moved is not a number. A round-off value,
such as a residual of 1e-12 or an overlap that is 0 in exact arithmetic,
moves by many ulps and a large relative amount, a value of order one by few.
A report that one side writes and the other does not reads `only in PARENT`
or `only in CHANGE`, and a moved ending (exit code or exception) is printed
as both endings. Each run's stderr is kept with its output directory masked
as OUT, and a run whose stderr moved, such as a one-line reason of exit 1,
is printed with both texts. The last line counts the runs, those whose
reports moved, those whose ending moved and those whose stderr moved.
"""

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import struct
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))


def write_reports(root, out):
    """Run every config in checkout `root`: run i writes out/i.

    out/endings.json lists (label, ending, stderr) of each run, stderr with
    out/i masked as OUT.
    """
    sys.path.insert(0, TOOLS)
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import report_digest
    import workloads

    cli = workloads.load_cli(root)
    endings = []
    for i, (label, cfg) in enumerate(report_digest.configs(root, workloads)):
        outdir = os.path.join(out, str(i))
        os.makedirs(outdir)
        path = os.path.join(out, f"{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main(["--config", path, "--out", outdir, "--format", "json"])
                ending = f"exit {rc}"
            except Exception as exc:  # a crash is an outcome to compare
                ending = f"raised {type(exc).__name__}: {exc}"
        endings.append((label, ending, stderr.getvalue().replace(outdir, "OUT")))
    with open(os.path.join(out, "endings.json"), "w", encoding="utf-8") as fh:
        json.dump(endings, fh)


def ordinal(x):
    """The place of the double x in the ordered doubles: neighbours differ by 1, -0.0 is 0.0."""
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    return bits if bits < 2 ** 63 else 2 ** 63 - bits


def cells(obj, column="", cell=""):
    """(column, cell path, value) of every leaf of a parsed JSON report."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from cells(value, f"{column}.{key}".lstrip("."), f"{cell}.{key}".lstrip("."))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            name = value.get("name") if isinstance(value, dict) else None
            where = f"[{name}]" if isinstance(name, str) else ""
            yield from cells(value, column + where, f"{cell}[{i}]")
    else:
        yield column, cell, obj


def moved_columns(parent, change):
    """{column: [cells, moved, largest move in ulps, absolute, relative]} of two reports.

    The largest moves are None once a cell that moved is not a number.
    """
    got = {path: (column, value) for column, path, value in cells(change)}
    columns = {}
    for column, path, value in cells(parent):
        entry = columns.setdefault(column, [0, 0, 0, 0.0, 0.0])
        entry[0] += 1
        other = got.pop(path, (column, None))[1]
        if type(value) is type(other) and value == other and (
                not isinstance(value, float) or ordinal(value) == ordinal(other)):
            continue
        entry[1] += 1
        if isinstance(value, float) and isinstance(other, float) and entry[2] is not None:
            entry[2] = max(entry[2], abs(ordinal(value) - ordinal(other)))
            entry[3] = max(entry[3], abs(value - other))
            entry[4] = max(entry[4], abs(value - other) / max(abs(value), abs(other)))
        else:
            entry[2:] = None, None, None
    for column, _ in got.values():  # cells only the change writes
        entry = columns.setdefault(column, [0, 0, 0, 0.0, 0.0])
        entry[:] = entry[0] + 1, entry[1] + 1, None, None, None
    return {column: entry for column, entry in columns.items() if entry[1]}


def compare(trees, names):
    """The report lines of two output trees, in run order, and the last line's counts."""
    endings = []
    for tree in trees:
        with open(os.path.join(tree, "endings.json"), encoding="utf-8") as fh:
            endings.append(json.load(fh))
    if [run[0] for run in endings[0]] != [run[0] for run in endings[1]]:
        raise SystemExit("report_cells: the two checkouts list different runs")
    lines, moved_runs, moved_endings, moved_stderr = [], 0, 0, 0
    for i, ((label, first, first_err), (_, second, second_err)) in enumerate(zip(*endings)):
        if first != second:
            moved_endings += 1
            lines.append(f"{label}: ending {first!r} -> {second!r}")
        if first_err != second_err:
            moved_stderr += 1
            lines.append(f"{label}: stderr {first_err!r} -> {second_err!r}")
        dirs = [os.path.join(tree, str(i)) for tree in trees]
        files = [set(os.listdir(d)) for d in dirs]
        moved = False
        for name in sorted(files[0] | files[1]):
            if name not in files[0] or name not in files[1]:
                lines.append(f"{label} {name}: only in {names[name in files[1]]}")
                moved = True
                continue
            reports = []
            for d in dirs:
                with open(os.path.join(d, name), encoding="utf-8") as fh:
                    reports.append(json.load(fh))
            for column, (total, count, ulps, move, relative) in moved_columns(*reports).items():
                largest = "text" if ulps is None else (
                    f"{ulps} ulps, |move| {move:.2g}, relative {relative:.2g}")
                lines.append(f"{label} {name} {column}: {count}/{total} cells moved, "
                             f"largest {largest}")
                moved = True
        moved_runs += moved
    lines.append(f"{len(endings[0])} runs: reports moved in {moved_runs}, "
                 f"endings moved in {moved_endings}, stderr moved in {moved_stderr}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    roots = [os.path.abspath(root) for root in (args.parent, args.change)]
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as scratch:
        trees = []
        for side, root in zip(("parent", "change"), roots):
            tree = os.path.join(scratch, side)
            os.makedirs(tree)
            child = spawn.Process(target=write_reports, args=(root, tree))
            child.start()
            child.join()
            if child.exitcode != 0:
                print(f"report_cells: the run in {root} exited {child.exitcode}", file=sys.stderr)
                return 1
            trees.append(tree)
        for line in compare(trees, {False: "PARENT", True: "CHANGE"}):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
