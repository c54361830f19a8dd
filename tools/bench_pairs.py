"""Alternating benchmark pairs of two checkouts, with the rule a claimed gain must meet.

Usage:

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N [--seed S] [--seconds T]

PARENT and CHANGE are susyqm source trees. Pair i runs
`python3 perfbench/run.py --workload W --seed S+i --seconds T` once in each
checkout, each from its own `perfbench/`, the parent first in even pairs and
the change first in odd ones. T defaults to `run_seconds` of the
`BENCHMARK.json` next to this script, S to 1.

Prints one line a pair, then one line per end-to-end metric of
`BENCHMARK.json`: each side's median and quartiles (`statistics.quantiles`,
inclusive), the pairs the change wins (ties count for neither side) and
whether a gain may be claimed: the change wins at least nine tenths of the
pairs and the medians differ, in its favour, by more than the distance
between the parent's quartiles. A run that fails, is not `correct` or has a
failed job is reported and ends the script with exit 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout, workload, seed, seconds):
    """The metrics object of one perfbench run in `checkout` (value per name)."""
    run = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: perfbench exited {run.returncode}: {run.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout}: {result['failed']} of {result['attempted']} jobs "
                           f"failed, correct = {result['correct']}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summary(name, better, parent, change):
    """One line: medians, quartiles, wins and the claim rule for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, cm, c3 = statistics.quantiles(change, n=4, method="inclusive")
    claim = wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1
    return (f"{name} ({better} is better): parent median {pm:.6g} [{p1:.6g}, {p3:.6g}], "
            f"change median {cm:.6g} [{c1:.6g}, {c3:.6g}], change {cm / pm - 1.0:+.1%}; "
            f"change wins {wins}, loses {losses} of {len(parent)}; gain claimable: "
            f"{'yes' if claim else 'no'}")


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], args.workload, seed, args.seconds))
            print(f"pair {i} seed {seed} ({order[0]} first): " + ", ".join(
                f"{name} {runs['parent'][-1][name]:.6g} -> {runs['change'][-1][name]:.6g}"
                for name in (m["name"] for m in bench["end_to_end"])), flush=True)
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    for metric in bench["end_to_end"]:
        name = metric["name"]
        print(summary(name, metric["better"], [r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
