"""Run every workload, print the end-to-end table, record a trajectory entry.

    python3 perfbench/report.py --seed 1 [--out FILE.json]

For each workload this runs `run.py` twice, with tracing off and on, each
for the `run_seconds` of `BENCHMARK.json`, prints
`setup_s`, `wall_s`, `peak_rss_mb` and `ops_failed_ratio` with their units
and whether every oracle check passed, and with `--out` writes all of it,
per-layer breakdown and environment fingerprint included, as one entry of
the performance trajectory (see `trajectory/`). Exits 1 if any report was
wrong.
"""

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]


def run_workload(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details)["perfbench"], json.loads(result)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", metavar="FILE", default=None)
    parser.add_argument("--label", default="", help="free text stored in the entry")
    args = parser.parse_args(argv)

    entry = {"label": args.label, "seed": args.seed, "seconds": RUN_SECONDS,
             "workloads": {}}
    print(f"{'workload':<12} {'setup_s':>10} {'wall_s':>10} {'peak_rss_mb':>12} "
          f"{'ops_failed_ratio':>17}  oracles")
    all_correct = True
    for workload in WORKLOADS:
        details, result = run_workload(workload, args.seed, 0)
        traced_details, traced = run_workload(workload, args.seed, 1)
        m = result["metrics"]
        correct = result["correct"] and traced["correct"]
        all_correct = all_correct and correct
        print(f"{workload:<12} {m['setup_s']['value']:>8.4f} s {m['wall_s']['value']:>8.4f} s "
              f"{m['peak_rss_mb']['value']:>9.1f} MB "
              f"{details['ops_failed_ratio']:>15.4f} 1  {'pass' if correct else 'FAIL'}")
        entry["environment"] = details["environment"]
        entry["workloads"][workload] = {
            "end_to_end": m,
            "ops_failed_ratio": {"value": details["ops_failed_ratio"], "unit": "1"},
            "attempted": result["attempted"],
            "failed": result["failed"],
            "correct": correct,
            "failures": sorted({f"{f['job']}: {f['error'] or f['problems'][0]}"
                                for f in details["failures"]}),
            "pass_s": details["pass_s"]["untraced"],
            "setup_samples_s": details["setup_samples_s"],
            "per_layer": traced["metrics"],
            "traced_pass_s": traced_details["pass_s"],
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=1)
            fh.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
