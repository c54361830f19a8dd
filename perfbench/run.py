"""Benchmark of the `susyqm` command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: this process imports `susyqm` from the
checkout's `src/`, generates the workload's configs from the seed (see
`workloads.py`) and runs the job list in order, in-process through
`susyqm.cli.main(["--config", FILE, "--out", DIR])`, one job in flight. It
repeats rounds for about S seconds, at least twice, and checks every report
of every pass with the independent oracles of `oracles.py`. BLAS and OpenMP
are pinned to one thread.

With `--trace 0` a round is one set-up probe followed by one run of the job
list ("a pass"), so set-up and pass samples cover the same stretch of time.
It reports, with tracing off:

    setup_s       s   median time of a fresh interpreter that imports
                      susyqm.cli and writes the configs (one probe a round)
    wall_s        s   median time of one pass, all reports written
    peak_rss_mb   MB  peak resident memory of this process (ru_maxrss)

With `--trace 1` a round is two passes, untraced and traced with span
timing, in alternating order; the first round adds one pass traced with
tracemalloc. It reports the per-layer metrics of `spans.py`, medians over
the timing passes (alloc peaks: the memory pass), plus

    cli.job_s          median time of one job in timing passes
    cli.bytes_written  bytes of report files written per pass
    cli.violations     jobs per pass ending in exit 1 with a physics verdict
    trace.overhead_s   median over rounds of timing-pass minus untraced-pass
                       time within the round; negative when the tracing cost
                       is below the pass-to-pass noise
    trace.unaccounted_s  timing-pass time not inside any span

A job fails on an uncaught exception, an exit code other than 0 or 1, or a
missing, unparsable or wrong report. `attempted` and `failed` count jobs over
all passes, and `ops_failed_ratio` is their quotient. `correct` is false when
any report is missing, unparsable or wrong; a job that crashes before writing
reports fails without making the run incorrect.

The last line of standard output is the result object; the line before it
holds the details (environment fingerprint, per-job outcomes).
"""

import os

THREADS = 1
if __name__ == "__main__":
    # before numpy loads BLAS; the set-up probes inherit the pin
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from oracles import check_report  # noqa: E402
from spans import ALLOC_METRICS, LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, job_label, load_cli, make_jobs, write_configs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_ROUNDS = 2


def measure_setup(workload, seed, directory):
    """Wall time of one fresh interpreter running probe.py."""
    os.makedirs(directory)
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), workload,
                    str(seed), directory], check=True, cwd=ROOT)
    seconds = time.perf_counter() - start
    shutil.rmtree(directory, ignore_errors=True)
    return seconds


def run_pass(cli, jobs, paths, outroot, tracer=None):
    """Run the job list once and check every report.

    Returns the pass time, the per-job times and outcomes, and the spans.
    """
    outdirs = [os.path.join(outroot, f"job{i:02d}") for i in range(len(jobs))]
    results = []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for path, outdir in zip(paths, outdirs):
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code, error = cli.main(["--config", path, "--out", outdir]), None
                except Exception as exc:  # a crashing job must not stop the run
                    code, error = None, f"{type(exc).__name__}: {exc}"
            results.append((time.perf_counter() - t0, code, error, err.getvalue()))
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    spans = tracer.take() if tracer is not None else []

    outcomes = []
    for cfg, outdir, (seconds, code, error, stderr) in zip(jobs, outdirs, results):
        problems = []
        if error is None and code in (0, 1):
            problems = check_report(cfg, outdir, code)
        elif error is None:
            error = f"exit code {code}: {stderr.strip()}"
        written = sum(entry.stat().st_size for entry in os.scandir(outdir)) \
            if os.path.isdir(outdir) else 0
        outcomes.append({
            "job": job_label(cfg), "seconds": seconds, "exit": code, "error": error,
            "verdict": stderr.strip().splitlines()[-1] if code == 1 and stderr.strip() else None,
            "problems": problems, "bytes": written,
        })
    shutil.rmtree(outroot, ignore_errors=True)
    return wall, outcomes, spans


def fingerprint(seed):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unavailable"  # a checkout without .git, or one inside another repository
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "commit": commit,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_cli(ROOT)
        jobs = make_jobs(args.workload, args.seed, ROOT)
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    tmp_root = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=tmp_root)
    setup_samples = []
    try:
        paths = write_configs(jobs, work)

        kinds = {"untraced": None}
        if args.trace:
            kinds.update(timing=False, memory=True)  # kind -> Tracer(memory=...)
        passes = {kind: [] for kind in kinds}  # kind -> [(wall, outcomes, metrics)]
        round_times = []
        deadline = time.perf_counter() + args.seconds
        while len(round_times) < MIN_ROUNDS or \
                time.perf_counter() + _median(round_times) <= deadline:
            t0 = time.perf_counter()
            order = list(kinds)[:3 if not round_times else 2]  # one memory pass
            if args.trace and len(round_times) % 2:
                order[:2] = order[1::-1]  # timing before untraced: linear drift cancels
            if not args.trace:
                setup_samples.append(measure_setup(
                    args.workload, args.seed, os.path.join(work, f"probe{len(round_times)}")))
            for kind in order:
                memory = kinds[kind]
                tracer = None if memory is None else Tracer(memory)
                wall, outcomes, spans = run_pass(cli, jobs, paths, os.path.join(work, "out"),
                                                 tracer)
                passes[kind].append((wall, outcomes, layer_metrics(spans) if tracer else None))
            round_times.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(tmp_root)

    all_outcomes = [o for kind in passes.values() for _, outcomes, _ in kind for o in outcomes]
    failed = [o for o in all_outcomes if o["error"] or o["problems"]]
    correct = not any(o["problems"] for o in all_outcomes)
    untraced_walls = [w for w, _, _ in passes["untraced"]]

    if args.trace:
        timing = passes["timing"]
        metrics = {name: _median([m[name] for _, _, m in
                                  (passes["memory"] if name in ALLOC_METRICS else timing)])
                   for name in timing[0][2]}
        metrics["cli.job_s"] = _median([o["seconds"] for _, outcomes, _ in timing
                                        for o in outcomes])
        metrics["cli.bytes_written"] = _median(
            [sum(o["bytes"] for o in outcomes) for _, outcomes, _ in timing])
        metrics["cli.violations"] = _median(
            [sum(o["verdict"] is not None and not o["problems"] for o in outcomes)
             for _, outcomes, _ in timing])
        metrics["trace.overhead_s"] = _median(
            [t - u for (t, _, _), u in zip(timing, untraced_walls)])
        metrics["trace.unaccounted_s"] = _median(
            [w - sum(m[f"{layer}.self_s"] for layer in LAYERS) for w, _, m in timing])
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": _median(setup_samples),
            "wall_s": _median(untraced_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

    details = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": fingerprint(args.seed),
        "setup_samples_s": setup_samples,
        "pass_s": {kind: [w for w, _, _ in runs] for kind, runs in passes.items()},
        "ops_failed_ratio": len(failed) / len(all_outcomes),
        "jobs": passes["untraced"][0][1],
        "failures": failed,
    }
    print(json.dumps({"perfbench": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "operators.system_bytes":
        return "bytes_computed"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
