"""The eigentrack benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper-jumps --seed 1 \\
        --seconds 30 --trace 0

Each repetition is a fresh process (``worker.py``) running ``eigentrack
run`` on the workload's inputs, after one warm-up set-up that fills the
bytecode and file caches.  Repetitions run one after another (a closed
loop, one client) until ``--seconds`` have passed, at least three times.
Every output is checked; a repetition that fails any check counts in
``failed``.  The last line of standard output is the result as JSON;
``--trace 1`` runs traced and untraced repetitions alternately and
reports the per-layer metrics instead of the end-to-end ones.

What the benchmark cannot control: CPU frequency and load from other
processes on the host.  It caps BLAS at one thread per process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS) for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
MIN_REPETITIONS = 3
TRACED_REPETITIONS = 4      # half traced, half not
DEADLINE_S = 120.0          # start no repetition after this
WORKER_TIMEOUT_S = 150.0

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# counters that must repeat exactly between repetitions and runs
EXACT = ("flows.samples_per_step", "formulas.derivative_calls_per_step",
         "densela.systems_per_step", "densela.direct_ratio",
         "densela.eig_matrices", "znn.restarts", "znn.startup_instants",
         "harness.report_samples", "cli.csv_bytes")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(BLAS_ENV)
    return env


def spawn(cli_args, result_path, *flags) -> dict:
    """Run one worker process to completion; return its result or an
    ``{"error": ...}`` record when it produced none."""
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--result", result_path, *flags, "--spawned"]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(spawned), "--", *cli_args],
                              env=worker_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"error": f"worker exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}"}
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_failures(res: dict, workload, steps: int, out_dir: str,
                 csv_sha: str) -> list:
    """Why a full repetition's outputs are wrong; empty when correct."""
    if "error" in res:
        return [res["error"]]
    if res["code"] != 0:
        return [f"eigentrack run exited {res['code']}"]
    problems = []
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    got = [t for t, _ in report["restarts"]]
    want = workload.expected_restarts(steps)
    if len(got) != len(want) or any(abs(a - b) > 1e-9
                                    for a, b in zip(got, want)):
        problems.append(f"restarts at {got}, scheduled {want}")
    if not res["residuals_bit_equal"]:
        problems.append("logged residuals differ from recomputed ones")
    if workload.dense_n is not None and res["least_squares_solves"]:
        problems.append(f"{res['least_squares_solves']} least-squares "
                        f"fallbacks on a well-separated flow")
    if csv_sha is not None and res["csv_sha256"] != csv_sha:
        problems.append("trajectory.csv differs from the first repetition")
    res["summary"] = report["summary"]
    return problems


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def pooled_steps(runs: list) -> list:
    return [x for r in runs for x in r["step_us"]]


def pooled_restarts(runs: list) -> list:
    """Restart latencies of all repetitions; a repetition that never
    restarts contributes its initial start instead."""
    return [x for r in runs for x in (r["start_us"][1:] or r["start_us"])]


def mean_us_per_step(runs: list) -> float:
    return statistics.fmean(r["us_per_step"] for r in runs)


def end_to_end(runs: list) -> dict:
    """Time metrics from the whole run: means over repetitions, and the
    90th percentile of the steps and restarts of all repetitions pooled.

    The host's speed phases (README) make any quantile near the share of
    slow steps jump between two levels; the mean and p90 do not.  Set-up
    time is the median over the repetitions' set-ups.
    """
    us = mean_us_per_step(runs)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "us_per_step": us,
        "realtime_ratio": us / (runs[0]["tau"] * 1e6),
        "step_us_p90": percentile(pooled_steps(runs), 90),
        "restart_us_p90": percentile(pooled_restarts(runs), 90),
        "cli_s": statistics.fmean(r["cli_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "median_residual": runs[0]["summary"]["median_residual"],
        "max_orth_deviation": runs[0]["summary"]["max_orth_deviation"],
    }


def per_layer(traced: list, untraced: list) -> dict:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in PER_LAYER if name != "trace.overhead_us"}
    out["trace.overhead_us"] = (mean_us_per_step(traced)
                                 - mean_us_per_step(untraced))
    return out


def git_commit() -> str:
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True
                              ).stdout.strip() or "unknown"
    except OSError:     # no git on this machine
        return "unknown"


def provenance(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "git_commit": git_commit(),
        "seed": seed,
        "uncontrolled": "CPU frequency and load from other processes",
    }


def measure(workload, seed: int, seconds: float, trace: bool,
            workdir: str, steps=None) -> dict:
    """All repetitions of one run; returns the raw results and metrics."""
    steps = workload.steps if steps is None else steps
    cli_args = workload.cli_args(workdir, seed, steps)
    out_dir = os.path.join(workdir, "out")
    result = os.path.join(workdir, "result.json")
    warm = spawn(cli_args, result, "--setup-only")
    if "error" in warm:
        raise RuntimeError(f"warm-up failed: {warm['error']}")

    untraced, traced, failures = [], [], []
    attempted = 0
    csv_sha = None
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        enough = attempted >= (TRACED_REPETITIONS if trace
                               else MIN_REPETITIONS)
        if elapsed >= DEADLINE_S or (enough and elapsed >= seconds):
            break
        kind = "traced" if trace and attempted % 2 else "run"
        res = spawn(cli_args, result, *(["--trace"] if kind == "traced"
                                          else []))
        attempted += 1
        problems = run_failures(res, workload, steps, out_dir, csv_sha)
        if problems:
            failures.append(problems)
        if "us_per_step" not in res:    # no timings to keep
            continue
        csv_sha = csv_sha or res["csv_sha256"]
        (traced if kind == "traced" else untraced).append(res)

    if trace and traced:
        first = {k: traced[0]["layers"][k] for k in EXACT}
        for r in traced[1:]:
            moved = [k for k in EXACT if r["layers"][k] != first[k]]
            if moved:
                failures.append([f"counters differ between repetitions: "
                                 f"{moved}"])
    if not untraced or (trace and not traced):
        raise RuntimeError(f"no repetition finished: {failures}")
    metrics = per_layer(traced, untraced) if trace else end_to_end(untraced)
    return {"attempted": attempted, "failed": len(failures),
            "failures": failures, "metrics": metrics, "steps": steps,
            "traced": traced, "untraced": untraced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "eigentrack", "__init__.py")):
        print(f"error: no eigentrack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = measure(workload, args.seed, args.seconds, bool(args.trace),
                      workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args.seed)
    units = PER_LAYER if args.trace else END_TO_END
    if set(run["metrics"]) != set(units):
        print(f"error: computed metrics {sorted(run['metrics'])} do not "
              f"match BENCHMARK.json", file=sys.stderr)
        return 1
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    print(f"# {workload.name}: {len(run['untraced'])} untraced and "
          f"{len(run['traced'])} traced repetitions of {run['steps']} steps")
    for name, value in run["metrics"].items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    print(f"  {'error_rate':36s} {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']} failed / {run['attempted']} attempted)")
    if not args.trace:
        steps = pooled_steps(run["untraced"])
        for p in (50, 99):
            print(f"  {f'step_us_p{p} (not gated)':36s} "
                  f"{percentile(steps, p):.6g} us over {len(steps)} "
                  f"pooled steps")
    for problems in run["failures"]:
        print(f"  failed: {'; '.join(problems)}")
    print(json.dumps({
        "correct": run["failed"] == 0, "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in run["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
