"""Scaling sweep: per-step cost against n, and where real time is lost.

Usage (from the root of a checkout):

    python3 perfbench/sweep.py [--seed 1] [--out perfbench/results/sweep.json]

Not one of the gated workloads.  For each n in {7, 16, 32, 64} it records
a seeded rotating flow (see ``workloads.rotating_flow``) to a flow file,
runs ``eigentrack run`` on it in a fresh process exactly as the benchmark
does, and times the decompose-and-hold baseline (``naive_baseline``) on
the same file.  It then fits the exponent of ``us_per_step`` against n
and reports the first n whose real-time ratio exceeds 1, with the
crossover interpolated on the log-log line between its neighbours.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time

import run as bench
from workloads import TAU, Workload

# the baseline runs in this process: cap BLAS threads as the workers do,
# before anything loads numpy
os.environ.update(bench.BLAS_ENV)

# enough steps that the startup eigensolve is a small share of the run
STEPS = {7: 2000, 16: 1000, 32: 600, 64: 300}


def point(n: int, seed: int, workdir: str) -> dict:
    from eigentrack import flow_from_file, naive_baseline
    workload = Workload(f"sweep-n{n}", steps=STEPS[n], jumps=(), dense_n=n)
    cli_args = workload.cli_args(workdir, seed)
    bench.spawn(cli_args, os.path.join(workdir, "warm.json"), "--setup-only")
    res = bench.spawn(cli_args, os.path.join(workdir, "result.json"))
    if "error" in res or res["code"] != 0:
        raise RuntimeError(f"n={n}: {res}")
    flow = flow_from_file(cli_args[cli_args.index("--flow") + 1])
    began = time.perf_counter()
    naive_baseline(flow, tau=TAU, t0=0.0, tf=STEPS[n] * TAU)
    baseline_us = (time.perf_counter() - began) / STEPS[n] * 1e6
    return {
        "n": n, "steps": STEPS[n],
        "us_per_step": res["us_per_step"],
        "step_us_p50": statistics.median(res["step_us"]),
        "realtime_ratio": res["us_per_step"] / (TAU * 1e6),
        "baseline_us_per_step": baseline_us,
    }


def fit(points: list) -> dict:
    slope = statistics.linear_regression(
        [math.log(p["n"]) for p in points],
        [math.log(p["us_per_step"]) for p in points]).slope
    over = [i for i, p in enumerate(points) if p["realtime_ratio"] > 1.0]
    crossover = None
    if over and over[0] > 0:
        a, b = points[over[0] - 1], points[over[0]]
        la, lb = math.log(a["realtime_ratio"]), math.log(b["realtime_ratio"])
        crossover = math.exp(math.log(a["n"]) + (0.0 - la)
                             * (math.log(b["n"]) - math.log(a["n"]))
                             / (lb - la))
    # the fit over all n mixes the per-call overhead that dominates at
    # small n with the O(n^4) solves; the last pair shows the latter
    local = [{"n": [a["n"], b["n"]],
              "exponent": math.log(b["us_per_step"] / a["us_per_step"])
              / math.log(b["n"] / a["n"])} for a, b in zip(points, points[1:])]
    return {"us_per_step_exponent": slope, "local_exponents": local,
            "first_n_over_realtime": points[over[0]]["n"] if over else None,
            "crossover_n_interpolated": crossover}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(bench.HERE, "results",
                                                      "sweep.json"))
    args = parser.parse_args(argv)
    sys.path.insert(0, bench.SRC)
    workdir = os.path.join(bench.WORK, f"sweep-{os.getpid()}")
    os.makedirs(workdir)
    try:
        points = [point(n, args.seed, workdir) for n in STEPS]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"tau": TAU, "provenance": bench.provenance(args.seed),
              "points": points, **fit(points)}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
