"""
Running the tracker on recorded data
====================================

Flows don't have to be closed-form: any equally spaced sequence of
symmetric matrices in a plain text file works.  The format is one
header line (dimension, gap, start time) and one whitespace-separated
block per sample.  Numbers round-trip bit-exactly at 17 significant
digits.

This script records a small analytic flow to a file, loads it back,
tracks it, and shows the file is the only thing the tracker saw.
"""

import os
import tempfile

import numpy as np

import eigentrack as et

# --- record ---------------------------------------------------------------


def wobble(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[4.0 + c, 0.5 * s, 0.0],
                     [0.5 * s, 2.0, 0.3 * c],
                     [0.0, 0.3 * c, 1.0 - 0.2 * s]])


source = et.MatrixFlow(3, wobble, label="wobble")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "wobble.flow")
    et.write_flow_file(path, source, t0=0.0, tau=0.01, count=401)

    print("wrote", path)
    with open(path) as fh:
        head = [next(fh) for _ in range(3)]
    print("file starts:")
    for line in head:
        print("   ", line.rstrip())

    # --- load and track -----------------------------------------------------

    flow = et.flow_from_file(path)
    print("\nloaded flow: n=%d, span %.2f..%.2f" % (flow.n, *flow.span))

    cfg = et.SolverConfig.from_preset("ifd5", tau=0.01, eta=4.5, tf=4.0)
    traj = et.run(flow, cfg)
    report = et.build_report(flow, traj)

    print("median steady residual on the recorded data: %.2e"
          % report.summary["median_residual"])

    # queries between recorded instants are refused rather than interpolated
    try:
        flow.sample(0.015)
    except et.InterpolationError as exc:
        print("\noff-grid query is rejected:", exc)
