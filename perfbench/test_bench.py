"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench

They run shortened workloads through the same traced path as
``run.py --trace 1``.  The counters must repeat exactly between two
runs.  ``systems_per_step == n`` and ``derivative_calls_per_step == 2``
describe the predictor as it stands (one bordered solve per pair, the
derivative estimate computed twice per step); a change that removes the
duplicate estimate is expected to move the second to 1.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

import run as bench
from workloads import WORKLOADS

sys.path.insert(0, bench.SRC)


@pytest.fixture
def workdir():
    path = os.path.join(bench.WORK, f"test-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _traced(name: str, steps: int, workdir: str) -> dict:
    run = bench.measure(WORKLOADS[name], seed=3, seconds=0.0, trace=True,
                        workdir=workdir, steps=steps)
    assert run["failed"] == 0, run["failures"]
    return run["metrics"]


@pytest.mark.parametrize("name, steps, n", [("paper-jumps", 1700, 7),
                                            ("dense-n32", 60, 32)])
def test_counters_repeat_exactly(workdir, name, steps, n):
    first = _traced(name, steps, workdir)
    second = _traced(name, steps, workdir)
    for key in bench.EXACT:
        assert first[key] == second[key], key
    assert first["densela.systems_per_step"] == n
    assert first["formulas.derivative_calls_per_step"] == 2
    assert first["znn.self_us"] > 0.0
    assert set(first) == set(bench.PER_LAYER)


def test_checks_catch_wrong_outputs(workdir):
    """A missed restart, a residual mismatch, a fallback on the dense flow,
    a changed CSV and a failed exit each fail a repetition."""
    def failures(workload, steps, csv_sha="a", restarts=(), **changes):
        with open(os.path.join(workdir, "report.json"), "w") as fh:
            json.dump({"restarts": [[t, 1e3] for t in restarts],
                       "summary": {}}, fh)
        res = {"code": 0, "residuals_bit_equal": True,
               "least_squares_solves": 0, "csv_sha256": "a", **changes}
        return bench.run_failures(res, WORKLOADS[workload], steps, workdir,
                                  csv_sha)

    assert failures("paper-jumps", 2000, restarts=[8.0]) == []
    assert failures("paper-jumps", 4000, restarts=[8.0])
    assert failures("paper-jumps", 2000, restarts=[8.005])
    assert failures("paper-jumps", 2000, restarts=[8.0],
                    residuals_bit_equal=False)
    assert failures("paper-jumps", 2000, restarts=[8.0], csv_sha="b")
    assert failures("paper-jumps", 2000, restarts=[8.0], code=3)
    assert failures("dense-n32", 1000) == []
    assert failures("dense-n32", 1000, least_squares_solves=1)
