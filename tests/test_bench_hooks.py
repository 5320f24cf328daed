"""The benchmark's observation points still see the program.

``perfbench/worker.py`` times and counts each layer by wrapping names
in the package (``znn.solve_batch``, ``znn.sym_eig_batch``,
``znn.derivative_estimate``, the CLI's steps) and by iterating the solve
reports.  A change under ``src/`` that renames or reshapes one of them
breaks the benchmark without failing a unit test; this runs one short
traced worker per solve route and checks what it observed.
"""

import importlib
import os
import sys

import pytest

_BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, _BENCH)
    try:
        yield importlib.import_module("run")
    finally:
        sys.path.remove(_BENCH)


@pytest.mark.parametrize("name, steps, systems, restarts", [
    ("restart-storm", 250, 7, 2),       # n = 7: every pair solved densely
    ("dense-n32", 40, 32, 0),           # n = 32: solved in the eigenbasis
])
def test_traced_worker_observes_every_layer(bench, tmp_path, name, steps,
                                            systems, restarts):
    workload = bench.WORKLOADS[name]
    cli_args = workload.cli_args(str(tmp_path), 5, steps)
    res = bench.spawn(cli_args, str(tmp_path / "result.json"), "--trace")
    assert bench.run_failures(res, workload, steps, str(tmp_path / "out"),
                              None) == []
    layers = res["layers"]
    assert layers["densela.systems_per_step"] == systems
    assert layers["densela.direct_ratio"] == 1.0
    assert layers["znn.restarts"] == restarts
    # one loop estimate per predict, and one report sample per instant
    assert layers["formulas.derivative_calls_per_step"] == 1.0
    assert layers["harness.report_samples"] == steps + 1
