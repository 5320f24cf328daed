"""The public names: every exported name resolves, and the names that
were removed from the API stay gone."""

import importlib

import pytest

import eigentrack

MODULES = ["eigentrack", "eigentrack.cli", "eigentrack.densela",
           "eigentrack.flows", "eigentrack.formulas", "eigentrack.g17",
           "eigentrack.harness", "eigentrack.znn"]
# the batch calls replace sym_eig, EigenDecomposition and solve;
# Trajectory.restarts() replaces StepEvent and restart_events(); a run
# with jump_threshold=inf gives derivative_trace's norms as da_norms;
# a rule derives its gain and order, which complete_recursion and
# truncation_order re-derived
REMOVED = ("StepEvent", "restart_events", "derivative_trace", "sym_eig",
           "EigenDecomposition", "solve", "solve_augmented",
           "complete_recursion", "truncation_order")


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_and_removed_names_are_gone(name):
    module = importlib.import_module(name)
    exports = module.__all__
    assert len(set(exports)) == len(exports)
    assert [e for e in exports if not hasattr(module, e)] == []
    assert [r for r in REMOVED if r in exports or hasattr(module, r)] == []
    assert not hasattr(eigentrack.Trajectory, "restart_events")
    # the preset is the one spelling of the formula pair
    assert not hasattr(eigentrack.SolverConfig, "from_preset")
