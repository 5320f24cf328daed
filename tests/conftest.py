"""Shared fixtures: the benchmark flows and the expensive reference runs.

The acceptance tests share three long trajectories (the coarse benchmark
scenario and two fine-grained ones); running each once per session keeps
the suite in the tens of seconds.  Criterion verdict lines are collected
and echoed in the terminal summary so a plain ``pytest`` shows one
PASS/FAIL line per criterion.
"""

import numpy as np
import pytest

import eigentrack as et

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        order = sorted(_ACCEPTANCE_LINES,
                       key=lambda s: int(s.split()[1].rstrip(":")))
        for line in order:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def randomizer():
    return et.OrthogonalRandomizer.from_seed(7, 7)


@pytest.fixture(scope="session")
def smooth_flow(randomizer):
    """Conjugated benchmark flow, no discontinuities."""
    return et.conjugate(et.builtin_flows()["A_s"], randomizer)


@pytest.fixture(scope="session")
def jump_flow(randomizer):
    """Conjugated benchmark flow switching variants at t=8 and t=14.5."""
    pool = et.builtin_flows()
    base = et.conjugate(pool["A_s"], randomizer)
    alt = et.conjugate(pool["A_sj"], randomizer)
    return et.with_jumps(base, alt, et.JumpSchedule((8.0, 14.5)))


@pytest.fixture(scope="session")
def paper_run(jump_flow):
    """Coarse benchmark run: tau=1/200, eta=4.5, ifd5, t in [0, 20]."""
    cfg = et.SolverConfig(preset="ifd5", tau=1 / 200, eta=4.5)
    traj, elapsed = et.timed_run(jump_flow, cfg)
    report = et.build_report(jump_flow, traj, elapsed=elapsed)
    return traj, report, elapsed


@pytest.fixture(scope="session")
def fine_run(jump_flow):
    """Fine benchmark run: tau=0.001, eta=80, ifd5 (crossing stress)."""
    cfg = et.SolverConfig(preset="ifd5", tau=0.001, eta=80.0)
    traj, elapsed = et.timed_run(jump_flow, cfg)
    report = et.build_report(jump_flow, traj, elapsed=elapsed)
    return traj, report


@pytest.fixture(scope="session")
def ifd7_run(jump_flow):
    """Fine run with the six-tap recursion; gain scaled into its
    stability region (eta*tau = 0.0225)."""
    cfg = et.SolverConfig(preset="ifd7", tau=0.001, eta=22.5)
    traj, elapsed = et.timed_run(jump_flow, cfg)
    report = et.build_report(jump_flow, traj, elapsed=elapsed)
    return traj, report


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _separated_flow(n: int, seed: int) -> et.MatrixFlow:
    """Dense smooth n x n flow whose eigenvalues stay at least 0.4 apart.

    U^T B(t)^T diag(d(t)) B(t) U: d_i(t) = i + 0.3 sin(t + i/2), B(t)
    rotates consecutive coordinate pairs at 0.7 rad per time unit, and U
    is the seeded orthogonal randomizer.
    """
    i = np.arange(n)

    def sampler(t: float) -> np.ndarray:
        c, s = np.cos(0.7 * t), np.sin(0.7 * t)
        B = np.eye(n)
        for k in range(0, n - 1, 2):
            B[k:k + 2, k:k + 2] = [[c, -s], [s, c]]
        return (B.T * (i + 0.3 * np.sin(t + 0.5 * i))) @ B

    return et.conjugate(et.MatrixFlow(n, sampler, label=f"separated-n{n}"),
                        et.OrthogonalRandomizer.from_seed(n, seed))


@pytest.fixture(scope="session")
def separated_flow():
    """Factory: ``separated_flow(n, seed)``, see _separated_flow."""
    return _separated_flow
