"""Predictor dynamics: assembly, stepping, startup, detection, full runs."""

import numpy as np
import pytest

import eigentrack as et
from eigentrack import znn
from eigentrack.densela import MatrixShapeError
from eigentrack.flows import JumpSchedule, MatrixFlow, builtin_flows, \
    constant_flow, diag_linear_flow, with_jumps
from eigentrack.znn import (EigenPairState, NumericalAbort, SolverConfig,
                            assemble, detect_jump, run, startup, step)


@pytest.fixture(scope="module")
def smooth7():
    rand = et.OrthogonalRandomizer.from_seed(7, 7)
    return et.conjugate(builtin_flows()["A_s"], rand)


# ------------------------------------------------------------------- config

def test_config_defaults_and_presets():
    cfg = SolverConfig(tau=0.005, eta=4.5)
    assert cfg.mu == 4.5
    assert cfg.s_star == 4
    assert SolverConfig.from_preset("ifd6", tau=0.01, eta=1.0).s_star == 5
    assert SolverConfig.from_preset("ifd7", tau=0.01, eta=1.0).s_star == 6


@pytest.mark.parametrize("kwargs", [
    dict(tau=-0.01, eta=1.0),
    dict(tau=0.01, eta=0.0),
    dict(tau=0.01, eta=1.0, tf=-1.0),
    dict(tau=0.01, eta=1.0, recursion="nope"),
    dict(tau=0.01, eta=1.0, derivative="nope"),
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_unknown_preset():
    with pytest.raises(ValueError):
        SolverConfig.from_preset("ifd9", tau=0.01, eta=1.0)


# ----------------------------------------------------------------- assemble

def test_assemble_hand_example():
    A = np.diag([2.0, 5.0])
    z = np.array([1.0, 0.0, 2.1])
    P, q = assemble(A, np.zeros((2, 2)), z, eta=1.0, mu=1.0)
    want_P = np.array([[-0.1, 0.0, -1.0],
                       [0.0, 2.9, 0.0],
                       [-1.0, 0.0, 0.0]])
    assert P == pytest.approx(want_P, abs=1e-15)
    assert q == pytest.approx([0.1, 0.0, 0.0], abs=1e-15)


def test_assemble_with_drift_and_separate_mu():
    A = np.diag([2.0, 5.0])
    dA = np.diag([1.0, 0.0])
    z = np.array([1.0, 0.0, 2.0])
    P, q = assemble(A, dA, z, eta=2.0, mu=3.0)
    assert P[0, 0] == 0.0 and P[1, 1] == 3.0
    assert q == pytest.approx([-1.0, 0.0, 0.0], abs=1e-15)
    # unnormalized vector feeds the drift row through mu/2
    z2 = np.array([2.0, 0.0, 2.0])
    _, q2 = assemble(A, dA, z2, eta=2.0, mu=3.0)
    assert q2[2] == pytest.approx(1.5 * 3.0, abs=1e-15)


def test_assemble_is_symmetric(rng):
    M = rng.standard_normal((4, 4))
    A = (M + M.T) / 2
    z = rng.standard_normal(5)
    P, _ = assemble(A, np.zeros((4, 4)), z, eta=1.0, mu=1.0)
    assert np.array_equal(P, P.T)


def test_assemble_shape_errors():
    A = np.eye(2)
    with pytest.raises(MatrixShapeError):
        assemble(A, np.zeros((2, 2)), np.ones(4), 1.0, 1.0)
    with pytest.raises(MatrixShapeError):
        assemble(A, np.zeros((3, 3)), np.ones(3), 1.0, 1.0)


def test_assemble_batch_matches_scalar(rng):
    M = rng.standard_normal((5, 5))
    A = (M + M.T) / 2
    dA = (rng.standard_normal((5, 5)) + rng.standard_normal((5, 5)).T) / 2
    dA = (dA + dA.T) / 2
    Z = rng.standard_normal((5, 6))
    Ps, qs = znn._assemble_batch(A, dA, Z, eta=1.7, mu=0.4)
    for i in range(5):
        P, q = assemble(A, dA, Z[i], eta=1.7, mu=0.4)
        assert np.allclose(Ps[i], P, atol=1e-14)
        assert np.allclose(qs[i], q, atol=1e-14)


# --------------------------------------------------------------------- step

def test_step_fixed_point():
    A = np.diag([1.0, 2.0, 3.0])
    cfg = SolverConfig(tau=0.01, eta=1.0)
    z_star = np.array([0.0, 1.0, 0.0, 2.0])   # exact pair of A
    state = EigenPairState(index=0, capacity=cfg.s_star)
    for _ in range(cfg.s_star):
        state.push(z_star)
    hist = [A] * cfg.derivative_rule.taps
    z_next = step(state, hist, cfg)
    assert z_next == pytest.approx(z_star, abs=1e-14)


def test_step_underfull_buffer():
    cfg = SolverConfig(tau=0.01, eta=1.0)
    state = EigenPairState(index=0, capacity=cfg.s_star)
    state.push(np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        step(state, [np.eye(2)] * 4, cfg)


def test_step_is_the_run_kernel(smooth7):
    # step() and run() share one prediction kernel: stepping a single pair
    # from a run's own history reproduces the run's prediction
    cfg = SolverConfig.from_preset("ifd5", tau=0.005, eta=4.5, tf=0.1)
    traj = run(smooth7, cfg)
    k = 10
    hist = [smooth7.sample(traj.times[k - j]) for j in range(4)]
    for i in range(7):
        state = EigenPairState(index=i, capacity=cfg.s_star)
        for j in range(cfg.s_star - 1, -1, -1):
            state.push(traj.z[k - j, i])
        z = step(state, hist, cfg)
        assert np.allclose(z, traj.z[k + 1, i], rtol=0.0, atol=1e-13)


# ------------------------------------------------------------------ startup

def test_startup_ascending_and_full():
    cfg = SolverConfig.from_preset("ifd5", tau=0.01, eta=1.0)
    states = startup(diag_linear_flow(), 0.0, cfg)
    assert len(states) == 2
    for st in states:
        assert st.full and len(st.zbuf) == cfg.s_star
    lam0 = [st.zbuf[0][-1] for st in states]
    assert lam0 == pytest.approx([2.0, 5.0], abs=1e-12)
    # later instants stay matched to the same pair, values drift linearly
    lam_last = states[0].zbuf[-1][-1]
    assert lam_last == pytest.approx(2.0 + 0.01 * (cfg.s_star - 1),
                                     abs=1e-12)


def test_startup_signs_are_continuous():
    # rotating eigenvectors, constant eigenvalues {1, 3}
    def sampler(t):
        th = 0.3 * t
        R = np.array([[np.cos(th), -np.sin(th)],
                      [np.sin(th), np.cos(th)]])
        return R @ np.diag([1.0, 3.0]) @ R.T

    flow = MatrixFlow(n=2, sampler=sampler, label="rot")
    cfg = SolverConfig.from_preset("ifd5", tau=0.05, eta=1.0)
    states = startup(flow, 0.0, cfg)
    for st in states:
        lams = [z[-1] for z in st.zbuf]
        assert np.ptp(lams) < 1e-10          # matching never swaps pairs
        for za, zb in zip(st.zbuf, st.zbuf[1:]):
            assert za[:2] @ zb[:2] > 0.9     # aligned and continuous


# ---------------------------------------------------------------- detection

def test_detect_jump_threshold():
    assert not detect_jump(np.zeros((3, 3)), 300.0)
    assert detect_jump(np.full((3, 3), 200.0), 300.0)
    exact = np.zeros((2, 2))
    exact[0, 0] = 300.0
    assert not detect_jump(exact, 300.0)     # strict inequality


# --------------------------------------------------------------------- runs

def test_run_smooth_tags_and_residuals(smooth7):
    cfg = SolverConfig.from_preset("ifd5", tau=0.005, eta=4.5, tf=0.5)
    traj = run(smooth7, cfg)
    assert traj.times.size == 101
    assert traj.z.shape == (101, 7, 8)
    assert len(traj.events) == 101
    assert traj.kind[:cfg.s_star] == ["startup"] * cfg.s_star
    assert set(traj.kind[cfg.s_star:]) == {"predicted"}
    assert not traj.restart_events()
    assert traj.residuals[cfg.s_star:].max() < 1e-4
    for k in range(cfg.s_star):
        assert traj.solve_methods[k] == ("static",) * 7
    assert traj.solve_methods[-1] == ("direct",) * 7
    # derivative estimates appear once the sample window fills
    m = cfg.derivative_rule.taps
    assert np.isnan(traj.da_norms[: m - 1]).all()
    assert np.isfinite(traj.da_norms[m - 1:]).all()


def test_run_restart_protocol():
    pool = builtin_flows()
    flow = with_jumps(pool["A_s"], pool["A_sj"], JumpSchedule((0.5,)))
    cfg = SolverConfig.from_preset("ifd5", tau=0.005, eta=4.5, tf=1.0)
    traj = run(flow, cfg)
    events = traj.restart_events()
    assert len(events) == 1
    assert events[0].t == pytest.approx(0.5, abs=1e-12)
    assert events[0].da_norm > 300.0
    k = int(round(0.5 / cfg.tau))
    assert traj.kind[k] == "restart-triggered"
    assert traj.kind[k + 1: k + cfg.s_star] == ["startup"] * (cfg.s_star - 1)
    assert traj.kind[k + cfg.s_star] == "predicted"
    # trajectory picks the flow back up after the refill
    assert traj.residuals[k + cfg.s_star:].max() < 1e-3


def test_run_events_are_derived_from_arrays():
    pool = builtin_flows()
    flow = with_jumps(pool["A_s"], pool["A_sj"], JumpSchedule((0.5,)))
    cfg = SolverConfig.from_preset("ifd5", tau=0.005, eta=4.5, tf=1.0)
    traj = run(flow, cfg)
    events = traj.events
    assert len(events) == traj.times.size
    for k, e in enumerate(events):
        assert e.t == traj.times[k] and e.kind == traj.kind[k]
        assert np.array_equal(e.residuals, traj.residuals[k])
        assert e.solve_methods == traj.solve_methods[k]
    (restart,) = traj.restart_events()
    k = int(round(0.5 / cfg.tau))
    # the spike is the derivative norm logged at the restart instant
    assert restart.da_norm == traj.da_norms[k]
    assert all(np.isnan(e.da_norm) for e in events
               if e.kind != "restart-triggered")


def test_run_mixed_fallback_batch():
    # a double eigenvalue makes two bordered systems exactly singular every
    # step; only those two pairs take the least-squares fallback
    flow = constant_flow(np.diag([1.0, 1.0, 3.0]))
    traj = run(flow, SolverConfig(tau=0.01, eta=1.0, tf=0.1))
    predicted = [k for k, kd in enumerate(traj.kind) if kd == "predicted"]
    assert predicted
    for k in predicted:
        assert traj.solve_methods[k] == ("least-squares", "least-squares",
                                         "direct")
    assert np.isfinite(traj.z).all()


def test_run_constant_flow_is_a_fixed_point(smooth7):
    A0 = smooth7.sample(0.0)
    flow = constant_flow(A0, label="const7")
    cfg = SolverConfig.from_preset("ifd5", tau=0.005, eta=4.5, tf=1.0)
    traj = run(flow, cfg)
    ref = traj.z[cfg.s_star - 1]
    drift = np.abs(traj.z[cfg.s_star - 1:] - ref[None]).max()
    assert drift < 1e-12
    assert not traj.restart_events()


def test_normalization_defect_decays():
    A = np.diag([1.0, 2.0, 3.0])
    cfg = SolverConfig(tau=0.01, eta=2.0)
    z0 = np.array([1.1, 0.0, 0.0, 1.0])      # 21% normalization defect
    state = EigenPairState(index=0, capacity=cfg.s_star)
    for _ in range(cfg.s_star):
        state.push(z0)
    hist = [A] * cfg.derivative_rule.taps
    defect = [abs(z0[:3] @ z0[:3] - 1.0)]
    for _ in range(800):
        z = step(state, hist, cfg)
        state.push(z)
        defect.append(abs(z[:3] @ z[:3] - 1.0))
    # decays like exp(-mu t): one time unit shrinks it by e^-2
    assert defect[100] / defect[0] == pytest.approx(np.exp(-2.0), rel=0.05)
    assert defect[300] < defect[100] < defect[0]
    assert defect[-1] < 1e-6


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_run_aborts_on_divergence(smooth7):
    cfg = SolverConfig.from_preset("ifd5", tau=0.005, eta=2000.0, tf=2.0)
    with pytest.raises(NumericalAbort) as info:
        run(smooth7, cfg)
    partial = info.value.trajectory
    assert partial.times.size < 401
    assert np.isfinite(partial.z).all()
    # events of the partial trajectory cover exactly its instants
    assert len(partial.events) == partial.times.size
    assert [e.kind for e in partial.events] == partial.kind


def test_run_rejects_span_overrun():
    cfg = SolverConfig(tau=0.01, eta=1.0, t0=0.0, tf=1.0)
    flow = MatrixFlow(n=2, sampler=lambda t: np.eye(2), label="tiny",
                      span=(0.0, 0.5))
    with pytest.raises(ValueError):
        run(flow, cfg)
