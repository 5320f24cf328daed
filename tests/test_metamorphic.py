"""Metamorphic relations: transformed inputs whose results are known from
the untransformed run, so no outside oracle is needed.

Every run spans t in [7, 9] across the jump at 8, so each relation also
checks that the transformed run restarts on the same instants; each
start matches fresh static eigendata across its startup samples.
Scaling the flow is left out: the jump test compares an absolute
derivative norm with its threshold, so a scaled flow restarts elsewhere.
"""

import numpy as np
import pytest

import eigentrack as et

_T0, _TF, _JUMP = 7.0, 9.0, 8.0


def _jump_flow(pool, rand):
    base = et.conjugate(pool["A_s"], rand)
    alt = et.conjugate(pool["A_sj"], rand)
    return et.with_jumps(base, alt, et.JumpSchedule((_JUMP,)))


def _config(shift=0.0):
    return et.SolverConfig.from_preset("ifd5", tau=0.005, eta=4.5,
                                       t0=_T0 + shift, tf=_TF + shift)


@pytest.fixture(scope="module")
def reference():
    rand = et.OrthogonalRandomizer.from_seed(7, 7)
    flow = _jump_flow(et.builtin_flows(), rand)
    traj = et.run(flow, _config())
    kinds = np.asarray(traj.kind)
    assert traj.times[kinds == "restart-triggered"] == pytest.approx([_JUMP])
    return flow, traj, et.build_report(flow, traj)


def _assert_same_statistics(rep, ref_rep, rel):
    for key in ("median_residual", "max_residual", "max_orth_deviation",
                "run_max_residual"):
        assert rep.summary[key] == pytest.approx(ref_rep.summary[key],
                                                 rel=rel)
    assert rep.summary["steady_instants"] == ref_rep.summary["steady_instants"]


def test_shift_by_a_multiple_of_the_identity(reference):
    # A + 10 I has the eigenvectors of A and eigenvalues shifted by 10
    flow, traj, _ = reference
    n = flow.n
    shifted = et.MatrixFlow(n, lambda t: flow.sampler(t) + 10.0 * np.eye(n),
                            span=flow.span)
    got = et.run(shifted, _config())
    assert got.kind == traj.kind
    assert np.abs(got.z[..., :n] - traj.z[..., :n]).max() <= 1e-9
    assert np.abs(got.z[..., n] - traj.z[..., n] - 10.0).max() <= 1e-12


def test_orthogonal_conjugation(reference):
    # Q^T A Q has A's eigenvalues and eigenvectors Q^T x: the residuals,
    # relative to ||A||_F, keep their statistics
    flow, traj, ref_rep = reference
    n = flow.n
    rand = et.OrthogonalRandomizer.from_seed(n, 3)
    turned = et.conjugate(flow, rand)
    got = et.run(turned, _config())
    assert got.kind == traj.kind
    _assert_same_statistics(et.build_report(turned, got), ref_rep, 1e-6)
    assert np.abs(got.z[..., n] - traj.z[..., n]).max() <= 1e-12
    # rows x^T Q, turned back; each start picks its own eigenvector signs
    back = got.z[..., :n] @ rand.U.T
    ref = traj.z[..., :n]
    apart = np.minimum(np.abs(back - ref).max(axis=2),
                       np.abs(back + ref).max(axis=2))
    assert apart.max() <= 1e-9


def test_time_shift(reference):
    # B(t) = A(t - s) over the shifted span tracks the same eigenpairs
    flow, traj, ref_rep = reference
    s = 3.0
    later = et.MatrixFlow(flow.n, lambda t: flow.sampler(t - s),
                          span=(flow.span[0] + s, flow.span[1]))
    got = et.run(later, _config(s))
    assert got.kind == traj.kind
    assert np.abs(got.times - s - traj.times).max() <= 1e-12
    assert np.abs(got.z - traj.z).max() <= 1e-10
    _assert_same_statistics(et.build_report(later, got), ref_rep, 1e-6)
