"""Static eigensolver and bordered-system solver tests.

Oracles are independent of the implementation: closed-form 2x2
eigenvalues, characteristic-polynomial roots for 3x3, and numpy's
general solver for linear systems.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigentrack as et
from eigentrack import densela, znn
from eigentrack.densela import (AsymmetryError, MatrixShapeError,
                                bordered_stack, solve_batch, solve_bordered,
                                sym_eig_batch)
from eigentrack.flows import builtin_flows

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def random_symmetric(rng, n, scale=1.0):
    M = rng.standard_normal((n, n)) * scale
    return (M + M.T) / 2.0


def eig_one(A):
    """``sym_eig_batch`` on a stack of one matrix: (w, V)."""
    w, V = sym_eig_batch(np.asarray(A, dtype=float)[None])
    return w[0], V[0]


def solve_one(P, q):
    """``solve_batch`` on a stack of one system: its report."""
    return solve_batch(np.asarray(P, dtype=float)[None],
                       np.asarray(q, dtype=float)[None])[0]


# -------------------------------------------------------------- sym_eig_batch

def test_identity_decomposition():
    w, V = eig_one(np.eye(3))
    assert np.array_equal(w, np.ones(3))
    assert np.array_equal(V, np.eye(3))


def test_diagonal_matrix_sorted_and_signed():
    w, V = eig_one(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(w, np.array([1.0, 2.0, 3.0]))
    want = np.zeros((3, 3))
    want[1, 0] = want[2, 1] = want[0, 2] = 1.0   # e2, e3, e1 columns
    assert np.array_equal(V, want)


def test_two_by_two_closed_form(rng):
    for _ in range(25):
        a, b, c = rng.standard_normal(3) * 3.0
        A = np.array([[a, b], [b, c]])
        mid, rad = (a + c) / 2.0, np.hypot((a - c) / 2.0, b)
        w, V = eig_one(A)
        assert w == pytest.approx([mid - rad, mid + rad], abs=1e-12)
        R = A @ V - V * w
        assert np.abs(R).max() < 1e-12


def test_three_by_three_characteristic_polynomial(rng):
    for _ in range(10):
        A = random_symmetric(rng, 3, scale=2.0)
        tr = np.trace(A)
        m2 = (A[0, 0] * A[1, 1] - A[0, 1] ** 2
              + A[0, 0] * A[2, 2] - A[0, 2] ** 2
              + A[1, 1] * A[2, 2] - A[1, 2] ** 2)
        det = np.linalg.det(A)
        roots = np.sort(np.roots([1.0, -tr, m2, -det]).real)
        w, _ = eig_one(A)
        assert w == pytest.approx(roots, abs=1e-9)


def test_benchmark_matrix_invariants():
    A = builtin_flows()["A_s"].sample(0.7)
    w, V = eig_one(A)
    n = A.shape[0]
    assert np.linalg.norm(V.T @ V - np.eye(n)) <= 1e-10
    assert np.linalg.norm(A @ V - V * w) <= 1e-10 * max(1.0, np.linalg.norm(A))
    assert np.linalg.norm(V * w @ V.T - A) <= 1e-9
    assert (np.diff(w) >= 0).all()


def test_eigenvector_sign_convention(rng):
    # largest-magnitude component of every eigenvector is positive
    A = random_symmetric(rng, 5)
    _, V = eig_one(A)
    for i in range(5):
        col = V[:, i]
        assert col[np.argmax(np.abs(col))] > 0


def test_asymmetric_input_rejected():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(AsymmetryError):
        eig_one(M)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        eig_one(np.array([[1.0, bad], [bad, 1.0]]))
    stack = np.stack([np.eye(2), np.array([[1.0, 0.0], [0.0, bad]])])
    with pytest.raises(ValueError, match="matrix 1 "):
        sym_eig_batch(stack)
    # finite entries whose norm overflows: the overflow the check
    # detects must not surface first as a warning (an error here)
    with pytest.raises(ValueError, match="matrix 0 .* overflows"):
        sym_eig_batch(np.full((1, 3, 3), 1e200))


_LEAST_SQUARES = """
import sys
import numpy as np
from eigentrack.densela import solve_batch
# singular, so the system reaches the least-squares fallback
P, q = np.diag([1.0, 0.0, 1.0]), np.ones(3)
(P if sys.argv[1] == "P" else q).flat[1] = float(sys.argv[2])
try:
    rep = solve_batch(P[None], q[None])
except np.linalg.LinAlgError as exc:
    print("LinAlgError:", exc)
else:
    print("returned", rep.lstsq, rep.x)
"""


@pytest.mark.parametrize("where", ["P", "q"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_least_squares_rejects_non_finite_input(bad, where):
    # LAPACK's least-squares driver spins on a non-finite P and returns
    # NaN for a non-finite q, so the call runs in a child process: a hang
    # fails this test at the timeout instead of stalling the suite
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _LEAST_SQUARES, where, bad], env=env,
        capture_output=True, text=True, timeout=30, check=True)
    assert proc.stdout.strip() == (
        f"LinAlgError: least-squares system with a non-finite entry in "
        f"{where}")


def test_bad_shapes_rejected():
    with pytest.raises(MatrixShapeError):
        eig_one(np.ones((2, 3)))
    with pytest.raises(MatrixShapeError):
        sym_eig_batch(np.ones((4, 4)))


def test_batch_equals_scalar(rng):
    As = np.stack([random_symmetric(rng, 4) for _ in range(6)])
    w_b, V_b = sym_eig_batch(As)
    for i in range(6):
        w, V = eig_one(As[i])
        assert np.array_equal(w_b[i], w)
        assert np.array_equal(V_b[i], V)


def test_batch_equals_numpy_eigh_with_the_sign_rule(rng):
    # the sign rule's reference: each column scaled by the sign of its
    # first entry of largest magnitude
    flow = builtin_flows()["A_sj"]
    stacks = [np.stack([random_symmetric(rng, n) for _ in range(5)])
              for n in (2, 3, 7)]
    stacks.append(np.stack([flow.sample(t) for t in (0.0, 0.7, 8.0, 14.5)]))
    for As in stacks:
        w_b, V_b = sym_eig_batch(As)
        for A, w, V in zip(As, w_b, V_b):
            w_ref, V_ref = np.linalg.eigh(A)
            cols = np.arange(len(A))
            signs = np.sign(V_ref[np.argmax(np.abs(V_ref), axis=0), cols])
            assert np.array_equal(w, w_ref)
            assert np.array_equal(V, V_ref * signs)


def test_batch_with_mixed_difficulty(rng):
    # a nearly diagonal member must not perturb a generic one
    easy = np.diag([1.0, 2.0, 3.0])
    hard = random_symmetric(rng, 3)
    w_b, V_b = sym_eig_batch(np.stack([easy, hard]))
    assert np.array_equal(w_b[0], np.array([1.0, 2.0, 3.0]))
    assert np.linalg.norm(hard @ V_b[1] - V_b[1] * w_b[1]) < 1e-10


# -------------------------------------------------------------------- solve

def test_solve_well_conditioned(rng):
    for _ in range(20):
        P = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        q = rng.standard_normal(5)
        rep = solve_one(P, q)
        assert rep.method == "direct"
        assert 0.0 < rep.rpr <= 1.0
        assert rep.x == pytest.approx(np.linalg.solve(P, q), rel=1e-9)


def test_solve_singular_minimum_norm():
    rep = solve_one(np.diag([1.0, 0.0]), np.array([3.0, 0.0]))
    assert rep.method == "least-squares"
    assert rep.x == pytest.approx([3.0, 0.0], abs=1e-12)


def test_solve_singular_inconsistent_rhs():
    # unsatisfiable second row: least-squares keeps the consistent part
    rep = solve_one(np.diag([1.0, 0.0]), np.array([3.0, 5.0]))
    assert rep.method == "least-squares"
    assert rep.x == pytest.approx([3.0, 0.0], abs=1e-12)


def test_solve_near_singular_takes_least_squares():
    # not exactly singular, so LU succeeds; the amplification ratio
    # ||q|| / (||P||_F ||x||) ~ 1e-14 is what sends it to the fallback
    P = np.diag([1.0, 1e-14])
    q = np.array([1.0, 1.0])
    rep = solve_one(P, q)
    assert rep.method == "least-squares"
    assert rep.x == pytest.approx(
        np.linalg.lstsq(P, q, rcond=None)[0], rel=1e-12)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_solve_fallback_choice_is_scale_free(rng, scale):
    generic = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    near = np.diag([1.0, 2.0, 3.0, 1e-14])
    Ps = np.stack([generic, near, generic.T @ generic])
    qs = rng.standard_normal((3, 4))
    reports = solve_batch(scale * Ps, scale * qs)
    assert [r.method for r in reports] == ["direct", "least-squares",
                                           "direct"]
    for rep in reports:
        if rep.method == "direct":
            assert 0.0 < rep.rpr <= 1.0


def test_solve_fallback_rule_holds_where_squared_norms_overflow():
    # ||q|| / (||P||_F ||x||) is about 1e-2, so the solve is direct,
    # while ||P||_F^2 ||x||^2 (about 1e310) is past the float range and
    # ||q||^2 (1e306) is not: the squared rule must not compare q2 with
    # an overflowed product
    P = 1e78 * np.diag([1.0, 1e-2])
    rep = solve_one(P, np.array([0.0, 1e153]))
    assert rep.method == "direct"
    assert rep.x == pytest.approx([0.0, 1e77], rel=1e-15)
    assert rep.rpr == pytest.approx(1e-2 / np.sqrt(1.0001), rel=1e-15)


def test_solve_augmented_zero_rows():
    rep = solve_one(np.diag([1.0, 0.0]), np.array([3.0, 0.0]))
    assert rep.method == "least-squares"
    assert rep.x == pytest.approx([3.0, 0.0], abs=1e-12)
    assert rep.rpr < 1e-12


def test_solve_batch_matches_scalar(rng):
    Ps = np.stack([rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
                   for _ in range(5)])
    qs = rng.standard_normal((5, 4))
    reports = solve_batch(Ps, qs)
    for i, rep in enumerate(reports):
        single = solve_one(Ps[i], qs[i])
        assert np.array_equal(rep.x, single.x)
        assert rep.method == single.method
        # the stacked kernel is numpy.linalg.solve's own
        assert np.array_equal(rep.x, np.linalg.solve(Ps[i], qs[i]))


def test_solve_batch_mixed_singular(rng):
    good = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    bad = np.zeros((3, 3))
    bad[0, 0] = 1.0
    Ps = np.stack([good, bad])
    qs = np.stack([np.ones(3), np.array([2.0, 0.0, 0.0])])
    reports = solve_batch(Ps, qs)
    assert reports[0].method == "direct"
    assert reports[1].method == "least-squares"
    assert reports[0].x == pytest.approx(np.linalg.solve(good, np.ones(3)),
                                         rel=1e-9)
    assert reports[1].x == pytest.approx([2.0, 0.0, 0.0], abs=1e-12)


def test_solve_batch_report_arrays(rng):
    Ps = np.stack([rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
                   for _ in range(3)])
    qs = rng.standard_normal((3, 4))
    rep = solve_batch(Ps, qs)
    assert rep.x.shape == (3, 4) and rep.rpr.shape == (3,)
    assert len(rep) == 3
    assert rep.lstsq.dtype == bool and not rep.lstsq.any()
    for b, single in enumerate(rep):
        assert single.method == "direct"
        assert np.array_equal(single.x, rep.x[b])
        assert single.rpr == rep.rpr[b]


def test_solve_batch_mixed_keeps_per_system_labels(rng):
    # an exactly singular member comes back from LAPACK as NaN, with no
    # warning under the suite's "error" filter, and falls back alone;
    # the second stack is singular in every member
    good = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    bad = np.diag([1.0, 0.0, 2.0])
    for middle in (good, bad):
        Ps = np.stack([bad, middle, bad])
        rep = solve_batch(Ps, np.ones((3, 3)))
        assert rep.lstsq.tolist() == [True, middle is bad, True]
        for b in np.flatnonzero(rep.lstsq):
            assert np.array_equal(
                rep.x[b], np.linalg.lstsq(Ps[b], np.ones(3), rcond=None)[0])
            assert rep.x[b] == pytest.approx([1.0, 0.0, 0.5], abs=1e-12)
            assert rep.rpr[b] < 1e-12
        if middle is good:
            assert np.array_equal(rep.x[1], np.linalg.solve(good, np.ones(3)))


def test_fallback_members_take_lstsq_bits_and_the_direct_one_solve_bits(rng):
    # two singular members around a regular one, in one stack: each
    # fallback member is numpy.linalg.lstsq's minimum-norm solution with
    # sigma_min / sigma_max as its indicator, and the direct member keeps
    # numpy.linalg.solve's bits
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    near = U @ np.diag([3.0, 2.0, 1.0, 1e-14]) @ U.T
    good = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    Ps = np.stack([np.diag([2.0, 0.0, 1.0, 4.0]), good, near])
    qs = rng.standard_normal((3, 4))
    rep = solve_batch(Ps, qs)
    assert rep.lstsq.tolist() == [True, False, True]
    for b in (0, 2):
        x, _, _, sv = np.linalg.lstsq(Ps[b], qs[b], rcond=None)
        assert np.array_equal(rep.x[b], x)
        assert rep.rpr[b] == sv[-1] / sv[0]
        assert rep[b].method == "least-squares"
    assert np.array_equal(rep.x[1], np.linalg.solve(good, qs[1]))
    assert rep[1].method == "direct"


def test_solve_shape_errors():
    with pytest.raises(MatrixShapeError):
        solve_one(np.ones((2, 3)), np.ones(2))
    with pytest.raises(MatrixShapeError):
        solve_one(np.eye(3), np.ones(4))
    with pytest.raises(MatrixShapeError):
        solve_batch(np.ones((2, 3, 3)), np.ones((3, 3)))


def test_norm_helpers():
    assert densela.fro_norm(np.array([[3.0, 0.0], [0.0, 4.0]])) == 5.0


# ---------------------------------------------------------- solve_bordered

def _dense_route(A, Z, qs):
    return solve_batch(bordered_stack(A, Z), qs)


def _assert_same_bits(rep, want):
    assert np.array_equal(rep.x, want.x)
    assert np.array_equal(rep.lstsq, want.lstsq)
    assert np.array_equal(rep.rpr, want.rpr)


@pytest.fixture
def dense_calls(monkeypatch):
    """Counts the systems solve_bordered sends to the dense route."""
    calls = []
    real = densela.solve_batch

    def spy(Ps, qs):
        calls.append(len(Ps))
        return real(Ps, qs)
    monkeypatch.setattr(densela, "solve_batch", spy)
    return calls


@pytest.mark.parametrize("n", [densela._BASIS_MIN_N, 20, 32, 64])
def test_solve_bordered_matches_dense_on_separated_flows(
        rng, separated_flow, dense_calls, n):
    # tracked pairs from a run, so X is near but not exactly orthonormal
    flow = separated_flow(n, seed=n)
    assert n >= densela._BASIS_MIN_N
    traj = et.run(flow, et.SolverConfig(preset="ifd5", tau=0.005, eta=4.5,
                                        tf=0.1))
    for k in (5, 12, 20):
        A, Z = flow.sample(traj.times[k]), traj.z[k]
        qs = rng.standard_normal((n, n + 1))
        rep, want = solve_bordered(A, Z, qs), _dense_route(A, Z, qs)
        assert not dense_calls
        assert not rep.lstsq.any() and not want.lstsq.any()
        err = np.linalg.norm(rep.x - want.x, axis=1)
        assert (err <= 1e-12 * np.linalg.norm(want.x, axis=1)).all()
        assert rep.rpr == pytest.approx(want.rpr, rel=1e-9)


@pytest.mark.parametrize("n", [3, 7, densela._BASIS_MIN_N - 1])
def test_solve_bordered_below_switch_is_the_dense_route(rng, n):
    A = random_symmetric(rng, n)
    Z = rng.standard_normal((n, n + 1))
    qs = rng.standard_normal((n, n + 1))
    rep, want = solve_bordered(A, Z, qs), _dense_route(A, Z, qs)
    assert np.array_equal(rep.x, want.x)
    assert np.array_equal(rep.rpr, want.rpr)
    assert np.array_equal(rep.lstsq, want.lstsq)
    with pytest.raises(MatrixShapeError):       # fewer pairs than n
        solve_bordered(A, Z[:-1], qs[:-1])


def test_solve_bordered_far_from_orthonormal_is_the_dense_route(
        rng, dense_calls):
    # the transformed residual says little about the original one when
    # X is badly conditioned, so such a state is solved densely
    n = 20
    X = np.eye(n)
    X[1, 0] = 0.9
    A = np.diag(np.arange(n, dtype=float))
    Z = np.hstack([X, np.arange(n, dtype=float)[:, None]])
    qs = rng.standard_normal((n, n + 1))
    rep, want = solve_bordered(A, Z, qs), _dense_route(A, Z, qs)
    assert dense_calls == [n]
    assert np.array_equal(rep.x, want.x)
    assert np.array_equal(rep.lstsq, want.lstsq)


@pytest.mark.filterwarnings("error")
def test_solve_bordered_exact_collision_takes_least_squares(rng,
                                                            dense_calls):
    # pairs 3 and 4 share an eigenvalue exactly: their preconditioner
    # divides by zero, so they go to the dense route and its fallback
    n = 20
    d = np.arange(n, dtype=float)
    d[4] = d[3]
    A = np.diag(d)
    Z = np.hstack([np.eye(n), d[:, None]])
    qs = rng.standard_normal((n, n + 1))
    rep, want = solve_bordered(A, Z, qs), _dense_route(A, Z, qs)
    assert dense_calls == [2]
    assert np.array_equal(rep.lstsq, want.lstsq)
    assert np.flatnonzero(rep.lstsq).tolist() == [3, 4]
    assert np.isfinite(rep.x).all()
    assert rep.x == pytest.approx(want.x, rel=1e-12, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_solve_bordered_all_pairs_collide_in_a_run():
    n = 20
    traj = et.run(et.constant_flow(np.eye(n)),
                  et.SolverConfig(tau=0.01, eta=1.0, tf=0.1))
    predicted = [k for k, kd in enumerate(traj.kind) if kd == "predicted"]
    assert predicted
    for k in predicted:
        assert traj.lstsq[k].all()
    assert np.isfinite(traj.z).all()


def _turned_eigenpairs(n, angle, seed):
    """A separated matrix, its eigenpairs with the vectors turned by an
    orthogonal Q = Cayley(angle * S), S a seeded skew matrix, and a
    right-hand side stack: ``(A, Z, qs)``."""
    U = et.OrthogonalRandomizer.from_seed(n, seed).U
    A = U.T @ np.diag(np.arange(n, dtype=float)) @ U
    A = (A + A.T) / 2
    w, V = sym_eig_batch(A[None])
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n))
    S = (S - S.T) / 2
    eye = np.eye(n)
    Q = np.linalg.solve(eye - 0.5 * angle * S, eye + 0.5 * angle * S)
    Z = np.hstack([Q @ V[0].T, w[0][:, None]])
    return A, Z, rng.standard_normal((n, n + 1))


@pytest.mark.parametrize("n", [7, 20])
def test_a_zero_rhs_is_direct_with_rpr_one_on_both_routes(dense_calls, n):
    # q = 0 gives y = 0, which passes the amplification test, and rpr 1;
    # n = 7 takes the dense route, n = 20 the eigenbasis
    A, Z, qs = _turned_eigenpairs(n, 1e-8, seed=5)
    qs[3] = 0.0
    rep = solve_bordered(A, Z, qs)
    if n < densela._BASIS_MIN_N:
        _assert_same_bits(rep, _dense_route(A, Z, qs))
    else:
        assert not dense_calls
    assert not rep.lstsq.any()
    assert rep.rpr[3] == 1.0 and not rep.x[3].any()
    assert (rep.rpr < 1.0).sum() == n - 1


def _work_arrays(work):
    """Every array a BasisWork holds, its bordered stack's included."""
    stack = vars(work.stack) if hasattr(work, "stack") else {}
    return [buf for buf in (*vars(work).values(), *stack.values())
            if isinstance(buf, np.ndarray)]


def _dense_route_states(rng, n):
    """States of the dense route at n pairs: random, a q = 0 row, an
    exactly colliding pair (singular members: NaN from the stacked
    solve, then least squares) and a nearly colliding one (LU, then
    least squares)."""
    states = []
    for _ in range(2):
        states.append((random_symmetric(rng, n),
                       rng.standard_normal((n, n + 1)),
                       rng.standard_normal((n, n + 1))))
    A, Z, qs = _turned_eigenpairs(n, 1e-8, seed=n)
    qs[n // 2] = 0.0
    states.append((A, Z, qs))
    for gap in (0.0, 1e-15):
        d = np.arange(n, dtype=float)
        d[1] = d[0] + gap
        states.append((np.diag(d), np.hstack([np.eye(n), d[:, None]]),
                       rng.standard_normal((n, n + 1))))
    return states


@pytest.mark.parametrize("n", [2, 7, densela._BASIS_MIN_N - 1])
def test_dense_route_in_work_arrays_equals_a_fresh_stack(rng, n):
    states = _dense_route_states(rng, n)
    wants = [_dense_route(*state) for state in states]
    assert not wants[0].lstsq.any() and not wants[2].lstsq.any()
    assert wants[2].rpr[n // 2] == 1.0 and not wants[2].x[n // 2].any()
    for want in wants[3:]:            # both colliding pairs fall back
        assert want.lstsq.tolist() == [True, True] + [False] * (n - 2)
    work = densela.BasisWork(n)
    # each state twice through one work object, and once more without
    for state, want in [*zip(states, wants), *zip(states, wants)]:
        rep = solve_bordered(*state, work)
        _assert_same_bits(rep, want)
        _assert_same_bits(solve_bordered(*state), want)
        # the report is the caller's to keep: no array of it is a work
        # array
        for arr in (rep.x, rep.lstsq, rep.q2, rep.P2, rep.x2, rep.rpr,
                    rep.fallback_rpr):
            assert arr is None or not any(
                np.shares_memory(arr, buf) for buf in _work_arrays(work))
    # the border corners are never written
    assert not work.stack.P[:, n, n].any()


@pytest.mark.parametrize("n", [2, 7, densela._BASIS_MIN_N - 1])
def test_rpr_of_a_fixed_point_is_read_without_a_warning(rng, n):
    # at exact eigenpairs of a constant flow q is 0 (a diagonal A) or
    # roundoff; rpr is derived on this first read, outside run's
    # error state, under the suite's "error" warning filter
    diagonal = np.diag(np.arange(n, dtype=float))
    for A in (diagonal, random_symmetric(rng, n)):
        w, V = sym_eig_batch(A[None])
        Z = np.hstack([V[0].T, w[0][:, None]])
        qs = znn._rhs_batch(A, np.zeros((n, n)), Z, eta=4.5, mu=4.5)
        rep = solve_bordered(A, Z, qs, densela.BasisWork(n))
        assert not rep.lstsq.any()
        assert ((0.0 < rep.rpr) & (rep.rpr <= 1.0)).all()
        if A is diagonal:
            assert not qs.any()
            assert (rep.rpr == 1.0).all() and not rep.x.any()


def test_solve_bordered_unsettled_after_the_last_sweep_is_dense(
        monkeypatch, dense_calls):
    # vectors turned by about 1e-5 need more than one refinement sweep
    n = 24
    A, Z, qs = _turned_eigenpairs(n, 1e-5, seed=3)
    want = _dense_route(A, Z, qs)
    rep = solve_bordered(A, Z, qs)
    assert not dense_calls
    assert not rep.lstsq.any() and not want.lstsq.any()
    err = np.linalg.norm(rep.x - want.x, axis=1)
    assert (err <= 1e-12 * np.linalg.norm(want.x, axis=1)).all()
    monkeypatch.setattr(densela, "_BASIS_SWEEPS", 1)
    rep = solve_bordered(A, Z, qs)
    assert dense_calls == [n]
    assert np.array_equal(rep.x, want.x)
    assert np.array_equal(rep.rpr, want.rpr)
    assert np.array_equal(rep.lstsq, want.lstsq)


@pytest.mark.filterwarnings("error")
def test_solve_bordered_work_arrays_carry_nothing_between_calls(rng):
    # the same work arrays through a state that needs sweeps, the
    # exact-collision state (its unusable pairs take the branch that
    # zeroes rows) and the first state again: a fresh call's bits
    n = 20
    A, Z, qs = _turned_eigenpairs(n, 1e-5, seed=7)
    d = np.arange(n, dtype=float)
    d[4] = d[3]
    collide = (np.diag(d), np.hstack([np.eye(n), d[:, None]]),
               rng.standard_normal((n, n + 1)))
    work = densela.BasisWork(n)
    first = solve_bordered(A, Z, qs, work)
    assert np.flatnonzero(
        solve_bordered(*collide, work).lstsq).tolist() == [3, 4]
    again, fresh = solve_bordered(A, Z, qs, work), solve_bordered(A, Z, qs)
    for rep in (first, again):
        assert np.array_equal(rep.x, fresh.x)
        assert np.array_equal(rep.lstsq, fresh.lstsq)
        assert np.array_equal(rep.rpr, fresh.rpr)
    # the report is the caller's to keep: no array of it is a work array
    for arr in (again.x, again.lstsq, again.rpr):
        assert not any(np.shares_memory(arr, buf)
                       for buf in _work_arrays(work))
    with pytest.raises(MatrixShapeError):
        solve_bordered(A, Z, qs, densela.BasisWork(n + 1))
    # exactly the n pairs of the n x n matrix, with or without work arrays
    for m in (n - 1, n + 1):
        with pytest.raises(MatrixShapeError):
            solve_bordered(A, np.resize(Z, (m, n + 1)),
                           np.resize(qs, (m, n + 1)))
    with pytest.raises(MatrixShapeError):
        solve_bordered(A, Z[:3], qs[:3], work)


def test_solve_bordered_near_crossing(rng):
    # two eigenvalues 1e-6 apart: either settled in the basis and close
    # to the dense solution, or sent to the dense route
    n = 24
    d = np.arange(n, dtype=float)
    d[8] = d[7] + 1e-6
    U = et.OrthogonalRandomizer.from_seed(n, 3).U
    A = U.T @ np.diag(d) @ U
    A = (A + A.T) / 2
    w, V = sym_eig_batch(A[None])
    Z = np.hstack([V[0].T, w[0][:, None]])
    qs = rng.standard_normal((n, n + 1))
    rep, want = solve_bordered(A, Z, qs), _dense_route(A, Z, qs)
    assert np.array_equal(rep.lstsq, want.lstsq)
    err = np.linalg.norm(rep.x - want.x, axis=1)
    assert (err <= 1e-8 * np.linalg.norm(want.x, axis=1)).all()
