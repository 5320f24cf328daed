"""Static eigensolver and bordered-system solver tests.

Oracles are independent of the implementation: closed-form 2x2
eigenvalues, characteristic-polynomial roots for 3x3, and numpy's
general solver for linear systems.
"""

import numpy as np
import pytest

import eigentrack as et
from eigentrack import densela
from eigentrack.densela import (AsymmetryError, MatrixShapeError,
                                bordered_stack, solve_augmented,
                                solve_batch, solve_bordered, sym_eig_batch)
from eigentrack.flows import builtin_flows


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


def test_solve_augmented_zero_rows():
    rep = solve_augmented(np.diag([1.0, 0.0]), np.array([3.0, 0.0]))
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
    good = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    bad = np.diag([1.0, 0.0, 2.0])
    rep = solve_batch(np.stack([bad, good, bad]), np.ones((3, 3)))
    assert rep.lstsq.tolist() == [True, False, True]
    assert np.array_equal(rep.x[1], np.linalg.solve(good, np.ones(3)))
    assert rep.x[0] == pytest.approx([1.0, 0.0, 0.5], abs=1e-12)
    assert rep.rpr[0] < 1e-12


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
    traj = et.run(flow, et.SolverConfig.from_preset(
        "ifd5", tau=0.005, eta=4.5, tf=0.1))
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
                       for buf in vars(work).values()
                       if isinstance(buf, np.ndarray))
    with pytest.raises(MatrixShapeError):
        solve_bordered(A, Z, qs, densela.BasisWork(n + 1))


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
