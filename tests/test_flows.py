"""Benchmark flows, conjugation, jump composition, and the file format."""

import math

import numpy as np
import pytest

import eigentrack as et
from eigentrack import flows
from eigentrack.flows import (FlowFileError, InterpolationError, JumpSchedule,
                              OrthogonalRandomizer, SpanError, builtin_flows,
                              conjugate, constant_flow, diag_linear_flow,
                              flow_from_file, with_jumps, write_flow_file)


@pytest.fixture(scope="module")
def pool():
    return builtin_flows()


def test_builtin_names_and_shape(pool):
    assert set(pool) == {"A_s", "A_sj"}
    for flow in pool.values():
        A = flow.sample(0.3)
        assert A.shape == (7, 7)
        assert np.array_equal(A, A.T)


@pytest.mark.parametrize("t", [0.0, 0.7, 3.2, 11.0])
def test_smooth_flow_entries(pool, t):
    A = pool["A_s"].sample(t)
    assert A[0, 0] == pytest.approx(math.sin(t) + 2.0, abs=1e-15)
    assert A[0, 1] == pytest.approx(math.exp(math.sin(t)), abs=1e-15)
    assert A[0, 3] == pytest.approx(-math.exp(math.sin(t)), abs=1e-15)
    assert A[0, 4] == 0.5
    assert A[0, 5] == pytest.approx(1.0 + math.cos(t), abs=1e-15)
    assert A[1, 1] == pytest.approx(math.cos(t) - 2.0, abs=1e-15)
    assert A[1, 3] == 1.0
    assert A[1, 4] == pytest.approx(math.cos(2 * t), abs=1e-15)
    assert A[1, 5] == 1.0
    assert A[2, 2] == pytest.approx(-0.12 * t * t + 2.4 * t - 7.0, abs=1e-13)
    assert A[3, 3] == pytest.approx(1.0 / (t + 1.0), abs=1e-15)
    assert A[3, 4] == pytest.approx(math.atan(t), abs=1e-15)
    assert A[3, 5] == pytest.approx(math.sin(2 * t), abs=1e-15)
    assert A[4, 4] == 1.0
    assert A[4, 5] == pytest.approx(math.exp(math.cos(t)), abs=1e-15)
    assert A[5, 5] == pytest.approx(1.0 / (t + 2.0), abs=1e-15)
    assert A[6, 6] == pytest.approx(-0.15 * t * t + 3.0 * t - 6.0, abs=1e-13)
    # the third and seventh coordinates are decoupled from the rest
    assert np.array_equal(A[2, [0, 1, 3, 4, 5, 6]], np.zeros(6))
    assert np.array_equal(A[6, :6], np.zeros(6))


@pytest.mark.parametrize("t", [0.25, 9.0])
def test_jump_variant_deltas(pool, t):
    A = pool["A_s"].sample(t)
    B = pool["A_sj"].sample(t)
    assert B[0, 4] == 0.0
    assert B[1, 1] == 0.0
    assert B[2, 2] == pytest.approx(1.3 * t - 15.0, abs=1e-13)
    assert B[3, 4] == 1.0
    assert B[3, 5] == pytest.approx(2.0 * math.cos(2 * t), abs=1e-15)
    assert B[4, 4] == -3.0
    assert B[5, 5] == pytest.approx(6.0 / (t + 2.0), abs=1e-15)
    assert B[6, 6] == pytest.approx(14.05 - t, abs=1e-13)
    touched = {(0, 4), (1, 1), (2, 2), (3, 4), (3, 5), (4, 4), (5, 5),
               (6, 6)}
    for i in range(7):
        for j in range(i, 7):
            if (i, j) not in touched:
                assert B[i, j] == A[i, j], (i, j)


def test_span_is_enforced(pool):
    with pytest.raises(SpanError):
        pool["A_s"].sample(-1.0)   # 1/(t+1) pole
    pool["A_s"].sample(-0.5)       # inside the span: fine


def test_conjugate_preserves_spectrum(pool):
    rand = OrthogonalRandomizer.from_seed(7, 123)
    flow = conjugate(pool["A_s"], rand)
    for t in (0.0, 2.0, 17.5):
        A, B = pool["A_s"].sample(t), flow.sample(t)
        assert np.array_equal(B, B.T)
        assert np.trace(B) == pytest.approx(np.trace(A), abs=1e-12)
        wa = et.sym_eig(A).eigenvalues
        wb = et.sym_eig(B).eigenvalues
        assert wb == pytest.approx(wa, abs=1e-10)


def test_randomizer_determinism():
    U1 = OrthogonalRandomizer.from_seed(7, 5).U
    U2 = OrthogonalRandomizer.from_seed(7, 5).U
    U3 = OrthogonalRandomizer.from_seed(7, 6).U
    assert np.array_equal(U1, U2)
    assert not np.array_equal(U1, U3)
    assert np.linalg.norm(U1.T @ U1 - np.eye(7)) < 1e-12


def test_randomizer_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        OrthogonalRandomizer(U=np.ones((3, 3)), seed=0)


def test_jump_schedule_validation():
    JumpSchedule((1.0, 2.0))
    with pytest.raises(ValueError):
        JumpSchedule((2.0, 1.0))
    with pytest.raises(ValueError):
        JumpSchedule((1.0, 1.0))


def test_with_jumps_toggles_half_open(pool):
    flow = with_jumps(pool["A_s"], pool["A_sj"], JumpSchedule((1.0, 2.0)))
    base, alt = pool["A_s"], pool["A_sj"]
    assert np.array_equal(flow.sample(0.5), base.sample(0.5))
    assert np.array_equal(flow.sample(1.0), alt.sample(1.0))   # half-open
    assert np.array_equal(flow.sample(1.5), alt.sample(1.5))
    assert np.array_equal(flow.sample(2.0), base.sample(2.0))
    assert np.array_equal(flow.sample(2.5), base.sample(2.5))


def test_mirror_upper_copies_the_upper_triangle(rng):
    M = rng.standard_normal((6, 6))
    S = flows._mirror_upper(M)
    assert np.array_equal(S, S.T)
    assert np.array_equal(np.triu(S), np.triu(M))
    # the cached mask is shared and cannot be written through
    with pytest.raises(ValueError):
        flows._upper_mask(6)[0, 0] = False


def test_constant_and_diag_flows():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    cf = constant_flow(M, label="c2")
    assert np.array_equal(cf.sample(0.0), M)
    assert np.array_equal(cf.sample(123.0), M)
    dl = diag_linear_flow()
    assert np.array_equal(dl.sample(0.5), np.diag([2.5, 5.0]))


# --------------------------------------------------------------- flow files

def test_flow_file_round_trip(tmp_path):
    path = tmp_path / "diag.flow"
    src = diag_linear_flow()
    write_flow_file(path, src, t0=0.0, tau=0.01, count=11)
    loaded = flow_from_file(path)
    assert loaded.n == 2
    for k in range(11):
        t = 0.01 * k
        assert np.array_equal(loaded.sample(t), src.sample(t))


def test_flow_file_off_grid_rejected(tmp_path):
    path = tmp_path / "diag.flow"
    write_flow_file(path, diag_linear_flow(), t0=0.0, tau=0.01, count=5)
    loaded = flow_from_file(path)
    with pytest.raises(InterpolationError):
        loaded.sample(0.005)
    with pytest.raises(SpanError):
        loaded.sample(0.05)


def test_flow_file_bad_header(tmp_path):
    path = tmp_path / "bad.flow"
    path.write_text("n=2 tau=0.01\n1 0\n0 1\n")
    with pytest.raises(FlowFileError):
        flow_from_file(path)


def test_flow_file_wrong_block_size(tmp_path):
    path = tmp_path / "bad.flow"
    path.write_text("n=2 tau=0.01 t0=0\n1 0\n0 1\n\n1 0\n")
    with pytest.raises(FlowFileError):
        flow_from_file(path)


def test_flow_file_asymmetric_block(tmp_path):
    path = tmp_path / "bad.flow"
    path.write_text("n=2 tau=0.01 t0=0\n1 0.5\n0 1\n")
    with pytest.raises(FlowFileError):
        flow_from_file(path)


@pytest.mark.parametrize("entry", [(0, 1, "nan"), (1, 0, "nan"),
                                   (1, 1, "inf")])
def test_flow_file_non_finite_rejected(tmp_path, entry):
    # the upper-triangle NaN would pass the asymmetry check; the lower
    # one would be dropped by mirroring the upper triangle
    i, j, value = entry
    rows = [["1", "0"], ["0", "1"]]
    rows[i][j] = value
    block = "\n".join(" ".join(r) for r in rows)
    path = tmp_path / "bad.flow"
    path.write_text(f"n=2 tau=0.01 t0=0\n1 0\n0 1\n\n{block}\n")
    with pytest.raises(FlowFileError, match="sample block 1"):
        flow_from_file(path)


def test_sample_rejects_non_finite():
    flow = et.MatrixFlow(2, lambda t: np.array([[1.0, np.nan],
                                                [np.nan, 1.0]]), label="bad")
    with pytest.raises(ValueError, match="non-finite"):
        flow.sample(0.0)
