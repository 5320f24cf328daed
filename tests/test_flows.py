"""Benchmark flows, conjugation, jump composition, and the file format."""

import math
import tracemalloc
import warnings

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
        wa, wb = et.sym_eig_batch(np.stack([A, B]))[0]
        assert wb == pytest.approx(wa, abs=1e-10)


def test_randomizer_determinism():
    U1 = OrthogonalRandomizer.from_seed(7, 5).U
    U2 = OrthogonalRandomizer.from_seed(7, 5).U
    U3 = OrthogonalRandomizer.from_seed(7, 6).U
    assert np.array_equal(U1, U2)
    assert not np.array_equal(U1, U3)
    assert np.linalg.norm(U1.T @ U1 - np.eye(7)) < 1e-12


@pytest.mark.parametrize("seed", [-5, -1, 1.5, 2.0, "7", None])
def test_randomizer_rejects_a_bad_seed(seed):
    # random.Random(-5) would quietly reuse seed 5's basis
    with pytest.raises(ValueError, match="seed must be a non-negative"):
        OrthogonalRandomizer.from_seed(7, seed)


def test_randomizer_takes_numpy_integer_seeds():
    U = OrthogonalRandomizer.from_seed(7, np.int64(5)).U
    assert np.array_equal(U, OrthogonalRandomizer.from_seed(7, 5).U)


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
    for header, field in (("n=2 tau=0.01", "t0"), ("n=2 tau=nan t0=0", "tau"),
                          ("n=2 tau=0.01 t0=inf", "t0")):
        path.write_text(header + "\n1 0\n0 1\n")
        with pytest.raises(FlowFileError, match=field):
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


# ------------------------------------------------------- flow file reader

def _join_based_flow_text(flow, t0, tau, count):
    """The file text as the first writer built it: every line in one list,
    joined once.  Kept as the oracle for the block-by-block writer."""
    out = [f"n={flow.n} tau={tau:.17g} t0={t0:.17g}"]
    for k in range(count):
        for row in flow.sample(t0 + k * tau):
            out.append(" ".join(f"{x:.17g}" for x in row))
        out.append("")
    return "\n".join(out)


def _recorded(flow, count, t0=0.0, tau=0.01):
    return np.array([flow.sample(t0 + k * tau) for k in range(count)])


def test_write_flow_file_bytes_equal_the_joined_text(tmp_path, separated_flow):
    for flow in (diag_linear_flow(), separated_flow(5, 3)):
        path = tmp_path / "f.flow"
        write_flow_file(path, flow, t0=-0.25, tau=0.01, count=13)
        expected = _join_based_flow_text(flow, -0.25, 0.01, 13)
        assert path.read_bytes() == expected.encode()


def test_write_flow_file_removes_a_partial_file(tmp_path):
    def sampler(t):
        if t > 0.025:
            raise RuntimeError("sensor dropped out")
        return np.eye(2)

    path = tmp_path / "partial.flow"
    with pytest.raises(RuntimeError):
        write_flow_file(path, et.MatrixFlow(2, sampler), t0=0.0, tau=0.01,
                        count=5)
    assert not path.exists()


def test_flow_file_samples_are_bit_exact(tmp_path, separated_flow):
    flow = separated_flow(9, 4)
    path = tmp_path / "dense.flow"
    write_flow_file(path, flow, t0=0.0, tau=0.01, count=30)
    loaded = _recorded(flow_from_file(path), 30)
    expected = _recorded(flow, 30)
    assert np.array_equal(loaded.view(np.uint64), expected.view(np.uint64))


_PLAIN = "n=2 tau=0.5 t0=1\n1 2\n2 3\n\n4 -5\n-5 6\n\n0.5 0\n0 7\n"


@pytest.mark.parametrize("text", [
    _PLAIN.replace("\n", "\r\n"),
    _PLAIN.replace(" ", "\t"),
    _PLAIN.replace("\n\n", "\n\n \n\t\n\n"),
    _PLAIN.replace("1 2\n", "  1 \t 2  \n"),
    _PLAIN.rstrip("\n"),
    _PLAIN.rstrip("\n").replace("\n", "\r\n") + "\r\n\r\n   ",
], ids=["crlf", "tabs", "blank-runs", "padded-row", "no-final-newline",
        "crlf-trailing-blanks"])
def test_flow_file_layouts_read_the_same(tmp_path, text):
    path = tmp_path / "plain.flow"
    path.write_text(_PLAIN)
    expected = _recorded(flow_from_file(path), 3, t0=1.0, tau=0.5)
    path.write_bytes(text.encode())
    loaded = flow_from_file(path)
    assert loaded.span == (1.0, 2.0)
    assert np.array_equal(_recorded(loaded, 3, t0=1.0, tau=0.5), expected)


@pytest.mark.parametrize("body, message", [
    ("1 0\n0 1\n\n1 0 0\n0 1\n", "sample block 1 row 1"),
    ("1 0\n0 1\n\n1 0\n0\n", "sample block 1 row 2"),
    ("1 0 0\n0 1 0\n", "sample block 0 row 1 has 3 entries"),
    ("1 0\n0 1\n\n1 0\n\n1 0\n0 1\n", "sample block 1 has 1 rows"),
    ("1 0\n0 1\n\n1 0\n0 1\n0 1\n", "sample block 1 has 3 rows"),
    ("1 0\n0 1\n\n1 0\n0 x\n\n1\n", "sample block 1 row 2"),
], ids=["long-row", "short-row", "wide-first-row", "short-block",
        "long-block", "bad-token-before-short-block"])
def test_flow_file_shape_errors_name_the_block(tmp_path, body, message):
    path = tmp_path / "bad.flow"
    path.write_text("n=2 tau=0.01 t0=0\n" + body)
    with pytest.raises(FlowFileError, match=message):
        flow_from_file(path)


@pytest.mark.parametrize("text", ["n=2 tau=0.01 t0=0\n",
                                  "n=2 tau=0.01 t0=0",
                                  "n=2 tau=0.01 t0=0\n\n  \n\t\n"])
def test_flow_file_header_only(tmp_path, text):
    path = tmp_path / "empty.flow"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FlowFileError, match="no sample blocks found"):
            flow_from_file(path)


def test_flow_file_empty(tmp_path):
    path = tmp_path / "empty.flow"
    path.write_text("")
    with pytest.raises(FlowFileError, match="empty flow file"):
        flow_from_file(path)


@pytest.mark.parametrize("token", ["#", "1#", "#1", "abc", "1_000",
                                   "١", "0x1", "1,0", "1e", "--1"])
def test_flow_file_non_numeric_tokens_rejected(tmp_path, token):
    path = tmp_path / "bad.flow"
    path.write_text(f"n=2 tau=0.01 t0=0\n1 0\n0 1\n\n1 0\n0 {token}\n")
    with pytest.raises(FlowFileError, match="sample block 1 row 2"):
        flow_from_file(path)


_NUMERALS = ["-0.0", "0", "5e-324", "-5e-324", "2.2250738585072014e-308",
             "1.7976931348623157e+308", "0.10000000000000001",
             "-1.2345678901234567", "12345678901234567", "1.", ".5", "-.5",
             "+1.5", "1e5", "1E+05", "2.5e-3", "-7.25E-03", "+.5e1"]


def test_flow_file_numerals_equal_python_float(tmp_path):
    # one number per 1 x 1 block, so every numeral is a sample of its own
    path = tmp_path / "numerals.flow"
    path.write_text("n=1 tau=1 t0=0\n" + "\n\n".join(_NUMERALS) + "\n")
    loaded = flow_from_file(path)
    values = np.array([loaded.sample(float(k))[0, 0]
                       for k in range(len(_NUMERALS))])
    expected = np.array([float(s) for s in _NUMERALS])
    assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("blocks, message", [
    (["1 0.5\n0 1", "1 0\n0 nan"], "sample block 0 is asymmetric"),
    (["1 0\n0 nan", "1 0.5\n0 1"], "sample block 0 has a non-finite"),
    (["1 0\n0 1", "inf 0\n0 1", "1 0.5\n0 1"],
     "sample block 1 has a non-finite"),
    (["1 0\n0 1", "1 0\n0 1", "1 1e-11\n0 1", "1 0\n-inf 1"],
     "sample block 2 is asymmetric"),
], ids=["asymmetric-then-nan", "nan-then-asymmetric", "inf-first",
        "asymmetric-first"])
def test_flow_file_value_errors_name_the_first_bad_block(tmp_path, blocks,
                                                         message):
    path = tmp_path / "bad.flow"
    path.write_text("n=2 tau=0.01 t0=0\n" + "\n\n".join(blocks) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FlowFileError, match=message):
            flow_from_file(path)


def test_flow_file_mirrors_the_upper_triangle(tmp_path):
    # asymmetry below the 1e-12 tolerance is accepted; the lower triangle
    # is then taken from the upper one, so every sample is exactly symmetric
    path = tmp_path / "near.flow"
    path.write_text("n=2 tau=0.01 t0=0\n1 0\n0 1\n\n"
                    "1 0.5\n0.5000000000000004 2\n")
    loaded = flow_from_file(path)
    assert np.array_equal(loaded.sample(0.01), [[1.0, 0.5], [0.5, 2.0]])


def test_flow_file_load_memory_is_bounded(tmp_path, separated_flow):
    path = tmp_path / "big.flow"
    n, count = 24, 150
    write_flow_file(path, separated_flow(n, 2), t0=0.0, tau=0.01, count=count)
    sample_bytes = count * n * n * 8
    tracemalloc.start()
    try:
        loaded = flow_from_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.span[1] == pytest.approx(0.01 * (count - 1))
    assert peak <= 4 * sample_bytes
