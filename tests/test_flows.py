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


def _entry_formulas(name, t):
    """The benchmark flows written entry by entry: the oracle for the
    coefficient-table samplers."""
    est, ect = math.exp(math.sin(t)), math.exp(math.cos(t))
    M = np.zeros((7, 7))
    M[0, 0], M[0, 1], M[0, 3] = math.sin(t) + 2.0, est, -est
    M[0, 4], M[0, 5] = 0.5, 1.0 + math.cos(t)
    M[1, 1], M[1, 3], M[1, 4], M[1, 5] = (math.cos(t) - 2.0, 1.0,
                                          math.cos(2.0 * t), 1.0)
    M[2, 2] = -0.12 * t * t + 2.4 * t - 7.0
    M[3, 3], M[3, 4], M[3, 5] = (1.0 / (t + 1.0), math.atan(t),
                                 math.sin(2.0 * t))
    M[4, 4], M[4, 5], M[5, 5] = 1.0, ect, 1.0 / (t + 2.0)
    M[6, 6] = -0.15 * t * t + 3.0 * t - 6.0
    if name == "A_sj":
        M[0, 4] = M[1, 1] = 0.0
        M[2, 2], M[3, 4], M[3, 5] = 1.3 * t - 15.0, 1.0, 2.0 * math.cos(2 * t)
        M[4, 4], M[5, 5], M[6, 6] = -3.0, 6.0 / (t + 2.0), 14.05 - t
    return flows._mirror_upper(M)


# 50 instants across the span, and both sides of the default jumps
_INSTANTS = sorted({*np.linspace(-0.95, 25.0, 44).tolist(),
                    7.995, 8.0, 8.005, 14.495, 14.5, 14.505})


@pytest.mark.parametrize("seed", [None, 7, 123])
def test_table_flows_match_the_entry_formulas(pool, seed):
    # within 16 ulps of the sample's norm (about 8 seen) of the entry
    # formulas and, conjugated, of U^T A U mirrored; exactly symmetric
    rand = None if seed is None else OrthogonalRandomizer.from_seed(7, seed)
    jumps = JumpSchedule((8.0, 14.5))
    variants = {name: flow if rand is None else conjugate(flow, rand)
                for name, flow in pool.items()}
    jumped = with_jumps(variants["A_s"], variants["A_sj"], jumps)
    # conjugation keeps the table form: U^T E_j U is taken once, up front
    assert all(isinstance(flow.sampler, flows._LinearSampler)
               for flow in variants.values())
    assert len(_INSTANTS) >= 50
    for t in _INSTANTS:
        for name, flow in variants.items():
            A = _entry_formulas(name, t)
            if rand is not None:
                A = flows._mirror_upper(rand.U.T @ A @ rand.U)
            B = flow.sample(t)
            assert np.array_equal(B, B.T), (name, t)
            tol = 16 * np.finfo(float).eps * np.linalg.norm(A)
            assert np.abs(B - A).max() <= tol, (name, t)
        active = "A_sj" if 8.0 <= t < 14.5 else "A_s"
        assert np.array_equal(jumped.sample(t), variants[active].sample(t))


def test_conjugate_without_a_basis_keeps_the_generic_product(tmp_path,
                                                             separated_flow):
    # a plain flow and a file flow: U^T A U with its upper triangle
    # mirrored, bit for bit
    rand = OrthogonalRandomizer.from_seed(5, 3)
    plain = separated_flow(5, 1)
    path = tmp_path / "plain.flow"
    write_flow_file(path, plain, t0=0.0, tau=0.5, count=9)
    for flow in (plain, flow_from_file(path)):
        turned = conjugate(flow, rand)
        for k in range(9):
            expected = flows._mirror_upper(rand.U.T @ flow.sample(0.5 * k)
                                           @ rand.U)
            assert np.array_equal(turned.sample(0.5 * k).view(np.uint64),
                                  expected.view(np.uint64))


def test_conjugate_follows_a_replaced_sampler():
    # a builtin flow whose sampler was swapped is conjugated through the
    # new sampler, not through the table it was built from
    rand = OrthogonalRandomizer.from_seed(7, 7)
    flow = builtin_flows()["A_s"]
    table = flow.sampler
    flow.sampler = lambda t: 2.0 * table(t)
    turned = conjugate(flow, rand)
    for t in (0.0, 3.5, 9.0):
        expected = flows._mirror_upper(rand.U.T @ (2.0 * table(t)) @ rand.U)
        assert np.array_equal(turned.sample(t), expected)


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


@pytest.mark.parametrize("seed", [-5, -1, 1.5, 2.0, "7", None, True, False,
                                  np.bool_(True)])
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


@pytest.mark.parametrize("times", [(1.0, math.nan, 2.0), (math.nan,),
                                   (1.0, math.inf), (-math.inf, 1.0)])
def test_jump_schedule_rejects_non_finite_times(times):
    # a NaN among the switches would leave bisect_right's count wrong:
    # with (1, nan, 2) the base flow stayed active on [1, 2)
    with pytest.raises(ValueError, match="jumps must be finite"):
        JumpSchedule(times)


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
    # asymmetry within the flow-file tolerance keeps the upper triangle
    near = M + np.array([[0.0, 0.0], [1e-13, 0.0]])
    assert np.array_equal(constant_flow(near).sample(0.0), M)
    for bad, fault in [([[1.0, 2.0], [3.0, 4.0]], "asymmetric"),
                       (np.ones((2, 3)), "square"),
                       (np.ones(3), "square"),
                       ([[1.0, np.nan], [np.nan, 1.0]], "non-finite"),
                       ([[1.0, np.inf], [np.inf, 1.0]], "non-finite")]:
        with pytest.raises(ValueError, match=fault):
            constant_flow(bad)


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


# entries that take the kernel's % fallback (1e-300, 5e-324, -0.0) and
# two at the edge of its fixed-point form
_EDGE_ENTRIES = [[1e-300, 5e-324, -0.0],
                 [5e-324, 1e16, 99999999999999999.0],
                 [-0.0, 99999999999999999.0, -1e-300]]


def test_write_flow_file_bytes_equal_the_joined_text(tmp_path, separated_flow):
    # the writer formats 4096 // n^2 samples (at least one) per kernel call;
    # the counts span several of those blocks and end in the middle of one
    cases = [(diag_linear_flow(), 13), (separated_flow(5, 3), 13),
             (constant_flow(_EDGE_ENTRIES), 1000)]
    cases += [(separated_flow(n, 3), 3 * max(1, 4096 // n ** 2) + 1)
              for n in (2, 7, 32, 70)]
    for flow, count in cases:
        path = tmp_path / "f.flow"
        write_flow_file(path, flow, t0=-0.25, tau=0.01, count=count)
        expected = _join_based_flow_text(flow, -0.25, 0.01, count)
        assert path.read_bytes() == expected.encode(), (flow.label, count)


def test_write_flow_file_removes_a_partial_file(tmp_path):
    # at n = 7 a block is 4096 // 49 = 83 samples: the sample at t = 1
    # fails after the first block is on disk
    path = tmp_path / "partial.flow"
    for n, t_fail, count in ((2, 0.025, 5), (7, 0.995, 200)):
        on_disk = []

        def sampler(t):
            if t > t_fail:
                on_disk.append(path.stat().st_size)
                raise RuntimeError("sensor dropped out")
            return np.eye(n)

        with pytest.raises(RuntimeError):
            write_flow_file(path, et.MatrixFlow(n, sampler), t0=0.0,
                            tau=0.01, count=count)
        assert not path.exists()
    assert on_disk[0] > 83 * 49


@pytest.mark.parametrize("t0, tau, name", [
    (float("inf"), 0.01, "t0"), (float("-inf"), 0.01, "t0"),
    (float("nan"), 0.01, "t0"), (0.0, float("inf"), "tau"),
    (0.0, float("nan"), "tau"), (0.0, 0.0, "tau"), (0.0, -0.01, "tau")])
def test_write_flow_file_rejects_a_bad_grid_before_opening(tmp_path, t0, tau,
                                                          name):
    # a non-finite t0 would write a header flow_from_file rejects
    path = tmp_path / "grid.flow"
    with pytest.raises(ValueError, match=f"^(sampling gap )?{name}="):
        write_flow_file(path, constant_flow(np.eye(2)), t0=t0, tau=tau,
                        count=3)
    assert not path.exists()


@pytest.mark.parametrize("count", [True, False, 2.5, 3.0, "3", None])
def test_write_flow_file_rejects_a_non_integer_count(tmp_path, count):
    # count=True used to write one sample, count=2.5 to fail mid-file
    path = tmp_path / "count.flow"
    with pytest.raises(ValueError, match=r"^count=.* is not an integer"):
        write_flow_file(path, constant_flow(np.eye(2)), t0=0.0, tau=0.01,
                        count=count)
    assert not path.exists()


def test_write_flow_file_takes_a_numpy_integer_count(tmp_path):
    path = tmp_path / "count.flow"
    write_flow_file(path, diag_linear_flow(), t0=0.0, tau=0.5,
                    count=np.int64(3))
    assert flow_from_file(path).span == (0.0, 1.0)


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


def _past_first_stretch(bad):
    """140 2 x 2 blocks, identities but for ``bad`` (index: block text):
    the loader checks 128 blocks of n = 2 at a time, so 127 and 128
    straddle the first boundary and 130 sits inside the second stretch."""
    assert flows._instant_block(2) == 128
    return [bad.get(k, "1 0\n0 1") for k in range(140)]


@pytest.mark.parametrize("blocks, message", [
    (["1 0.5\n0 1", "1 0\n0 nan"], "sample block 0 is asymmetric"),
    (["1 0\n0 nan", "1 0.5\n0 1"], "sample block 0 has a non-finite"),
    (["1 0\n0 1", "inf 0\n0 1", "1 0.5\n0 1"],
     "sample block 1 has a non-finite"),
    (["1 0\n0 1", "1 0\n0 1", "1 1e-11\n0 1", "1 0\n-inf 1"],
     "sample block 2 is asymmetric"),
    (_past_first_stretch({130: "1 0.5\n0 1"}),
     "sample block 130 is asymmetric"),
    (_past_first_stretch({130: "1 0.5\n0 nan"}),
     "sample block 130 has a non-finite"),
    (_past_first_stretch({130: "1 0.5\n0 1", 131: "nan 0\n0 1"}),
     "sample block 130 is asymmetric"),
    (_past_first_stretch({130: "1 0\n0 nan", 131: "1 0.5\n0 1"}),
     "sample block 130 has a non-finite"),
    (_past_first_stretch({127: "1 0.5\n0 1", 128: "1 0\n0 inf"}),
     "sample block 127 is asymmetric"),
    (_past_first_stretch({127: "-inf 0\n0 1", 128: "1 0.5\n0 1"}),
     "sample block 127 has a non-finite"),
], ids=["asymmetric-then-nan", "nan-then-asymmetric", "inf-first",
        "asymmetric-first", "asymmetric-130", "both-130",
        "asymmetric-130-nan-131", "nan-130-asymmetric-131",
        "asymmetric-127-inf-128", "inf-127-asymmetric-128"])
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
    # (block 130 is in the loader's second check stretch)
    near = "1 0.5\n0.5000000000000004 2"
    path = tmp_path / "near.flow"
    path.write_text("n=2 tau=0.01 t0=0\n" + "\n\n".join(
        _past_first_stretch({1: near, 130: near})) + "\n")
    loaded = flow_from_file(path)
    assert np.array_equal(loaded.sample(0.01), [[1.0, 0.5], [0.5, 2.0]])
    assert np.array_equal(loaded.sample(1.3), [[1.0, 0.5], [0.5, 2.0]])


def test_flow_file_load_memory_is_bounded(tmp_path, separated_flow):
    # the dense-n32 benchmark's file size: the checks and the mirroring
    # work a few blocks at a time in place, so the loader holds little
    # beyond the sample array itself (a full-size copy would be 2x)
    path = tmp_path / "n32.flow"
    n, count = 32, 401
    flow = separated_flow(n, 2)
    write_flow_file(path, flow, t0=0.0, tau=0.01, count=count)
    tracemalloc.start()
    try:
        loaded = flow_from_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * count * n * n * 8
    assert loaded.span[1] == pytest.approx(0.01 * (count - 1))
    for k in (0, 9, count - 1):
        assert np.array_equal(loaded.sample(0.01 * k),
                              flow.sample(0.01 * k))
