"""Metrics, reports, baseline, sweep, and the derivative norms of a run
that never restarts."""

import dataclasses
import math

import numpy as np
import pytest

import eigentrack as et
from eigentrack import harness
from eigentrack.densela import residual
from eigentrack.harness import (_median, build_report, convergence_sweep,
                                naive_baseline, orth_deviation, steady_mask,
                                timed_run)
from eigentrack.znn import SolverConfig, _static_blocks, run


# ------------------------------------------------------------------ metrics

def test_residual_exact_pair_is_zero():
    A = np.diag([2.0, 5.0])
    assert residual(A, np.array([1.0, 0.0, 2.0])) == 0.0


def test_residual_known_value():
    # ||A x - lambda x|| = 0.1 for the off eigenvalue, ||A||_F = sqrt(29)
    A = np.diag([2.0, 5.0])
    r = residual(A, np.array([1.0, 0.0, 2.1]))
    assert r == pytest.approx(0.1 / np.sqrt(29.0), abs=1e-15)


def test_residual_block_and_matrix_metric():
    A = np.diag([2.0, 5.0])
    Z = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 5.0]])
    assert np.array_equal(residual(A, Z), np.zeros(2))
    assert harness._full_matrix(residual(A, Z)[None], Z[None])[0] == 0.0
    Z[0, 2] = 2.1
    per_pair = residual(A, Z)
    full = harness._full_matrix(per_pair[None], Z[None])[0]
    assert per_pair[0] > 0 and per_pair[1] == 0
    # same defect, scaled by ||V||_F = sqrt(2) instead of per-pair norms
    assert full == pytest.approx(per_pair[0] / np.sqrt(2.0), abs=1e-15)


def test_residual_rejects_pairs_of_another_shape():
    A, Z = np.eye(2), np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    for a, z in ((A, Z[None]), (A[None], Z), (np.stack([A, A]), Z[None])):
        with pytest.raises(ValueError, match="cannot score pairs"):
            residual(a, z)


def test_orth_deviation_values():
    block = np.concatenate([np.eye(3), np.ones((3, 1))], axis=1)
    assert orth_deviation(block) == 0.0
    X = np.eye(3)
    X[2, 2] = 0.0                            # one vector vanishes
    assert orth_deviation(X) == 1.0
    assert orth_deviation(2.0 * np.eye(2)) == pytest.approx(np.sqrt(18.0))


def _residual_one_instant(A, Z, metric):
    """Per-instant residual arithmetic, kept as the reference: the stacked
    per-pair form must reproduce it bit for bit, and the full-matrix
    score derived from the per-pair one within a few ulps."""
    n = A.shape[0]
    X, lam = Z[:, :n], Z[:, n]
    R = X @ A.T - lam[:, None] * X
    v = A.ravel()
    a_nrm = math.sqrt(v.dot(v)) or 1.0
    if metric == "pair":
        return np.sqrt(np.add.reduce(R * R, axis=1)) / a_nrm
    v_nrm = np.sqrt((X * X).sum()) or 1.0
    return np.sqrt((R * R).sum()) / (a_nrm * v_nrm)


def _orth_one_instant(Z):
    n = Z.shape[0]
    G = Z[:, :n] @ Z[:, :n].T - np.eye(n)
    v = G.ravel()
    return math.sqrt(v.dot(v))


@pytest.mark.parametrize("n", [7, 32])
def test_stacked_scores_equal_the_per_instant_arithmetic(n, separated_flow):
    flow = separated_flow(n, 11)
    rng = np.random.default_rng(n)
    A = np.stack([flow.sample(0.01 * k) for k in range(402)])
    w, V = np.linalg.eigh(A)
    Z = np.concatenate([V.transpose(0, 2, 1), w[:, :, None]], axis=2)
    Z += 1e-6 * rng.standard_normal(Z.shape)
    for lo, hi in ((0, 402), (0, 64), (100, 356), (401, 402)):
        want = np.array([_residual_one_instant(A[k], Z[k], "pair")
                         for k in range(lo, hi)])
        got = residual(A[lo:hi], Z[lo:hi])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        want = np.array([_orth_one_instant(Z[k]) for k in range(lo, hi)])
        got = orth_deviation(Z[lo:hi])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # the predictor's per-instant calls take the same arithmetic, and
    # a single block or vector has the bits of a stack of one
    for k in (0, 250):
        assert np.array_equal(residual(A[k], Z[k]),
                              _residual_one_instant(A[k], Z[k], "pair"))
        assert orth_deviation(Z[k]) == _orth_one_instant(Z[k])
        for z in (Z[k], Z[k, 2]):                # a block, one vector
            one = residual(A[k:k + 1], z.reshape(1, -1, n + 1))[0]
            got = residual(A[k], z)
            if z.ndim == 2:
                assert got.shape == (n,)
            else:
                assert isinstance(got, float)
            assert np.array_equal(np.ravel(got).view(np.uint64),
                                  np.ravel(one).view(np.uint64))
        assert _bits(orth_deviation(Z[k])) == _bits(
            orth_deviation(Z[k:k + 1])[0])


def _bits(x):
    return np.float64(x).view(np.uint64)


_MEDIAN_CASES = {
    "one": [3.5],
    "odd": [5.0, -1.0, 2.0, 9.0, 0.25],
    "even": [5.0, -1.0, 2.0, 9.0, 0.25, 7.0],
    "two": [1.0, 2.0],
    "odd ties": [2.0, 1.0, 2.0, 2.0, 3.0],
    "even ties": [4.0, 1.0, 4.0, 4.0, 9.0, 4.0],
    "negative zero alone": [-0.0],
    "negative zeros, odd": [-0.0, -0.0, -0.0],
    "negative zeros, even": [-0.0, -0.0],
    "signed zeros, even": [0.0, -0.0, -0.0, 0.0],
    "signed zeros, odd": [-0.0, 1.0, 0.0, -0.0, -1.0],
    "infinities, odd": [np.inf, -np.inf, 1.0, np.inf, -2.0],
    "infinities, even": [np.inf, -np.inf, 1.0, np.inf, -2.0, np.inf],
    "infinite middle": [np.inf, np.inf, 1.0, np.inf],
    "tiny and huge": [5e-324, 1.7976931348623157e308, 1.0, 2.0],
}


@pytest.mark.parametrize("case", list(_MEDIAN_CASES))
def test_median_equals_np_median_bit_for_bit(case):
    values = np.array(_MEDIAN_CASES[case])
    assert _bits(_median(values)) == _bits(np.median(values))


@pytest.mark.parametrize("size", [1, 2, 7, 8, 129, 4000])
def test_median_equals_np_median_on_random_data(size):
    values = np.random.default_rng(size).standard_normal(size)
    values[::3] = np.round(values[::3], 1)        # ties
    assert _bits(_median(values)) == _bits(np.median(values))


@pytest.mark.parametrize("size", [1, 6, 7])
def test_median_of_an_input_with_nan_is_nan(size):
    values = np.linspace(-1.0, 1.0, size)
    values[size // 2] = np.nan
    assert np.isnan(_median(values)) and np.isnan(np.median(values))


@pytest.mark.parametrize("n", [2, 7])
def test_median_of_a_masked_score_selection(n):
    """_steady_stats takes the median of ``score[mask]``, a 2-D selection
    of the per-pair scores; it is the median of all its entries."""
    rng = np.random.default_rng(n)
    score = rng.standard_normal((41, n)) ** 2
    mask = rng.random(41) < 0.6
    selection = score[mask]
    assert selection.ndim == 2
    assert _bits(_median(selection)) == _bits(np.median(selection))
    assert _bits(_median(selection)) == _bits(np.median(selection.ravel()))


# ------------------------------------------------------------ steady window

@pytest.fixture(scope="module")
def short_run():
    rand = et.OrthogonalRandomizer.from_seed(7, 7)
    flow = et.conjugate(et.builtin_flows()["A_s"], rand)
    cfg = SolverConfig(preset="ifd5", tau=0.005, eta=4.5, tf=2.0)
    return flow, run(flow, cfg)


def test_steady_mask_excludes_startup_transient(short_run):
    _, traj = short_run
    mask, windows = steady_mask(traj, traj.residuals)
    s_star = traj.config.s_star
    settle = 2 * s_star + 10
    assert not mask[:settle].any()
    assert mask[settle]
    assert windows[0][0] == "startup"


def test_steady_mask_drops_injected_glitch(short_run):
    _, traj = short_run
    res = traj.residuals.copy()
    mask0, windows0 = steady_mask(traj, res)
    base_glitches = sum(1 for w in windows0 if w[0] == "glitch")
    spike_at = int(np.flatnonzero(mask0)[50])
    res[spike_at, 0] = 1.0                   # absurd residual
    mask, windows = steady_mask(traj, res)
    pad = traj.config.s_star + 10
    assert not mask[spike_at - pad: spike_at + pad + 1].any()
    kinds = [w[0] for w in windows]
    # the run may contain natural glitches of its own; the spike adds one
    assert kinds.count("glitch") == base_glitches + 1


@pytest.fixture(scope="module")
def close_restarts():
    """Twenty jumps 0.04 apart: each restart block starts 4 predicted
    steps after the one before, inside its settling tail."""
    rand = et.OrthogonalRandomizer.from_seed(7, 5)
    pool = et.builtin_flows()
    flow = et.with_jumps(et.conjugate(pool["A_s"], rand),
                         et.conjugate(pool["A_sj"], rand),
                         et.JumpSchedule(tuple(1 + 0.04 * i
                                               for i in range(20))))
    cfg = SolverConfig(preset="ifd5", tau=0.005, eta=4.5, tf=2.0)
    return flow, run(flow, cfg)


def test_steady_mask_keeps_every_restart_tail(close_restarts):
    _, traj = close_restarts
    assert len(traj.restarts()) == 20
    mask, _ = steady_mask(traj, traj.residuals)
    pad = traj.config.s_star + 10
    kinds = np.asarray(traj.kind)
    blocks = 0
    for k in np.flatnonzero(kinds != "predicted"):
        if k + 1 < kinds.size and kinds[k + 1] == "predicted":
            assert not mask[k + 1:k + 1 + pad].any(), traj.times[k]
            blocks += 1
    assert blocks == 21


def test_steady_windows_are_maximal_spans_covering_the_exclusions(
        close_restarts):
    _, traj = close_restarts
    mask, windows = steady_mask(traj, traj.residuals)
    reasons = [w[0] for w in windows]
    assert reasons == sorted(reasons, reverse=True)   # startup, then glitch
    assert set(reasons) == {"startup", "glitch"}
    covered = np.zeros(mask.size, dtype=int)
    for reason in ("startup", "glitch"):
        spans = [(int(np.flatnonzero(traj.times == lo)[0]),
                  int(np.flatnonzero(traj.times == hi)[0]))
                 for r, lo, hi in windows if r == reason]
        # in order, disjoint and not touching: no two could merge
        for (_, hi), (lo, _) in zip(spans[:-1], spans[1:]):
            assert lo > hi + 1
        for lo, hi in spans:
            covered[lo:hi + 1] += 1
    # no instant lies in two windows, and together the windows cover
    # exactly the instants the mask leaves out
    assert covered.max() == 1
    assert np.array_equal(covered == 1, ~mask)


def test_paper_report_matches_logged_residuals(paper_run):
    # the report samples the conjugated jump flow one instant at a time,
    # through the sampler the run used, so every residual has its bits
    traj, report, _ = paper_run
    assert np.array_equal(report.residuals.view(np.uint64),
                          traj.residuals.view(np.uint64))


def test_build_report_matches_logged_residuals(short_run):
    flow, traj = short_run
    rep = build_report(flow, traj, elapsed=1.0)
    assert np.array_equal(rep.residuals, traj.residuals)
    assert rep.summary["restarts"] == 0
    assert rep.summary["median_residual"] > 0
    assert rep.summary["seconds_per_step"] == pytest.approx(1.0 / 400)
    assert 0.0 < rep.summary["idle_fraction"] < 1.0
    assert len(rep.segments) == 1
    assert rep.segments[0]["steady_instants"] == int(rep.mask.sum())


def test_report_whole_run_fields_show_a_hidden_failure(short_run):
    flow, traj = short_run
    clean = build_report(flow, traj)
    k = int(np.flatnonzero(clean.mask)[100])
    z = traj.z.copy()
    z[k:k + 5, 0] *= 3.0               # pair 0 leaves the eigenpair
    bad = build_report(flow, dataclasses.replace(traj, z=z))
    pad = traj.config.s_star + 10
    # the steady summary stays clean: the glitch rule masks the window
    assert not bad.mask[k - pad:k + 5 + pad].any()
    assert bad.summary["median_residual"] == pytest.approx(
        clean.summary["median_residual"], rel=1e-2)
    for key in ("max_residual", "max_orth_deviation"):
        assert bad.summary[key] <= clean.summary[key]
    # the whole-run fields show the damage; the clean run's own glitch at
    # the avoided crossing near t = 1.9 lifts them above the steady ones
    assert clean.summary["run_max_residual"] < 1e-4
    assert bad.summary["run_max_residual"] > 0.1
    assert clean.summary["run_max_norm_defect"] < 1e-2
    assert bad.summary["run_max_norm_defect"] == pytest.approx(8.0)
    assert clean.summary["run_max_orth_deviation"] < 1e-2
    assert bad.summary["run_max_orth_deviation"] > 8.0
    predicted = traj.kind.count("predicted")
    for rep in (clean, bad):
        assert rep.summary["predicted_instants"] == predicted
        assert rep.summary["excluded_share"] == (
            rep.summary["excluded_instants"] / predicted)
    assert (bad.summary["excluded_instants"]
            >= clean.summary["excluded_instants"] + 5 + 2 * pad)


def test_build_report_matrix_metric(short_run):
    flow, traj = short_run
    rep = build_report(flow, traj, metric="matrix")
    assert rep.summary["metric"] == "matrix"
    assert rep.summary["median_residual"] > 0
    # one segment: its statistics are the summary's, in the same metric
    (seg,) = rep.segments
    for key in ("steady_instants", "median_residual", "max_residual",
                "max_orth_deviation"):
        assert seg[key] == rep.summary[key]
    assert rep.summary["median_residual"] != build_report(
        flow, traj).summary["median_residual"]


def test_build_report_rejects_an_unknown_metric(short_run):
    flow, traj = short_run
    with pytest.raises(ValueError, match="metric must be 'pair' or "
                                         "'matrix', got 'bogus'"):
        build_report(flow, traj, metric="bogus")


def test_build_report_matrix_samples_each_instant_once():
    base = et.diag_linear_flow()
    calls = []

    def counting(t):
        calls.append(t)
        return base.sampler(t)

    flow = et.MatrixFlow(n=base.n, sampler=counting, label="counted")
    traj = run(flow, SolverConfig(tau=0.01, eta=1.0, tf=0.5))
    del calls[:]
    build_report(flow, traj, metric="matrix")
    assert len(calls) == traj.times.size


@pytest.mark.parametrize("n", [7, 32])
def test_full_matrix_scores_match_the_per_instant_formula(
        n, monkeypatch, separated_flow):
    """The report's and the baseline's full-matrix score of each instant,
    derived from its per-pair residuals, is the paper's
    ||A V - V D||_F / (||A||_F ||V||_F) within a few ulps: the sums run in
    another order, so the bits may differ."""
    flow = separated_flow(n, 3)
    cfg = SolverConfig(tau=0.01, tf=0.6)
    A = np.stack([flow.sample(float(t)) for t in cfg.times])
    traj = run(flow, cfg)
    scores, full_matrix = [], harness._full_matrix

    def recorded(res, Z):                   # every score harness derives
        scores.append(full_matrix(res, Z))
        return scores[-1]
    monkeypatch.setattr(harness, "_full_matrix", recorded)
    monkeypatch.setattr(harness, "_BLOCK", 16)
    rep = build_report(flow, traj, metric="matrix")
    got = np.concatenate(scores)
    want = [_residual_one_instant(A[k], traj.z[k], "matrix")
            for k in range(len(A))]
    np.testing.assert_array_max_ulp(got, want, maxulp=4)
    assert rep.summary["max_residual"] == got[rep.mask].max()

    del scores[:]
    bl = naive_baseline(flow, tau=cfg.tau, tf=cfg.tf, metric="matrix")
    got = np.concatenate(scores)
    held = _static_blocks(A[:-1])
    want = [_residual_one_instant(A[k + 1], held[k], "matrix")
            for k in range(len(held))]
    np.testing.assert_array_max_ulp(got, want, maxulp=4)
    assert bl.summary["max_residual"] == got.max()


@pytest.mark.parametrize("metric", ["pair", "matrix"])
def test_report_blocks_do_not_change_the_report(monkeypatch, short_run,
                                                metric):
    flow, traj = short_run
    monkeypatch.setattr(harness, "_BLOCK", 10 ** 6)
    whole = build_report(flow, traj, metric=metric)
    monkeypatch.setattr(harness, "_BLOCK", 7)
    blocks = build_report(flow, traj, metric=metric)
    assert np.array_equal(blocks.residuals, whole.residuals)
    assert np.array_equal(blocks.orth, whole.orth)
    assert blocks.summary == whole.summary
    assert np.array_equal(whole.orth,
                          [_orth_one_instant(z) for z in traj.z])


# ----------------------------------------------------------------- baseline

def test_baseline_oracle_on_diag_flow():
    # holding diag(2+t, 5) for one gap leaves an eigenvalue defect of
    # exactly tau on the first pair and nothing on the second
    flow = et.diag_linear_flow()
    tau = 0.01
    rep = naive_baseline(flow, tau=tau, t0=0.0, tf=1.0)
    assert rep.times.size == 100
    for k in (0, 40, 99):
        t_next = rep.times[k]
        a_norm = np.sqrt((2.0 + t_next) ** 2 + 25.0)
        assert rep.residuals[k, 0] == pytest.approx(tau / a_norm, rel=1e-12)
        assert rep.residuals[k, 1] == pytest.approx(0.0, abs=1e-14)


def test_baseline_short_span_rejected():
    with pytest.raises(ValueError):
        naive_baseline(et.diag_linear_flow(), tau=0.5, t0=0.0, tf=0.25)


@pytest.mark.parametrize("tau", [0.0, math.nan, math.inf, -0.01])
def test_baseline_rejects_a_bad_gap_naming_tau(tau):
    # the baseline's grid is SolverConfig's, checks included
    with pytest.raises(ValueError, match="tau must be"):
        naive_baseline(et.diag_linear_flow(), tau=tau, tf=1.0)


def test_baseline_rejects_an_unknown_metric():
    with pytest.raises(ValueError, match="got 'bogus'"):
        naive_baseline(et.diag_linear_flow(), tau=0.01, tf=0.5,
                       metric="bogus")


def test_baseline_matrix_metric():
    rep = naive_baseline(et.diag_linear_flow(), tau=0.01, t0=0.0, tf=0.5,
                         metric="matrix")
    assert rep.summary["metric"] == "matrix"


@pytest.mark.parametrize("metric", ["pair", "matrix"])
def test_baseline_blocks_do_not_change_the_report(metric):
    # eigenvalues t, 1, 2 cross at t = 1 and 2, so matching that restarted
    # in ascending order would swap residual columns: 99 one-sample
    # predictions against one unbroken _static_blocks chain of all samples
    flow = et.conjugate(
        et.MatrixFlow(3, lambda t: np.diag([t, 1.0, 2.0]), label="cross"),
        et.OrthogonalRandomizer.from_seed(3, 5))
    times = SolverConfig(tau=0.03, tf=2.97).times
    bl = naive_baseline(flow, tau=0.03, tf=2.97, metric=metric)
    A = np.stack([flow.sample(t) for t in times.tolist()])
    held = _static_blocks(A[:-1])
    res = residual(A[1:], held)
    score = harness._full_matrix(res, held) if metric == "matrix" else res
    assert bl.times.size == 99 and np.array_equal(bl.times, times[1:])
    assert np.array_equal(bl.residuals, res)
    assert bl.summary == {"median_residual": _median(score),
                          "max_residual": score.max(), "metric": metric}


# -------------------------------------------------------------------- sweep

def test_sweep_needs_three_distinct_gaps():
    flow = et.diag_linear_flow()
    tmpl = SolverConfig(preset="ifd5", tau=0.01, eta=2.0, tf=1.0)
    with pytest.raises(ValueError):
        convergence_sweep(flow, tmpl, [0.01, 0.005])
    with pytest.raises(ValueError):
        convergence_sweep(flow, tmpl, [0.01, 0.01, 0.005])


def test_sweep_scales_gain_and_fits_order(short_run):
    flow, _ = short_run
    tmpl = SolverConfig(preset="ifd5", tau=0.01, eta=4.5, tf=2.0)
    sweep = convergence_sweep(flow, tmpl, [0.01, 0.005, 0.0025])
    assert np.array_equal(sweep.taus, np.array([0.01, 0.005, 0.0025]))
    # eta * tau held constant across the sweep
    assert sweep.etas * sweep.taus == pytest.approx(
        np.full(3, 0.045), rel=1e-12)
    assert (np.diff(sweep.medians) < 0).all()
    assert 2.5 < sweep.slope < 5.5


# --------------------------------------------------------- derivative trace
# a run with an infinite jump threshold never restarts, so its da_norms
# are the estimates of every backward window, a discontinuity included

def _never_restarting(flow, cfg):
    return run(flow, dataclasses.replace(cfg, jump_threshold=math.inf))


def test_derivative_trace_constant_flow():
    flow = et.constant_flow(np.diag([1.0, 2.0]), label="c")
    cfg = SolverConfig(tau=0.01, eta=1.0, tf=0.5)
    norms = _never_restarting(flow, cfg).da_norms
    m = cfg.derivative_rule.taps
    assert np.isnan(norms[: m - 1]).all()
    assert np.nanmax(norms) < 1e-10


def test_derivative_trace_sees_raw_spike():
    pool = et.builtin_flows()
    flow = et.with_jumps(pool["A_s"], pool["A_sj"], et.JumpSchedule((0.5,)))
    cfg = SolverConfig(tau=0.005, eta=1.0, tf=1.0)
    traj = _never_restarting(flow, cfg)
    assert not traj.restarts()
    norms = traj.da_norms
    k = int(round(0.5 / cfg.tau))
    assert norms[k] > 300.0
    m = cfg.derivative_rule.taps
    clean = np.concatenate([norms[m - 1: k], norms[k + m:]])
    assert clean.max() < 50.0


def test_timed_run_returns_elapsed():
    flow = et.diag_linear_flow()
    cfg = SolverConfig(preset="ifd5", tau=0.01, eta=2.0, tf=0.2)
    traj, elapsed = timed_run(flow, cfg)
    assert elapsed > 0.0
    assert traj.times.size == 21
