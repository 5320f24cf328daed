"""Predictor dynamics: assembly, the streaming tracker, full runs."""

import dataclasses
import itertools
import sys

import numpy as np
import pytest

import eigentrack as et
from eigentrack import densela, znn
from eigentrack.flows import JumpSchedule, MatrixFlow, builtin_flows, \
    constant_flow, diag_linear_flow, with_jumps
from eigentrack.znn import NumericalAbort, SolverConfig, Tracker, run


@pytest.fixture(scope="module")
def smooth7():
    rand = et.OrthogonalRandomizer.from_seed(7, 7)
    return et.conjugate(builtin_flows()["A_s"], rand)


# ------------------------------------------------------------------- config

def test_config_defaults_and_presets():
    cfg = SolverConfig(tau=0.005, eta=4.5)
    assert cfg.mu == 4.5
    assert cfg.s_star == 4
    assert SolverConfig(preset="ifd6", tau=0.01, eta=1.0).s_star == 5
    assert SolverConfig(preset="ifd7", tau=0.01, eta=1.0).s_star == 6


def test_default_config_is_the_benchmark_scenario():
    # the README's scenario: tau = 1/200, eta = 4.5, ifd5 (IFD5 + BDF4pt)
    # over [0, 20], restart threshold 300; and its quick-start config
    cfg = SolverConfig()
    assert dataclasses.astuple(cfg) == (0.005, 4.5, 4.5, "ifd5", 300.0,
                                        0.0, 20.0)
    assert (cfg.recursion, cfg.derivative) == ("IFD5", "BDF4pt")
    assert cfg.times.size == 4001
    assert cfg == SolverConfig(preset="ifd5", tau=0.005, eta=4.5, tf=20.0)
    # one spelling of the formula pair: the preset
    assert not hasattr(SolverConfig, "from_preset")
    with pytest.raises(TypeError):
        SolverConfig(recursion="IFD5")


@pytest.mark.parametrize("name, value", [
    ("tau", True), ("tau", "0.01"), ("eta", False), ("mu", "1"),
    ("jump_threshold", None), ("t0", [0.0]), ("tf", 1 + 0j),
    ("preset", ["ifd5"]), ("preset", None), ("preset", "IFD5"),
])
def test_config_rejects_a_wrong_type_naming_the_field(name, value):
    with pytest.raises(ValueError, match=name):
        SolverConfig(**{name: value})


def test_config_stores_numbers_as_floats():
    cfg = SolverConfig(tau=np.float32(0.25), eta=2, mu=None,
                       jump_threshold=np.int64(7), t0=-1, tf=10**3)
    values = dataclasses.astuple(cfg)
    assert values == (0.25, 2.0, 2.0, "ifd5", 7.0, -1.0, 1000.0)
    assert [type(v) for v in values] == [float] * 3 + [str] + [float] * 3
    with pytest.raises(ValueError, match="tf must be finite"):
        SolverConfig(tf=10**400)


@pytest.mark.parametrize("kwargs", [
    dict(tau=-0.01, eta=1.0),
    dict(tau=0.01, eta=0.0),
    dict(tau=0.01, eta=1.0, tf=-1.0),
    dict(tau=0.01, eta=1.0, preset="nope"),
    dict(tau=0.01, eta=1.0, preset="IFD5"),        # a recursion's name
    dict(tau=float("nan"), eta=1.0),
    dict(tau=float("inf"), eta=1.0),
    dict(tau=0.01, eta=float("nan")),
    dict(tau=0.01, eta=float("inf")),
    dict(tau=0.01, eta=1.0, mu=float("nan")),
    dict(tau=0.01, eta=1.0, mu=float("inf")),
    dict(tau=0.01, eta=1.0, t0=float("nan")),
    dict(tau=0.01, eta=1.0, t0=-float("inf")),
    dict(tau=0.01, eta=1.0, tf=float("nan")),
    dict(tau=0.01, eta=1.0, tf=float("inf")),
    dict(tau=0.01, eta=1.0, jump_threshold=float("nan")),
    dict(tau=0.01, eta=1.0, jump_threshold=0.0),
    dict(tau=0.01, eta=1.0, jump_threshold=-1.0),
    dict(tau=0.01, eta=1.0, preset=""),
    dict(tau=0.01, eta=1.0, preset=("IFD5", "BDF4pt")),   # a pair
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_config_bounds_the_grid_before_allocating_it(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a sampling grid was allocated")
    monkeypatch.setattr(np, "arange", no_grid)
    for kwargs in (dict(tau=5e-324), dict(tau=1e-300),
                   dict(tau=0.005, tf=1e12),
                   dict(tau=1.0, tf=float(znn.MAX_INSTANTS))):
        with pytest.raises(ValueError, match="instants; at most 10000000"):
            SolverConfig(eta=1.0, **kwargs)
    # the largest grid allowed: K + 1 = MAX_INSTANTS instants
    SolverConfig(tau=1.0, eta=1.0, tf=float(znn.MAX_INSTANTS - 1))


def test_config_times_is_the_one_grid(smooth7):
    cfg = SolverConfig(tau=0.03, eta=4.5, t0=0.1, tf=0.5)
    assert np.array_equal(cfg.times, 0.1 + 0.03 * np.arange(14))
    assert np.array_equal(run(smooth7, cfg).times, cfg.times)
    base = et.naive_baseline(smooth7, tau=0.03, t0=0.1, tf=0.5)
    assert np.array_equal(base.times, cfg.times[1:])


def test_unknown_preset():
    with pytest.raises(ValueError):
        SolverConfig(preset="ifd9", tau=0.01, eta=1.0)


# ----------------------------------------------------------------- assemble

def test_assemble_hand_example():
    A = np.diag([2.0, 5.0])
    Z = np.array([[1.0, 0.0, 2.1]])
    (P,) = densela.bordered_stack(A, Z)
    (q,) = znn._rhs_batch(A, np.zeros((2, 2)), Z, eta=1.0, mu=1.0)
    want_P = np.array([[-0.1, 0.0, -1.0],
                       [0.0, 2.9, 0.0],
                       [-1.0, 0.0, 0.0]])
    assert P == pytest.approx(want_P, abs=1e-15)
    assert q == pytest.approx([0.1, 0.0, 0.0], abs=1e-15)


def test_assemble_with_drift_and_separate_mu():
    A = np.diag([2.0, 5.0])
    dA = np.diag([1.0, 0.0])
    Z = np.array([[1.0, 0.0, 2.0]])
    (P,) = densela.bordered_stack(A, Z)
    (q,) = znn._rhs_batch(A, dA, Z, eta=2.0, mu=3.0)
    assert P[0, 0] == 0.0 and P[1, 1] == 3.0
    assert q == pytest.approx([-1.0, 0.0, 0.0], abs=1e-15)
    # unnormalized vector feeds the drift row through mu/2
    Z2 = np.array([[2.0, 0.0, 2.0]])
    (q2,) = znn._rhs_batch(A, dA, Z2, eta=2.0, mu=3.0)
    assert q2[2] == pytest.approx(1.5 * 3.0, abs=1e-15)


def test_assemble_is_symmetric(rng):
    M = rng.standard_normal((4, 4))
    A = (M + M.T) / 2
    Z = rng.standard_normal((1, 5))
    (P,) = densela.bordered_stack(A, Z)
    assert np.array_equal(P, P.T)


# ------------------------------------------------------------------ tracker

def _exact_blocks():
    """diag(1, 2, 3) and its exact eigenpairs as one (3, 4) block."""
    A = np.diag([1.0, 2.0, 3.0])
    return A, np.hstack([np.eye(3), np.array([[1.0], [2.0], [3.0]])])


def test_step_fixed_point():
    A, block = _exact_blocks()
    cfg = SolverConfig(tau=0.01, eta=1.0)
    tracker = Tracker(cfg, 3)
    tracker.do_startup(np.stack([A] * cfg.s_star))
    tracker.states = [block.copy() for _ in range(cfg.s_star)]
    z_next, report = tracker.predict()
    assert z_next == pytest.approx(block, abs=1e-14)
    assert report.lstsq.tolist() == [False] * 3


def test_predict_needs_a_full_startup():
    cfg = SolverConfig(tau=0.01, eta=1.0)
    A, _ = _exact_blocks()
    with pytest.raises(ValueError):
        Tracker(cfg, 3).predict()             # never seeded
    clipped = Tracker(cfg, 3)
    clipped.do_startup(np.stack([A] * (cfg.s_star - 1)))   # cut near tf
    with pytest.raises(ValueError):
        clipped.predict()
    with pytest.raises(ValueError):
        clipped.observe(A)                     # nothing pending
    seeded = Tracker(cfg, 3)
    seeded.do_startup(np.stack([A] * cfg.s_star))
    seeded.predict()                           # full block: no error


def test_normalization_defect_decays():
    A, block = _exact_blocks()
    cfg = SolverConfig(tau=0.01, eta=2.0)
    block[0, 0] = 1.1                          # 21% normalization defect
    tracker = Tracker(cfg, 3)
    tracker.do_startup(np.stack([A] * cfg.s_star))
    tracker.states = [block.copy() for _ in range(cfg.s_star)]
    defect = [abs(block[0, :3] @ block[0, :3] - 1.0)]
    for _ in range(800):
        z, _ = tracker.predict()
        jump, _ = tracker.observe(A)
        assert not jump
        defect.append(abs(z[0, :3] @ z[0, :3] - 1.0))
    # decays like exp(-mu t): one time unit shrinks it by e^-2
    assert defect[100] / defect[0] == pytest.approx(np.exp(-2.0), rel=0.05)
    assert defect[300] < defect[100] < defect[0]
    assert defect[-1] < 1e-6


def _stream_track(samples, config, n):
    """Track an iterator of samples with Tracker alone, restarts included.

    Returns per-instant blocks, tags and derivative norms laid out like
    run()'s Trajectory.
    """
    tracker = Tracker(config, n)
    z, kind, da_norms = [], [], []

    def start(first, first_kind):
        rest = list(itertools.islice(samples, config.s_star - 1))
        blocks, norms = tracker.do_startup(np.stack([first] + rest))
        z.extend(blocks)
        kind.extend([first_kind] + ["startup"] * (len(blocks) - 1))
        da_norms.extend(norms[1:])

    start(next(samples), "startup")
    da_norms.insert(0, np.nan)
    for A in samples:
        z_next, _ = tracker.predict()
        jump, da = tracker.observe(A)
        da_norms.append(da)
        if jump:
            start(A, "restart-triggered")
        else:
            z.append(z_next)
            kind.append("predicted")
    return np.array(z), kind, np.array(da_norms)


def _jumping(t):
    """Rotating 3x3 symmetric sample; its lowest eigenvalue steps at 0.5."""
    c, s = np.cos(0.4 * t), np.sin(0.4 * t)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    d = np.array([1.0 if t < 0.5 else -1.0, 2.5, 4.0])
    M = R @ np.diag(d) @ R.T
    return (M + M.T) / 2


def test_tracker_streams_a_generator_like_run():
    # samples from a plain generator, no MatrixFlow: one jump at t = 0.5,
    # the restart handled by the caller, and run()'s output bit for bit
    cfg = SolverConfig(preset="ifd5", tau=0.005, eta=4.5, tf=1.0)
    traj = run(MatrixFlow(n=3, sampler=_jumping, label="jumping"), cfg)
    assert [t for t, _ in traj.restarts()] == [0.5]
    z, kind, da_norms = _stream_track((_jumping(t) for t in traj.times),
                                      cfg, 3)
    assert kind == traj.kind
    assert np.array_equal(z, traj.z)
    assert np.array_equal(da_norms, traj.da_norms, equal_nan=True)


def test_startup_ascending_and_full():
    cfg = SolverConfig(preset="ifd5", tau=0.01, eta=1.0)
    flow = diag_linear_flow()
    tracker = Tracker(cfg, flow.n)
    blocks, norms = tracker.do_startup(
        np.stack([flow.sample(j * cfg.tau) for j in range(cfg.s_star)]))
    assert blocks.shape == (cfg.s_star, 2, 3)
    assert len(tracker.states) == cfg.s_star
    assert np.array_equal(tracker.states[0], blocks[-1])   # newest first
    assert blocks[0, :, -1] == pytest.approx([2.0, 5.0], abs=1e-12)
    # later instants stay matched to the same pair, values drift linearly
    assert blocks[-1, 0, -1] == pytest.approx(2.0 + 0.01 * (cfg.s_star - 1),
                                              abs=1e-12)
    # the derivative norm appears once the sample window fills
    m = cfg.derivative_rule.taps
    assert np.isnan(norms[:m - 1]).all() and np.isfinite(norms[m - 1:]).all()


def test_startup_signs_are_continuous():
    # rotating eigenvectors, constant eigenvalues {1, 3}
    def sampler(t):
        th = 0.3 * t
        R = np.array([[np.cos(th), -np.sin(th)],
                      [np.sin(th), np.cos(th)]])
        return R @ np.diag([1.0, 3.0]) @ R.T

    cfg = SolverConfig(preset="ifd5", tau=0.05, eta=1.0)
    blocks, _ = Tracker(cfg, 2).do_startup(
        np.stack([sampler(j * cfg.tau) for j in range(cfg.s_star)]))
    for i in range(2):
        assert np.ptp(blocks[:, i, -1]) < 1e-10     # matching never swaps
        for za, zb in zip(blocks[:-1, i], blocks[1:, i]):
            assert za[:2] @ zb[:2] > 0.9            # aligned and continuous


def _match_pairs_loop(lam_prev, X_prev, w_new, V_new):
    """The greedy matching as a sorted list of candidate tuples: the
    reference the vectorized znn._match_pairs must reproduce exactly."""
    npairs = len(lam_prev)
    overlaps = X_prev @ V_new
    cand = sorted((abs(lam_prev[i] - w_new[j]), -abs(overlaps[i, j]), i, j)
                  for i in range(npairs) for j in range(npairs))
    used_i, used_j = set(), set()
    lam_out = np.empty(npairs)
    X_out = np.empty_like(X_prev)
    for _, _, i, j in cand:
        if i in used_i or j in used_j:
            continue
        used_i.add(i)
        used_j.add(j)
        vec = V_new[:, j]
        if vec @ X_prev[i] < 0.0:
            vec = -vec
        lam_out[i] = w_new[j]
        X_out[i] = vec
    return lam_out, X_out


def _orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def _chain(m):
    """Tracked and fresh eigenvalues alternating on a line at growing
    gaps: row i > 0 first chooses column i - 1, settled only after row
    i - 1 takes it, so each pass frees the next contest."""
    points = np.concatenate([[0.0], np.cumsum(1.0 + 0.1 * np.arange(2 * m))])
    return points[0:2 * m:2], points[1:2 * m:2]


def _contested_cases(rng):
    """Eigendata whose tracked pairs' first choices collide, so the
    matching needs more than its first pass."""
    # two tracked pairs nearest the same fresh eigenvalue
    Q, R = _orthogonal(rng, 3), _orthogonal(rng, 3)
    yield np.array([1.0, 1.25, 5.0]), Q, np.array([1.1, 3.0, 5.0]), R
    # ... at an equal distance, so the overlap decides
    yield np.array([1.0, 1.2, 5.0]), Q, np.array([1.1, 3.0, 5.0]), R
    for m in (4, 9):
        lam, w = _chain(m)
        yield lam, _orthogonal(rng, m), w, _orthogonal(rng, m)
    # all eigenvalues equal, overlaps 0 or +-1: tracked rows that repeat
    # a unit vector or vanish contest the same fresh vector
    for n in (2, 5, 8):
        rows = rng.integers(0, n, n)
        rows[1] = rows[0]
        signs = rng.choice([-1.0, 0.0, 1.0], n)
        signs[:2] = rng.choice([-1.0, 1.0], 2)
        X = np.eye(n)[rows] * signs[:, None]
        V = np.eye(n)[:, rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
        yield np.ones(n), X, np.ones(n), V


def _continuity_steps(rng):
    """A fresh decomposition one step along a random flow from the
    tracked one, at sizes where the matching runs on larger arrays."""
    for n in (32, 64):
        A = rng.standard_normal((n, n))
        A += A.T
        E = rng.standard_normal((n, n))
        w0, V0 = np.linalg.eigh(A)
        for step in (1e-3, 0.3):       # the larger step contests pairs
            w, V = np.linalg.eigh(A + step * (E + E.T))
            yield w0, V0.T.copy(), w, V


def test_match_pairs_equals_the_greedy_loop(rng):
    for trial in range(600):
        n = int(rng.integers(1, 10))
        if trial % 3 == 0:      # unrelated random eigendata
            lam, X = rng.standard_normal(n), _orthogonal(rng, n)
            w, V = np.sort(rng.standard_normal(n)), _orthogonal(rng, n)
        elif trial % 3 == 1:    # ties: repeated values, exact 0/1 overlaps
            lam = rng.integers(0, 3, n).astype(float)
            X = (np.eye(n)[rng.permutation(n)]
                 * rng.choice([-1.0, 1.0], n)[:, None])
            w = np.sort(rng.integers(0, 3, n).astype(float))
            V = np.eye(n)[:, rng.permutation(n)]
        else:                   # a small step along a flow
            w, V = np.sort(rng.standard_normal(n)), _orthogonal(rng, n)
            lam = w + 1e-3 * rng.standard_normal(n)
            X = (V + 1e-3 * rng.standard_normal((n, n))).T.copy()
        want = _match_pairs_loop(lam, X, w, V)
        got = znn._match_pairs(lam, X, w, V)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
    contested = list(_contested_cases(rng))
    for lam, X, w, V in contested:
        first = znn._first_choices(np.abs(lam[:, None] - w),
                                   np.abs(X @ V), 1)
        assert len(set(first.tolist())) < len(lam)
    for lam, X, w, V in contested + list(_continuity_steps(rng)):
        want = _match_pairs_loop(lam, X, w, V)
        got = znn._match_pairs(lam, X, w, V)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_match_pairs_chain_takes_a_pass_per_link(monkeypatch, rng):
    # the chain's passes each settle one contest: the first pass plus a
    # row and a column pass for each of the m - 1 contested links
    m = 6
    lam, w = _chain(m)
    calls = []
    first_choices = znn._first_choices

    def counted(dist, aov, axis):
        calls.append(axis)
        return first_choices(dist, aov, axis)
    monkeypatch.setattr(znn, "_first_choices", counted)
    X, V = _orthogonal(rng, m), _orthogonal(rng, m)
    got = znn._match_pairs(lam, X, w, V)
    assert np.array_equal(got[0], w)               # pair i keeps column i
    assert calls == [1] + [0, 1] * (m - 1)


# ------------------------------------------------------------- ring windows

def _list_derivative(f, history, tau):
    """The derivative estimate as a sum of scaled samples: the reference
    the one-product formulas.derivative_estimate must follow."""
    acc = np.zeros_like(history[0])
    for c, H in zip(f.coeffs_float, history):
        acc += c * H
    return acc / (f.denom * tau)


class _ListTracker:
    """Tracker with list windows of references, newest first, the
    right-hand side from two products and the recursion as a sum of
    scaled states: the reference the ring-buffer Tracker must follow to
    roundoff."""

    def __init__(self, config, n):
        self.der, self.tau = config.derivative_rule, config.tau
        self.s_star, self.threshold = config.s_star, config.jump_threshold
        self.eta, self.mu = config.eta, config.mu
        self.tau_c = config.tau * config.recursion_rule.c_float()
        self.a = config.recursion_rule.a_float()
        self.samples, self.states, self.pending = [], [], None

    def do_startup(self, samples):
        blocks = znn._static_blocks(samples)
        self.samples = list(samples[::-1][:self.der.taps])
        for j in range(self.der.taps - 1, len(blocks)):
            self.dA = _list_derivative(self.der, samples[j::-1], self.tau)
        self.states = list(blocks[::-1][:self.s_star])
        return blocks

    def predict(self):
        A, Z = self.samples[0], self.states[0]
        X, lam = Z[:, :-1], Z[:, -1]
        q = np.empty_like(Z)
        q[:, :-1] = -self.eta * (X @ A.T - lam[:, None] * X) - X @ self.dA.T
        q[:, -1] = 0.5 * self.mu * (np.add.reduce(X * X, axis=1) - 1.0)
        self.pending = self.tau_c * znn.solve_batch(A, Z, q).x
        for a, z in zip(self.a, self.states):
            self.pending += a * z
        return self.pending

    def observe(self, A):
        self.samples.insert(0, A)
        self.samples.pop()
        self.dA = _list_derivative(self.der, self.samples, self.tau)
        if densela.fro_norm(self.dA) > self.threshold:
            self.states = []
            return True
        self.states.insert(0, self.pending)
        del self.states[self.s_star:]
        return False


def _lockstep(flow, cfg):
    """Drive Tracker and _ListTracker side by side over the grid, checking
    their windows and jump verdicts after every sample; returns the
    per-instant tags and the largest |z - z_ref| over the predictions."""
    times, s_star = cfg.times, cfg.s_star
    new, ref = Tracker(cfg, flow.n), _ListTracker(cfg, flow.n)
    kinds, worst = [], 0.0

    def start(k0, first):
        block = np.stack([flow.sample(t) for t in times[k0:k0 + s_star]])
        got, _ = new.do_startup(block)
        assert np.array_equal(got, ref.do_startup(block))
        kinds.extend([first] + ["startup"] * (len(block) - 1))
        return k0 + len(block) - 1

    k = start(0, "startup")
    while k < times.size - 1:
        z, _ = new.predict()
        worst = max(worst, np.abs(z - ref.predict()).max())
        A = flow.sample(times[k + 1])
        jump, _ = new.observe(A)
        assert jump == ref.observe(A)
        samples, states = new.samples, new.states
        assert type(samples) is list and type(states) is list
        assert len(samples) == len(ref.samples) == cfg.derivative_rule.taps
        assert all(np.array_equal(x, y) for x, y in zip(samples, ref.samples))
        assert len(states) == len(ref.states)
        if jump:
            assert not states                      # a jump empties the state
            k = start(k + 1, "restart-triggered")
            continue
        assert np.array_equal(states[0], z)        # the accepted prediction
        assert np.abs(np.array(states) - ref.states).max() <= 1e-9
        kinds.append("predicted")
        k += 1
    return kinds, worst


@pytest.mark.parametrize("preset, t0, tf, restarts", [
    ("ifd5", 7.0, 9.0, 1),          # across the jump at 8
    ("ifd7", 7.0, 9.0, 1),          # six states, five samples
    ("ifd5", 0.0, 6.0, 0),          # the smooth span
])
def test_ring_windows_follow_the_list_reference(preset, t0, tf, restarts):
    rand = et.OrthogonalRandomizer.from_seed(7, 7)
    pool = builtin_flows()
    flow = with_jumps(et.conjugate(pool["A_s"], rand),
                      et.conjugate(pool["A_sj"], rand), JumpSchedule((8.0,)))
    cfg = SolverConfig(preset=preset, tau=0.005, eta=4.5, t0=t0, tf=tf)
    kinds, worst = _lockstep(flow, cfg)
    assert kinds == run(flow, cfg).kind
    assert kinds.count("restart-triggered") == restarts
    assert worst <= 1e-9


# ---------------------------------------------------------------- detection

def _predicting(cfg, A):
    """A tracker seeded on a constant window, one prediction pending."""
    tracker = Tracker(cfg, A.shape[0])
    tracker.do_startup(np.stack([A] * cfg.s_star))
    tracker.predict()
    return tracker


def test_detect_jump_threshold():
    # observe() restarts on ||dA||_F > threshold, strictly
    A, _ = _exact_blocks()
    B = A.copy()
    B[0, 0] += 1.0                     # the newest sample steps
    cfg = SolverConfig(tau=0.01, eta=1.0)
    assert not _predicting(cfg, A).observe(A)[0]
    _, da = _predicting(cfg, A).observe(B)
    at = _predicting(SolverConfig(tau=0.01, eta=1.0, jump_threshold=da), A)
    assert at.observe(B) == (False, da)
    assert at.states                   # the prediction became the newest state
    below = SolverConfig(tau=0.01, eta=1.0,
                         jump_threshold=np.nextafter(da, 0.0))
    under = _predicting(below, A)
    assert under.observe(B) == (True, da)
    assert not under.states            # a jump drops the state


@pytest.mark.parametrize("threshold", [300.0, np.inf])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_observe_rejects_a_non_finite_sample(bad, threshold):
    # one NaN or inf entry makes ||dA||_F NaN or inf, which is never below
    # the threshold, inf included: observe drops the state and raises
    # instead of handing the next predict a non-finite system
    flow = et.conjugate(builtin_flows()["A_s"],
                        et.OrthogonalRandomizer.from_seed(7, 7))
    cfg = SolverConfig(jump_threshold=threshold)
    tracker = Tracker(cfg, flow.n)
    tracker.do_startup(np.stack([flow.sample(k * cfg.tau)
                                 for k in range(cfg.s_star)]))
    tracker.predict()
    A = flow.sample(cfg.s_star * cfg.tau)
    A[2, 3] = bad
    with pytest.raises(ValueError, match=r"\|\|dA\|\|_F is .*do_startup"):
        tracker.observe(A)
    assert not tracker.states
    with pytest.raises(ValueError, match="seed with a full do_startup"):
        tracker.predict()


# --------------------------------------------------------------------- runs

@pytest.mark.parametrize("n", [7, 24])
def test_predict_reaches_the_solve_hook_once_per_step(
        monkeypatch, smooth7, separated_flow, n):
    # perfbench/worker.py times the solve layer by wrapping the module
    # global znn.solve_batch, counts systems with len() and labels by
    # iterating the report, and tells startup derivative estimates from
    # loop ones by the calling frame's name
    assert (n < densela._BASIS_MIN_N) == (n == 7)
    flow = smooth7 if n == 7 else separated_flow(n, seed=1)
    reports, frames = [], []
    solve, estimate = znn.solve_batch, znn.derivative_estimate

    def solve_batch(Ps, qs, *args, **kwargs):
        reports.append(solve(Ps, qs, *args, **kwargs))
        return reports[-1]

    def derivative_estimate(*args, **kwargs):
        frames.append(sys._getframe(1).f_code.co_name)
        return estimate(*args, **kwargs)
    monkeypatch.setattr(znn, "solve_batch", solve_batch)
    monkeypatch.setattr(znn, "derivative_estimate", derivative_estimate)
    cfg = SolverConfig(preset="ifd5", tau=0.005, eta=4.5, tf=0.2)
    traj = run(flow, cfg)
    predicted = traj.kind.count("predicted")
    assert predicted == len(traj.times) - cfg.s_star
    assert len(reports) == predicted
    for rep, lstsq in zip(reports, traj.lstsq[cfg.s_star:]):
        assert len(rep) == n
        assert tuple(r.method for r in rep) == ("direct",) * n
        assert np.array_equal(rep.lstsq, lstsq) and not lstsq.any()
    taps = cfg.derivative_rule.taps
    assert frames[:cfg.s_star - taps + 1] == ["do_startup"] * (
        cfg.s_star - taps + 1)
    assert frames[cfg.s_star - taps + 1:] == ["observe"] * predicted


def test_run_smooth_tags_and_residuals(smooth7):
    cfg = SolverConfig(preset="ifd5", tau=0.005, eta=4.5, tf=0.5)
    traj = run(smooth7, cfg)
    assert traj.times.size == 101
    assert traj.z.shape == (101, 7, 8)
    assert len(traj.kind) == 101
    assert traj.kind[:cfg.s_star] == ["startup"] * cfg.s_star
    assert set(traj.kind[cfg.s_star:]) == {"predicted"}
    assert not traj.restarts()
    assert traj.residuals[cfg.s_star:].max() < 1e-4
    assert traj.lstsq.shape == (101, 7) and not traj.lstsq.any()
    # derivative estimates appear once the sample window fills
    m = cfg.derivative_rule.taps
    assert np.isnan(traj.da_norms[: m - 1]).all()
    assert np.isfinite(traj.da_norms[m - 1:]).all()


def test_run_restart_protocol():
    pool = builtin_flows()
    flow = with_jumps(pool["A_s"], pool["A_sj"], JumpSchedule((0.5,)))
    cfg = SolverConfig(preset="ifd5", tau=0.005, eta=4.5, tf=1.0)
    traj = run(flow, cfg)
    events = traj.restarts()
    assert len(events) == 1
    assert events[0][0] == pytest.approx(0.5, abs=1e-12)
    assert events[0][1] > 300.0
    k = int(round(0.5 / cfg.tau))
    assert traj.kind[k] == "restart-triggered"
    assert traj.kind[k + 1: k + cfg.s_star] == ["startup"] * (cfg.s_star - 1)
    assert traj.kind[k + cfg.s_star] == "predicted"
    # trajectory picks the flow back up after the refill
    assert traj.residuals[k + cfg.s_star:].max() < 1e-3


def test_run_samples_at_python_floats_of_the_grid():
    # perfbench/worker.py tells a restart from a step by the restart's
    # repeated sample of its first instant: the restart must keep it
    pool = builtin_flows()
    flow = with_jumps(pool["A_s"], pool["A_sj"], JumpSchedule((0.5,)))
    seen = []

    def sampler(t):
        seen.append(t)
        return flow.sampler(t)
    cfg = SolverConfig(preset="ifd5", tau=0.005, eta=4.5, tf=1.0)
    traj = run(MatrixFlow(flow.n, sampler, span=flow.span), cfg)
    k = int(round(0.5 / cfg.tau))
    assert traj.kind[k] == "restart-triggered"
    assert all(type(t) is float for t in seen)
    want = cfg.times[[*range(k + 1), *range(k, len(cfg.times))]]
    assert np.array_equal(np.array(seen).view(np.uint64),
                          want.view(np.uint64))


def test_run_events_are_derived_from_arrays():
    pool = builtin_flows()
    flow = with_jumps(pool["A_s"], pool["A_sj"], JumpSchedule((0.5,)))
    cfg = SolverConfig(preset="ifd5", tau=0.005, eta=4.5, tf=1.0)
    traj = run(flow, cfg)
    ((t, spike),) = traj.restarts()
    k = int(round(0.5 / cfg.tau))
    assert t == traj.times[k] and traj.kind[k] == "restart-triggered"
    assert traj.kind_code[k] == znn.KINDS.index("restart-triggered")
    assert not traj.lstsq[k].any()     # a restart row holds no solve
    # the spike is the derivative norm logged at the restart instant
    assert spike == traj.da_norms[k]


def test_run_mixed_fallback_batch():
    # a double eigenvalue makes two bordered systems exactly singular every
    # step; only those two pairs take the least-squares fallback
    flow = constant_flow(np.diag([1.0, 1.0, 3.0]))
    traj = run(flow, SolverConfig(tau=0.01, eta=1.0, tf=0.1))
    predicted = [k for k, kd in enumerate(traj.kind) if kd == "predicted"]
    assert predicted
    for k in predicted:
        assert traj.lstsq[k].tolist() == [True, True, False]
    assert np.isfinite(traj.z).all()


def test_run_constant_flow_is_a_fixed_point(smooth7):
    A0 = smooth7.sample(0.0)
    flow = constant_flow(A0, label="const7")
    cfg = SolverConfig(preset="ifd5", tau=0.005, eta=4.5, tf=1.0)
    traj = run(flow, cfg)
    ref = traj.z[cfg.s_star - 1]
    drift = np.abs(traj.z[cfg.s_star - 1:] - ref[None]).max()
    assert drift < 1e-12
    assert not traj.restarts()


def test_run_aborts_on_divergence(smooth7):
    cfg = SolverConfig(preset="ifd5", tau=0.005, eta=2000.0, tf=2.0)
    with pytest.raises(NumericalAbort) as info:
        run(smooth7, cfg)
    partial = info.value.trajectory
    assert partial.times.size < 401
    assert np.isfinite(partial.z).all()
    # the per-instant records of the partial trajectory cover its instants
    assert partial.kind_code.shape == partial.times.shape
    assert partial.residuals.shape == (partial.times.size, 7)


def test_run_and_baseline_reject_a_span_overrun_before_sampling():
    calls = []
    flow = MatrixFlow(2, lambda t: calls.append(t) or np.eye(2),
                      span=(0.0, 0.5))
    with pytest.raises(ValueError, match="span leaves the flow's domain"):
        run(flow, SolverConfig(tau=0.01, eta=1.0, tf=1.0))
    with pytest.raises(ValueError, match="span leaves the flow's domain"):
        et.naive_baseline(flow, tau=0.01, tf=1.0)
    assert calls == []


def test_run_rejects_a_sampler_of_the_wrong_size():
    flow = MatrixFlow(3, lambda t: np.eye(4), label="wrong size")
    with pytest.raises(ValueError, match=r"3 x 3 samples \(n = 3\), got a "
                       r"stack of shape \(\d+, 4, 4\)"):
        run(flow, SolverConfig(tau=0.01, eta=1.0, tf=1.0))


# ------------------------------------------------------- blocked residual log

def _assert_scored_alone(flow, traj):
    """Every predicted instant's logged residual has the bits of its own
    single-instant residual call."""
    predicted = [k for k, kd in enumerate(traj.kind) if kd == "predicted"]
    assert predicted
    for k in predicted:
        alone = densela.residual(flow.sample(traj.times[k]), traj.z[k])
        assert np.array_equal(traj.residuals[k], alone)


def _spy_blocks(monkeypatch):
    """Record the size of every stacked residual call run() makes."""
    sizes, residual = [], znn.residual

    def spy(A, z, *args, **kwargs):
        if np.ndim(A) == 3:
            sizes.append(len(A))
        return residual(A, z, *args, **kwargs)
    monkeypatch.setattr(znn, "residual", spy)
    return sizes


@pytest.mark.parametrize("n, block, tf", [(7, 128, 1.6), (32, 8, 0.25)])
def test_logged_residuals_are_scored_alone_bit_for_bit(
        monkeypatch, separated_flow, n, block, tf):
    # a run with restarts and more than one block of predicted instants
    if n == 7:
        pool = builtin_flows()
        a, b = pool["A_s"], pool["A_sj"]
    else:
        a, b = separated_flow(n, seed=1), separated_flow(n, seed=2)
    flow = with_jumps(a, b, JumpSchedule((0.5 * tf, 0.8 * tf)))
    cfg = SolverConfig(preset="ifd5", tau=0.005, eta=4.5, tf=tf)
    sizes = _spy_blocks(monkeypatch)
    traj = run(flow, cfg)
    assert len(traj.restarts()) == 2
    # each start scores its own s* samples in one call; the log the rest
    starts = 1 + len(traj.restarts())
    assert sum(sizes) == traj.kind.count("predicted") + starts * cfg.s_star
    assert len(sizes) - starts > 1 and max(sizes) == block
    _assert_scored_alone(flow, traj)


@pytest.mark.parametrize("predictor", ["Tracker", "_Hold"])
def test_every_predictor_meets_the_driver_contract(predictor):
    # run drives a Tracker, naive_baseline a _Hold: through jumps, each
    # predicted instant logs residual(A_k, z_k) alone, and runs repeat
    pool = builtin_flows()
    flow = with_jumps(pool["A_s"], pool["A_sj"], JumpSchedule((0.8,)))
    cfg = SolverConfig(tau=0.005, eta=4.5, tf=1.6)
    drive = ((lambda: znn._drive(flow, cfg, znn._Hold(7)))
             if predictor == "_Hold" else (lambda: run(flow, cfg)))
    first, again = drive(), drive()
    _assert_scored_alone(flow, first)
    for name in ("z", "kind_code", "residuals", "lstsq", "da_norms"):
        np.testing.assert_array_equal(getattr(first, name),
                                      getattr(again, name))


def test_restart_abort_leaves_the_queued_instants_scored(monkeypatch):
    # the restart's eigensolver fails while predicted instants are queued
    pool = builtin_flows()
    flow = with_jumps(pool["A_s"], pool["A_sj"], JumpSchedule((0.5,)))
    cfg = SolverConfig(preset="ifd5", tau=0.005, eta=4.5, tf=1.0)
    calls, eig = [], znn.sym_eig_batch

    def failing_on_restart(As):
        calls.append(len(As))
        if len(calls) > 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(As)
    monkeypatch.setattr(znn, "sym_eig_batch", failing_on_restart)
    with pytest.raises(NumericalAbort, match="startup eigensolver") as info:
        run(flow, cfg)
    partial = info.value.trajectory
    assert partial.times[-1] == pytest.approx(0.5 - cfg.tau)
    assert 0 < partial.kind.count("predicted") < 128
    _assert_scored_alone(flow, partial)


def test_non_finite_abort_leaves_the_queued_instants_scored(monkeypatch,
                                                            smooth7):
    # one full block scored, then a non-finite solve with instants queued
    solves, solve = [], znn.solve_batch

    def poisoned(*args):
        solves.append(solve(*args))
        if len(solves) == 140:
            return dataclasses.replace(
                solves[-1], x=np.full_like(solves[-1].x, np.nan))
        return solves[-1]
    monkeypatch.setattr(znn, "solve_batch", poisoned)
    cfg = SolverConfig(preset="ifd5", tau=0.005, eta=4.5, tf=1.0)
    with pytest.raises(NumericalAbort, match="non-finite") as info:
        run(smooth7, cfg)
    partial = info.value.trajectory
    assert partial.kind.count("predicted") == 139
    _assert_scored_alone(smooth7, partial)


def test_derivative_overflow_aborts_with_the_partial_trajectory():
    # every sample is finite, so flow.sample lets the t = 0.2 one
    # through; the estimate built on it overflows, and the run ends as a
    # numerical abort naming the instant, not as observe's ValueError
    flow = with_jumps(constant_flow(np.diag([1.0, 2.0])),
                      constant_flow(np.diag([1.5e306, 2.0])),
                      JumpSchedule([0.2]))
    cfg = SolverConfig(tau=0.01, tf=0.39)
    with pytest.raises(NumericalAbort,
                       match=r"\|\|dA\|\|_F is not finite at t=0\.2$") as info:
        run(flow, cfg)
    partial = info.value.trajectory
    assert partial.times[-1] == 0.19
    assert np.isfinite(partial.z).all()
    _assert_scored_alone(flow, partial)


def test_hold_norm_overflow_aborts_with_the_partial_trajectory():
    # the same finite samples under decompose-and-hold: the t = 0.2
    # sample's own norm overflows, and the abort names that instant
    flow = with_jumps(constant_flow(np.diag([1.0, 2.0])),
                      constant_flow(np.diag([1.5e306, 2.0])),
                      JumpSchedule([0.2]))
    cfg = SolverConfig(tau=0.01, tf=0.39)
    with pytest.raises(NumericalAbort,
                       match=r"\|\|A\|\|_F is not finite at t=0\.2$") as info:
        znn._drive(flow, cfg, znn._Hold(2))
    partial = info.value.trajectory
    assert partial.times[-1] == 0.19
    assert np.isfinite(partial.z).all()
    _assert_scored_alone(flow, partial)
