"""One-step-ahead eigenpair prediction for symmetric matrix flows.

Each eigenpair is tracked through the stacked vector z = [x; lambda].
Zeroing the eigen-equation residual and the normalization defect with
exponential decay rates eta and mu turns the eigenproblem into a linear
system P(t_k) zdot = q(t_k) per pair, where

    P = [[A - lambda*I, -x], [-x^T, 0]],
    q = [(-eta*(A - lambda*I) - dA) x ; (mu/2)(x^T x - 1)].

A convergent look-ahead recursion advances z one sampling instant ahead
using only current and past data, with the flow derivative dA estimated
by a backward difference on the recorded samples.  Startup eigendata
comes from the static eigensolver; an unusually large derivative
estimate signals a data discontinuity and triggers a fresh startup.
``Tracker`` holds that state for a stream of samples; ``run`` drives it
over a flow's sampling grid, and the same loop drives ``_Hold``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Real
from types import SimpleNamespace
from typing import List, Optional

import numpy as np

from . import densela
from .densela import fro_norm, residual, sym_eig_batch
# perfbench/worker.py times and counts the solve layer by wrapping this
# module's global ``solve_batch``: keep the name, one call per predict,
# positional arguments (A, Z, qs, then the tracker's work arrays) and a
# report of one entry per pair.
from .densela import solve_bordered as solve_batch
from .flows import MatrixFlow
from .formulas import PRESETS, catalog, derivative_estimate

__all__ = [
    "KINDS",
    "SolverConfig",
    "Trajectory",
    "NumericalAbort",
    "Tracker",
    "run",
]

_CATALOG = catalog()
# The most sampling instants one run may have: 2500 times the 4001 of the
# benchmark scenario; the (K+1, n, n+1) trajectory is then 4.5 GB at n = 7.
MAX_INSTANTS = 10**7
# what each instant of a run is, by its code in ``Trajectory.kind_code``:
# a prediction, a static startup instant, or the instant that fired a restart
KINDS = ("predicted", "startup", "restart-triggered")
_PREDICTED, _STARTUP, _RESTART = range(len(KINDS))


class NumericalAbort(RuntimeError):
    """Raised when the run hits non-finite values or a solver failure.

    The partial trajectory computed so far is preserved on the exception.
    """

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


class _NonFiniteNorm(ValueError):
    """A predictor's ``observe`` error for a NaN or infinite norm of what
    it was fed; ``norm`` names that norm in ``_drive``'s abort."""

    def __init__(self, norm: str, message: str):
        super().__init__(message)
        self.norm = norm


@dataclass
class SolverConfig:
    """Everything a run needs: gaps, gains, formula preset, threshold, span.

    The defaults are the benchmark scenario, and the CLI's too.  ``mu``
    (the normalization decay rate) defaults to ``eta``.  ``preset`` picks
    a look-ahead recursion and derivative formula pair from ``PRESETS``;
    the startup length s* is the larger tap count of the two.  A
    ``jump_threshold`` of ``inf`` never restarts.  Every field's type and
    range is checked here and each number stored as a float, so a bad
    value fails on construction; that includes a grid of more than
    ``MAX_INSTANTS`` instants, rejected before any of it is allocated.
    """

    tau: float = 0.005
    eta: float = 4.5
    mu: Optional[float] = None
    preset: str = "ifd5"
    jump_threshold: float = 300.0
    t0: float = 0.0
    tf: float = 20.0

    def __post_init__(self):
        if self.mu is None:
            self.mu = self.eta
        for name in ("tau", "eta", "mu", "jump_threshold", "t0", "tf"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            try:
                setattr(self, name, float(value))
            except OverflowError:
                raise ValueError(f"{name} must be finite") from None
        for name in ("tau", "eta", "mu", "t0", "tf"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value <= 0 and name in ("tau", "eta", "mu"):
                raise ValueError(f"{name} must be positive")
        if self.tf <= self.t0:
            raise ValueError("tf must exceed t0")
        steps = (self.tf - self.t0) / self.tau
        if not math.isfinite(steps) or round(steps) + 1 > MAX_INSTANTS:
            raise ValueError(
                f"tau={self.tau!r} over [t0, tf] = [{self.t0!r}, "
                f"{self.tf!r}] gives {steps + 1:.4g} instants; at most "
                f"{MAX_INSTANTS} are allowed")
        if not self.jump_threshold > 0:     # NaN included
            raise ValueError(
                f"jump_threshold must be positive (inf never restarts), "
                f"got {self.jump_threshold!r}")
        if not isinstance(self.preset, str) or self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; pick one of "
                             f"{', '.join(sorted(PRESETS))}")

    @property
    def recursion(self) -> str:
        return PRESETS[self.preset][0]

    @property
    def derivative(self) -> str:
        return PRESETS[self.preset][1]

    @property
    def recursion_rule(self):
        return _CATALOG[self.recursion]

    @property
    def derivative_rule(self):
        return _CATALOG[self.derivative]

    @property
    def s_star(self) -> int:
        return max(self.recursion_rule.taps, self.derivative_rule.taps)

    @property
    def times(self) -> np.ndarray:
        """The sampling grid t_k = t0 + k*tau, k = 0..round((tf-t0)/tau)."""
        K = round((self.tf - self.t0) / self.tau)
        return self.t0 + self.tau * np.arange(K + 1)


@dataclass
class Trajectory:
    """Full run output: per-instant stacked vectors and diagnostics.

    Each per-instant fact is stored once, in the arrays; ``kind`` and
    ``restarts()`` are derived from them.  A restart's spike is the
    derivative norm logged at its instant.
    """

    times: np.ndarray              # (K+1,)
    z: np.ndarray                  # (K+1, n, n+1)
    kind_code: np.ndarray          # (K+1,) uint8, an index into KINDS
    residuals: np.ndarray          # (K+1, n)
    lstsq: np.ndarray              # (K+1, n), True where the solve fell back
    da_norms: np.ndarray           # (K+1,), NaN where no estimate exists
    config: SolverConfig

    @property
    def n(self) -> int:
        return self.z.shape[1]

    @property
    def kind(self) -> List[str]:
        """Each instant's name in KINDS, as a new list."""
        return [KINDS[c] for c in self.kind_code.tolist()]

    def restarts(self) -> list:
        """``(t, spike)`` of each restart, in order."""
        ks = np.flatnonzero(self.kind_code == _RESTART)
        return list(zip(self.times[ks].tolist(), self.da_norms[ks].tolist()))


def _rhs_batch(A, dA, Z, eta: float, mu: float, out=None):
    """Right-hand sides q of the bordered systems of all pairs at one
    instant, (n_pairs, n+1); Z has shape (n_pairs, n+1).  They are
    written into ``out`` when it is given."""
    n = A.shape[0]
    X = Z[:, :n]
    lam = Z[:, n]
    qs = np.empty((len(Z), n + 1)) if out is None else out
    # row i is x_i^T (-eta A - dA) + eta lam_i x_i^T: A and dA are symmetric
    Q = X @ (A * -eta - dA)
    Q += (eta * lam)[:, None] * X
    qs[:, :n] = Q
    qs[:, n] = 0.5 * mu * (np.add.reduce(X * X, axis=1) - 1.0)
    return qs


def _first_choices(dist, aov, axis):
    """Each row's (axis 1) or column's (axis 0) first candidate: least
    distance, then larger |overlap|, then lower index."""
    best = dist.min(axis=axis, keepdims=True)
    return np.where(dist == best, aov, -1.0).argmax(axis=axis)


def _match_pairs(lam_prev, X_prev, w_new, V_new):
    """Greedy continuity matching of fresh static eigendata to tracked pairs.

    The greedy order assigns pairs by increasing eigenvalue distance,
    ties broken by larger eigenvector overlap, then by tracked index,
    then by fresh index; the chosen eigenvector is then sign-aligned
    with its predecessor.  The greedy result is built in passes over the
    pairs still unmatched.  A pass takes each tracked pair's first
    candidate; when these are all distinct, they are the greedy result
    and the matching ends (on a continuity step, the first pass).
    Otherwise the pass assigns every locally dominant pair, first in both
    its row and its column, which greedy would assign too, and the next
    pass works on the rows and columns left (Preis, STACS 1999).
    """
    overlaps = X_prev @ V_new            # (n, n): tracked x fresh
    dist = np.abs(lam_prev[:, None] - w_new)
    aov = np.abs(overlaps)
    match = _first_choices(dist, aov, 1)
    n = match.size
    if len(set(match.tolist())) < n:
        match = _dominant_rounds(dist, aov, match)
    X = V_new.T[match]
    np.negative(X, out=X, where=overlaps[np.arange(n), match][:, None] < 0.0)
    return w_new[match], X


def _dominant_rounds(dist, aov, first):
    """The passes of ``_match_pairs`` after a first pass whose first
    choices ``first`` collide; returns the fresh index of each row."""
    match = np.empty(first.size, dtype=np.intp)
    rows = cols = np.arange(first.size)
    d, a = dist, aov
    while True:
        # at least the least pair left dominates, so every pass shrinks
        # the problem (the eigendata are finite: sym_eig_batch checks)
        dominant = _first_choices(d, a, 0)[first] == np.arange(rows.size)
        match[rows[dominant]] = cols[first[dominant]]
        free = np.ones(cols.size, dtype=bool)
        free[first[dominant]] = False
        rows, cols = rows[~dominant], cols[free]
        if not rows.size:
            return match
        left = np.ix_(rows, cols)
        d, a = dist[left], aov[left]
        first = _first_choices(d, a, 1)
        if len(set(first.tolist())) == rows.size:
            match[rows] = cols[first]
            return match


def _static_blocks(samples):
    """Matched static eigendata for consecutive samples, (m, n, n+1).

    Pairs are ordered by ascending eigenvalue at the first sample; at
    each later sample the fresh decomposition is matched to the previous
    one for continuity and eigenvector signs are aligned (nonnegative
    consecutive inner product).  Row i of a block is pair i's [x; lambda].
    """
    w_all, V_all = sym_eig_batch(samples)
    m, n = w_all.shape
    blocks = np.empty((m, n, n + 1))
    lam, X = w_all[0], V_all[0].T.copy()   # row i = pair i's vector
    for j in range(m):
        if j > 0:
            lam, X = _match_pairs(lam, X, w_all[j], V_all[j])
        blocks[j, :, :n] = X
        blocks[j, :, n] = lam
    return blocks


class Tracker:
    """Streaming one-step-ahead predictor for all n pairs of a flow.

    Samples arrive one at a time, a sampling gap apart, and each
    prediction is made before the sample it predicts exists.  After
    ``do_startup`` seeds the state, the cycle is ``predict()`` for the
    next instant, then ``observe(A)`` with that instant's sample.  A jump
    reported by ``observe`` drops the state; seed again with
    ``do_startup``, starting at the sample that fired it.

    The derivative formula's sample window and the last s* state blocks
    (row i = pair i's [x; lambda]) are held in mirrored ring buffers: a
    ring of k entries is a (2k, ...) array; each new entry moves the start
    p back by one (mod k) and is written at p and at p + k, so the window,
    newest first, is always the one contiguous slice ``buf[p:p + m]``.
    ``observe`` copies each sample and each accepted prediction in; the
    derivative estimate and the recursion are then each one product of a
    coefficient row with that slice.  ``samples`` and ``states`` read the
    windows as lists of views, newest first; assigning ``states`` copies
    the given blocks in.  ``dA`` is the derivative estimate at the newest
    sample.  Each prediction is a new array.  The tracker owns the work
    arrays of ``solve_bordered`` (a ``densela.BasisWork``), allocated on
    construction; ``densela`` alone decides which arrays an n needs.
    ``predict`` writes the right-hand side into them in place.
    """

    def __init__(self, config: SolverConfig, n: int):
        rec = config.recursion_rule
        self.der = config.derivative_rule
        # plain floats and ints: the per-step methods read them every call
        self.tau, self.s_star = config.tau, config.s_star
        self.taps = self.der.taps
        self.eta, self.mu = config.eta, config.mu
        # capped, so that an infinite estimate is a jump at threshold inf
        self.threshold = min(config.jump_threshold, sys.float_info.max)
        self.tau_c = config.tau * rec.c_float()
        self.a = rec.a_float()
        self._shape = (n, n + 1)
        # rings: buffer, newest position, number of entries held
        self._sbuf = np.empty((2 * self.taps, n, n))
        self._sp = self._sn = 0
        self._zbuf = np.empty((2 * self.s_star, n, n + 1))
        self._zp = self._zn = 0
        self.dA = None
        self._pending = None           # the prediction awaiting its sample
        self._work = densela.BasisWork(n)

    @property
    def samples(self) -> List[np.ndarray]:
        return list(self._sbuf[self._sp:self._sp + self._sn])

    @property
    def states(self) -> List[np.ndarray]:
        return list(self._zbuf[self._zp:self._zp + self._zn])

    @states.setter
    def states(self, blocks):
        m = min(len(blocks), self.s_star)
        if m:
            self._zbuf[:m] = blocks[:m]
            self._zbuf[self.s_star:self.s_star + m] = blocks[:m]
        self._zp, self._zn = 0, m

    def do_startup(self, samples):
        """Seed from consecutive samples; the oldest is the first instant.

        Returns the matched static blocks, (m, n, n+1), and the
        derivative norm at each instant, NaN until the window fills.
        Raises ValueError when the samples are not (m, n, n) and
        ``numpy.linalg.LinAlgError`` when the eigensolver fails.
        """
        n, shape = self._shape[0], np.shape(samples)
        if len(shape) != 3 or shape[1:] != (n, n):
            raise ValueError(f"the tracker takes {n} x {n} samples (n = {n}), "
                             f"got a stack of shape {shape}")
        blocks = _static_blocks(samples)
        norms = np.full(len(blocks), np.nan)
        m = min(len(samples), self.taps)
        self._sbuf[:m] = samples[::-1][:m]
        self._sbuf[self.taps:self.taps + m] = samples[::-1][:m]
        self._sp, self._sn = 0, m
        self.dA = None
        for j in range(self.taps - 1, len(blocks)):
            self.dA = derivative_estimate(self.der, samples[j::-1], self.tau)
            norms[j] = fro_norm(self.dA)
        self.states = blocks[::-1]
        self._pending = None
        return blocks, norms

    def predict(self):
        """Predict the blocks at the next instant from data up to now.

        Returns ``(z_next, report)``: the (n, n+1) prediction and the
        solve report of its bordered systems.  Raises ValueError while
        the state or the sample window is shorter than its formula.
        """
        m = len(self.a)
        if self._zn < m or self._sn < self.taps:
            raise ValueError(
                f"predict needs {m} state blocks and {self.taps} samples, "
                f"has {self._zn} and {self._sn}; seed with a full "
                f"do_startup block")
        p = self._zp
        A, Z = self._sbuf[self._sp], self._zbuf[p]
        qs = _rhs_batch(A, self.dA, Z, self.eta, self.mu, self._work.q)
        sol = solve_batch(A, Z, qs, self._work)
        z_next = (self.a @ self._zbuf[p:p + m].reshape(m, -1)).reshape(
            self._shape)
        z_next += self.tau_c * sol.x
        self._pending = z_next
        return z_next, sol

    def observe(self, A):
        """Take the sample at the instant last predicted.

        Returns ``(jump, ||dA||_F)``.  The derivative estimate made here
        is the one the next prediction uses.  Without a jump the pending
        prediction becomes the newest state; with one the state is
        dropped.  A NaN or infinite ||dA||_F (a non-finite sample, or an
        estimate that overflows) drops the state too, and raises
        ValueError: no prediction can be built on it.
        """
        z_next, self._pending = self._pending, None
        if z_next is None:
            raise ValueError("observe needs a pending prediction")
        # the sample window is full once predicting
        k = self.taps
        p = self._sp = (self._sp - 1) % k
        self._sbuf[p] = A
        self._sbuf[p + k] = A
        self.dA = derivative_estimate(self.der, self._sbuf[p:p + k], self.tau)
        da = fro_norm(self.dA)
        if not da <= self.threshold:        # NaN and inf included
            self._zn = 0
            if not math.isfinite(da):
                raise _NonFiniteNorm(
                    "||dA||_F",
                    f"||dA||_F is {da}: the sample or its derivative "
                    f"estimate is not finite; seed again with do_startup")
            return True, da
        k = self.s_star
        p = self._zp = (self._zp - 1) % k
        self._zbuf[p] = z_next
        self._zbuf[p + k] = z_next
        if self._zn < k:
            self._zn += 1
        return False, da


class _Hold:
    """Decompose-and-hold on ``Tracker``'s protocol: each instant is
    predicted as the static eigendata of the sample before, matched to
    the pairs held for continuity as ``_static_blocks`` matches them."""

    s_star = 1

    def __init__(self, n: int):
        self._report = SimpleNamespace(lstsq=np.zeros(n, dtype=bool))

    def do_startup(self, samples):
        blocks = _static_blocks(samples)
        self._z = blocks[-1]
        # contiguous, like the matcher's output: bit for bit one chain
        self._X = np.ascontiguousarray(self._z[:, :-1])
        return blocks, np.full(len(blocks), np.nan)

    def predict(self):
        return self._z, self._report

    def observe(self, A):
        norm = fro_norm(A)
        if not math.isfinite(norm):     # finite entries, overflowing norm
            raise _NonFiniteNorm("||A||_F", f"||A||_F is {norm}")
        (w,), (V,) = sym_eig_batch(A[None])
        lam, self._X = _match_pairs(self._z[:, -1], self._X, w, V)
        self._z = np.column_stack((self._X, lam))
        return False, math.nan


def run(flow: MatrixFlow, config: SolverConfig) -> Trajectory:
    """Track the full eigendecomposition across the configured span:
    ``_drive`` over a ``Tracker``."""
    return _drive(flow, config, Tracker(config, flow.n))


def _drive(flow: MatrixFlow, config: SolverConfig, predictor) -> Trajectory:
    """The one prediction loop, over any predictor with ``Tracker``'s
    ``s_star``, ``do_startup``, ``predict`` and ``observe``.

    It checks the span up front, feeds the flow's samples on the grid
    and records every instant.  A reported jump discards the in-flight
    prediction and starts the predictor again at the offending instant,
    from its next s* samples.  A non-finite prediction, a failed solve
    or eigensolve and a norm that overflows on finite samples (the
    derivative estimate's; the sample's itself for ``_Hold``) abort with
    the partial trajectory attached.

    The residual log does not feed the next prediction, so predicted
    instants are scored in blocks: each one's sample and pairs are
    copied into a queue of ``densela._instant_block(n)`` instants (at
    most 128 and 64 KB of samples, the rule of every pass over a run's
    instants), and the queue is scored by one stacked ``residual`` call
    when it is full, at the end of the run and before an abort.  The
    stacked call gives each instant the bits of ``residual(A_k, z_k)``
    alone.  The flow is sampled at Python floats, ``times.item(k)``, the
    same values as the grid's entries.
    """
    s_star = predictor.s_star
    n = flow.n
    times = config.times
    K = times.size - 1
    if times[0] < flow.span[0] or times[-1] > flow.span[1]:
        raise ValueError("configured span leaves the flow's domain")

    Z = np.zeros((K + 1, n, n + 1))
    kind_code = np.full(K + 1, _PREDICTED, dtype=np.uint8)
    residuals = np.full((K + 1, n), np.nan)
    lstsq = np.zeros((K + 1, n), dtype=bool)
    da_norms = np.full(K + 1, np.nan)
    block = densela._instant_block(n)
    # the pairs are queued with their samples, so scoring gathers no copy
    # of them: its scratch then stays under glibc's 128 KB heap-trim
    # threshold, where with the gather each n = 32 scoring freed the heap
    # top and faulted it back in, about 100 us on dense-n32
    queue_A = np.empty((block, n, n))
    queue_Z = np.empty((block, n, n + 1))
    queue_k = np.empty(block, dtype=np.intp)
    queued = 0

    def score(m: int):
        if m:
            residuals[queue_k[:m]] = residual(queue_A[:m], queue_Z[:m])

    def partial(upto: int) -> Trajectory:
        score(queued)
        return Trajectory(times=times[:upto + 1], z=Z[:upto + 1],
                          kind_code=kind_code[:upto + 1],
                          residuals=residuals[:upto + 1],
                          lstsq=lstsq[:upto + 1],
                          da_norms=da_norms[:upto + 1], config=config)

    def start(k0: int, first_code: int) -> int:
        last = min(k0 + s_star - 1, K)   # clip when a jump lands near tf
        # A restart samples its first instant again although observe()
        # just saw it: perfbench/worker.py tells restarts from steps by
        # this repeated sample time, so keep the call order.
        samples = np.stack([flow.sample(times.item(k))
                            for k in range(k0, last + 1)])
        try:
            blocks, norms = predictor.do_startup(samples)
        except np.linalg.LinAlgError as exc:
            raise NumericalAbort(
                f"startup eigensolver failed at t={times[k0]}: {exc}",
                partial(k0 - 1)) from exc
        Z[k0:last + 1] = blocks
        # a one-sample window has no estimate: index k0 keeps the spike
        da_norms[k0 + 1:last + 1] = norms[1:]
        residuals[k0:last + 1] = residual(samples, blocks)
        kind_code[k0] = first_code
        kind_code[k0 + 1:last + 1] = _STARTUP
        return last

    # A diverging run overflows inside the solves and the residual log
    # before its prediction is found non-finite and the run aborts
    # with a message: numpy's overflow and invalid-value warnings stay
    # silent meanwhile.  One context holds for the whole loop, because
    # entering one costs about a microsecond.
    with np.errstate(over="ignore", invalid="ignore"):
        k = start(0, _STARTUP)
        while k < K:
            knew = k + 1
            try:
                z, sol = predictor.predict()
            except (densela.MatrixShapeError, np.linalg.LinAlgError) as exc:
                raise NumericalAbort(f"solve failed at step {k}: {exc}",
                                     partial(k)) from exc
            A_new = flow.sample(times.item(knew))
            try:
                jump, da_norms[knew] = predictor.observe(A_new)
            except _NonFiniteNorm as exc:
                raise NumericalAbort(f"{exc.norm} is not finite at "
                                     f"t={times[knew]}", partial(k)) from exc
            except np.linalg.LinAlgError as exc:   # _Hold's eigensolve
                raise NumericalAbort(f"eigensolver failed at t={times[knew]}: "
                                     f"{exc}", partial(k)) from exc
            if jump:
                k = start(knew, _RESTART)
                continue
            if not np.isfinite(z).all():
                raise NumericalAbort(
                    f"non-finite prediction at t={times[knew]}", partial(k))
            Z[knew] = z
            lstsq[knew] = sol.lstsq
            queue_A[queued] = A_new
            queue_Z[queued] = z
            queue_k[queued] = knew
            queued += 1
            if queued == block:
                score(queued)
                queued = 0
            k = knew

        score(queued)
    return Trajectory(times=times, z=Z, kind_code=kind_code,
                      residuals=residuals, lstsq=lstsq, da_norms=da_norms,
                      config=config)
