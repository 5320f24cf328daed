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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import densela
from .densela import fro_norm, residual, sym_eig_batch, solve_batch
from .flows import MatrixFlow
from .formulas import PRESETS, catalog, derivative_estimate

__all__ = [
    "SolverConfig",
    "EigenPairState",
    "StepEvent",
    "Trajectory",
    "NumericalAbort",
    "assemble",
    "step",
    "startup",
    "detect_jump",
    "run",
]

_CATALOG = catalog()


class NumericalAbort(RuntimeError):
    """Raised when the run hits non-finite values or a solver failure.

    The partial trajectory computed so far is preserved on the exception.
    """

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass
class SolverConfig:
    """Everything a run needs: gaps, gains, rules, thresholds, span.

    ``mu`` (the normalization decay rate) defaults to ``eta``.  The
    startup length s* is the larger tap count of the chosen recursion and
    derivative formula.
    """

    tau: float
    eta: float
    mu: Optional[float] = None
    recursion: str = "IFD5"
    derivative: str = "BDF4pt"
    jump_threshold: float = 300.0
    t0: float = 0.0
    tf: float = 20.0

    def __post_init__(self):
        if self.mu is None:
            self.mu = self.eta
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.eta <= 0 or self.mu <= 0:
            raise ValueError("decay constants must be positive")
        if self.tf <= self.t0:
            raise ValueError("tf must exceed t0")
        if self.recursion not in _CATALOG:
            raise ValueError(f"unknown recursion {self.recursion!r}")
        if self.derivative not in _CATALOG:
            raise ValueError(f"unknown derivative formula {self.derivative!r}")

    @classmethod
    def from_preset(cls, preset: str, **kwargs) -> "SolverConfig":
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}")
        rec, der = PRESETS[preset]
        return cls(recursion=rec, derivative=der, **kwargs)

    @property
    def recursion_rule(self):
        return _CATALOG[self.recursion]

    @property
    def derivative_rule(self):
        return _CATALOG[self.derivative]

    @property
    def s_star(self) -> int:
        return max(self.recursion_rule.taps, self.derivative_rule.taps)


@dataclass
class EigenPairState:
    """Ring buffer of the last s* stacked vectors for one tracked pair.

    ``zbuf`` holds the newest entry last.  The matrix-sample history is
    shared across pairs and lives with the run loop, not here.
    """

    index: int
    zbuf: List[np.ndarray] = field(default_factory=list)
    capacity: int = 4

    def push(self, z: np.ndarray) -> None:
        self.zbuf.append(np.asarray(z, dtype=float))
        if len(self.zbuf) > self.capacity:
            self.zbuf.pop(0)

    @property
    def full(self) -> bool:
        return len(self.zbuf) >= self.capacity


@dataclass
class StepEvent:
    """Per-instant record: tag plus per-pair diagnostics."""

    t: float
    kind: str                      # predicted | startup | restart-triggered
    residuals: np.ndarray
    solve_methods: tuple
    da_norm: float = float("nan")  # restart-triggered events carry the spike


@dataclass
class Trajectory:
    """Full run output: per-instant stacked vectors and diagnostics.

    Each per-instant fact is stored once, in the arrays; ``events`` and
    ``restart_events()`` are derived from them.  A restart's spike is the
    derivative norm logged at its instant.
    """

    times: np.ndarray              # (K+1,)
    z: np.ndarray                  # (K+1, n, n+1)
    kind: list                     # per-instant tag strings
    residuals: np.ndarray          # (K+1, n)
    solve_methods: list            # per instant: tuple of per-pair methods
    da_norms: np.ndarray           # (K+1,), NaN where no estimate exists
    config: SolverConfig

    @property
    def n(self) -> int:
        return self.z.shape[1]

    def _event(self, k: int) -> StepEvent:
        kind = self.kind[k]
        return StepEvent(
            t=self.times[k], kind=kind, residuals=self.residuals[k],
            solve_methods=self.solve_methods[k],
            da_norm=(float(self.da_norms[k]) if kind == "restart-triggered"
                     else float("nan")))

    @property
    def events(self) -> List[StepEvent]:
        return [self._event(k) for k in range(len(self.kind))]

    def restart_events(self) -> List[StepEvent]:
        return [self._event(k) for k, kind in enumerate(self.kind)
                if kind == "restart-triggered"]


def assemble(A, dA, z, eta: float, mu: float):
    """Bordered system for one eigenpair at one instant.

    Returns (P, q) with P symmetric whenever A is.  The stacked vector z
    is split as x = z[:n], lambda = z[n].
    """
    A = np.asarray(A, dtype=float)
    z = np.asarray(z, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise densela.MatrixShapeError(f"A must be square, got {A.shape}")
    if z.shape != (n + 1,):
        raise densela.MatrixShapeError(
            f"stacked vector has length {z.shape}, expected {n + 1}")
    dA = np.asarray(dA, dtype=float)
    if dA.shape != (n, n):
        raise densela.MatrixShapeError(f"dA must match A, got {dA.shape}")
    Ps, qs = _assemble_batch(A, dA, z[None], eta, mu)
    return Ps[0], qs[0]


def _assemble_batch(A, dA, Z, eta: float, mu: float, Ps=None, qs=None):
    """Bordered systems for all pairs at one instant.

    Z has shape (n_pairs, n+1); returns stacked (Ps, qs).  Buffers from an
    earlier call may be passed back in: each call overwrites the A -
    lambda*I block and the -x border of Ps (its corner stays 0) and all
    of qs.
    """
    n = A.shape[0]
    X = Z[:, :n]
    lam = Z[:, n]
    if Ps is None:
        Ps, qs = np.zeros((len(Z), n + 1, n + 1)), np.empty((len(Z), n + 1))
    Ps[:, :n, :n] = A
    # the block's diagonal as a strided view of the contiguous stack
    Ps.reshape(len(Z), -1)[:, :n * (n + 2):n + 2] -= lam[:, None]
    np.negative(X, out=Ps[:, :n, n])
    Ps[:, n, :n] = Ps[:, :n, n]
    AX = X @ A.T
    qs[:, :n] = -eta * (AX - lam[:, None] * X) - X @ dA.T
    qs[:, n] = 0.5 * mu * (np.add.reduce(X * X, axis=1) - 1.0)
    return Ps, qs


class _Predictor:
    """The one prediction kernel: assemble, solve, recurse, for all pairs.

    Holds the recursion weights as floats and the bordered buffers, which
    are allocated once and overwritten on every call.
    """

    def __init__(self, config: SolverConfig, n: int, npairs: int):
        rec = config.recursion_rule
        self.eta, self.mu = config.eta, config.mu
        self.tau_c = config.tau * rec.c_float()
        self.a = rec.a_float()
        self.Ps = np.zeros((npairs, n + 1, n + 1))
        self.qs = np.empty((npairs, n + 1))

    def __call__(self, A, dA, zhist, out):
        """Write z_{k+1} into ``out``; return the solve report.

        ``zhist[j]`` is the (n_pairs, n+1) block j instants back, newest
        first, with at least as many entries as the recursion has taps.
        """
        _assemble_batch(A, dA, zhist[0], self.eta, self.mu, self.Ps, self.qs)
        sol = solve_batch(self.Ps, self.qs)
        np.multiply(self.tau_c, sol.x, out=out)
        for j, a in enumerate(self.a):
            out += a * zhist[j]
        return sol


def step(state: EigenPairState, a_history, config: SolverConfig):
    """Advance one pair a single instant; returns the predicted z.

    ``a_history`` lists the matrix samples newest first, at least as many
    as the derivative formula taps.  The state buffer must be full.
    """
    taps = config.recursion_rule.taps
    if len(state.zbuf) < taps:
        raise ValueError(
            f"state buffer holds {len(state.zbuf)} vectors, "
            f"recursion needs {taps}")
    dA = derivative_estimate(config.derivative_rule, a_history, config.tau)
    zhist = np.stack(state.zbuf[::-1])[:, None, :]   # newest first, 1 pair
    m = zhist.shape[2]
    z_next = np.empty((1, m))
    _Predictor(config, m - 1, 1)(a_history[0], dA, zhist, z_next)
    return z_next[0]


def _match_pairs(lam_prev, X_prev, w_new, V_new):
    """Greedy continuity matching of fresh static eigendata to tracked pairs.

    Pairs are assigned in order of increasing eigenvalue distance, ties
    broken by larger eigenvector overlap; the chosen eigenvector is then
    sign-aligned with its predecessor.
    """
    npairs = len(lam_prev)
    overlaps = X_prev @ V_new            # (npairs, npairs)
    cand = []
    for i in range(npairs):
        for j in range(npairs):
            cand.append((abs(lam_prev[i] - w_new[j]),
                         -abs(overlaps[i, j]), i, j))
    cand.sort()
    used_i = np.zeros(npairs, dtype=bool)
    used_j = np.zeros(npairs, dtype=bool)
    lam_out = np.empty(npairs)
    X_out = np.empty_like(X_prev)
    for _, _, i, j in cand:
        if used_i[i] or used_j[j]:
            continue
        used_i[i] = True
        used_j[j] = True
        vec = V_new[:, j]
        if vec @ X_prev[i] < 0.0:
            vec = -vec
        lam_out[i] = w_new[j]
        X_out[i] = vec
    return lam_out, X_out


def _static_blocks(samples):
    """Matched static eigendata for consecutive samples, (m, n, n+1).

    Pairs are ordered by ascending eigenvalue at the first sample; at
    each later one the fresh decomposition is matched to the previous one
    for continuity and eigenvector signs are aligned (nonnegative
    consecutive inner product).  Row i of a block is pair i's [x; lambda].
    """
    w_all, V_all = sym_eig_batch(samples)
    m, n = w_all.shape
    blocks = np.empty((m, n, n + 1))
    lam, X = w_all[0], V_all[0].T.copy()   # row i = eigenvector of pair i
    for j in range(m):
        if j > 0:
            lam, X = _match_pairs(lam, X, w_all[j], V_all[j])
        blocks[j, :, :n] = X
        blocks[j, :, n] = lam
    return blocks


def startup(flow: MatrixFlow, t_start: float, config: SolverConfig):
    """Static eigendata for the first s* instants, matched and aligned.

    Returns n EigenPairStates with full buffers, filled from
    ``_static_blocks`` of the samples at t_start, t_start + tau, ...
    """
    s_star = config.s_star
    blocks = _static_blocks(np.stack([flow.sample(t_start + j * config.tau)
                                      for j in range(s_star)]))
    states = [EigenPairState(index=i, capacity=s_star)
              for i in range(flow.n)]
    for block in blocks:
        for st, z in zip(states, block):
            st.push(z)
    return states


def detect_jump(da_estimate, threshold: float) -> bool:
    """True when the derivative estimate is too large to be smooth data."""
    return fro_norm(da_estimate) > threshold


def run(flow: MatrixFlow, config: SolverConfig) -> Trajectory:
    """Track the full eigendecomposition across the configured span.

    The outer loop walks the sampling grid; at each instant the n bordered
    systems are solved (independently -- they share only the read-only
    sample history) and the recursion emits the next stacked vectors.  A
    derivative estimate above the jump threshold discards the in-flight
    prediction and restarts with fresh static eigendata at the offending
    instant; predictions resume once the buffers refill.  The estimate
    made for the jump test at an instant is the one the next prediction
    uses.  Non-finite values or solver failures abort with the partial
    trajectory attached.
    """
    der = config.derivative_rule
    s_star = config.s_star
    n = flow.n
    tau = config.tau
    K = int(round((config.tf - config.t0) / tau))
    times = config.t0 + tau * np.arange(K + 1)
    if times[0] < flow.span[0] or times[-1] > flow.span[1]:
        raise ValueError("configured span leaves the flow's domain")

    Z = np.zeros((K + 1, n, n + 1))
    kind = ["predicted"] * (K + 1)
    residuals = np.full((K + 1, n), np.nan)
    solve_methods = [("",) * n] * (K + 1)
    da_norms = np.full(K + 1, np.nan)
    predict = _Predictor(config, n, n)
    a_hist: List[np.ndarray] = []    # newest first, at most der.taps
    dA = None                        # estimate at the newest instant

    def partial(upto: int) -> Trajectory:
        return Trajectory(times=times[:upto + 1], z=Z[:upto + 1],
                          kind=kind[:upto + 1],
                          residuals=residuals[:upto + 1],
                          solve_methods=solve_methods[:upto + 1],
                          da_norms=da_norms[:upto + 1], config=config)

    def do_startup(k0: int, first_kind: str):
        nonlocal dA
        a_hist.clear()
        last = min(k0 + s_star - 1, K)   # clip when a jump lands near tf
        samples = np.stack([flow.sample(times[k]) for k in range(k0, last + 1)])
        try:
            Z[k0:last + 1] = _static_blocks(samples)
        except np.linalg.LinAlgError as exc:
            raise NumericalAbort(
                f"startup eigensolver failed at t={times[k0]}: {exc}",
                partial(k0 - 1)) from exc
        for j, k in enumerate(range(k0, last + 1)):
            kind[k] = first_kind if j == 0 else "startup"
            residuals[k] = residual(samples[j], Z[k])
            solve_methods[k] = ("static",) * n
            a_hist.insert(0, samples[j])
            if len(a_hist) > der.taps:
                a_hist.pop()
            if len(a_hist) == der.taps:
                dA = derivative_estimate(der, a_hist, tau)
                da_norms[k] = fro_norm(dA)
        return last

    k = do_startup(0, "startup")
    while k < K:
        # prediction for the next instant, from data up to t_k only
        knew = k + 1
        try:
            sol = predict(a_hist[0], dA, Z[k::-1], Z[knew])
        except (densela.MatrixShapeError, np.linalg.LinAlgError) as exc:
            raise NumericalAbort(f"solve failed at step {k}: {exc}",
                                 partial(k)) from exc
        A_new = flow.sample(times[knew])
        a_hist.insert(0, A_new)      # the window is full once predicting
        a_hist.pop()
        dA = derivative_estimate(der, a_hist, tau)
        da = fro_norm(dA)
        da_norms[knew] = da
        if da > config.jump_threshold:     # detect_jump's rule
            k = do_startup(knew, "restart-triggered")
            continue
        if not np.isfinite(Z[knew]).all():
            raise NumericalAbort(
                f"non-finite prediction at t={times[knew]}", partial(k))
        residuals[knew] = residual(A_new, Z[knew])
        solve_methods[knew] = sol.methods
        k = knew

    return Trajectory(times=times, z=Z, kind=kind, residuals=residuals,
                      solve_methods=solve_methods, da_norms=da_norms,
                      config=config)
