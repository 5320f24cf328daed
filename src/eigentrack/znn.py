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
from .densela import fro_norm, sym_eig_batch, solve, solve_batch
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
    """Full run output: per-instant stacked vectors plus tagged events."""

    times: np.ndarray              # (K+1,)
    z: np.ndarray                  # (K+1, n, n+1)
    kind: list                     # per-instant tag strings
    residuals: np.ndarray          # (K+1, n)
    solve_methods: list            # per instant: tuple of per-pair methods
    da_norms: np.ndarray           # (K+1,), NaN where no estimate exists
    events: List[StepEvent]
    config: SolverConfig

    @property
    def n(self) -> int:
        return self.z.shape[1]

    def restart_events(self) -> List[StepEvent]:
        return [e for e in self.events if e.kind == "restart-triggered"]


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
    x, lam = z[:n], z[n]
    shifted = A - lam * np.eye(n)
    P = np.zeros((n + 1, n + 1))
    P[:n, :n] = shifted
    P[:n, n] = -x
    P[n, :n] = -x
    q = np.zeros(n + 1)
    q[:n] = (-eta * shifted - dA) @ x
    q[n] = 0.5 * mu * (x @ x - 1.0)
    return P, q


def _assemble_batch(A, dA, Z, eta: float, mu: float):
    """Vectorized assemble for all pairs at one instant.

    Z has shape (n_pairs, n+1); returns stacked (Ps, qs).
    """
    n = A.shape[0]
    npairs = Z.shape[0]
    X = Z[:, :n]
    lam = Z[:, n]
    Ps = np.zeros((npairs, n + 1, n + 1))
    Ps[:, :n, :n] = A[None, :, :]
    idx = np.arange(n)
    Ps[:, idx, idx] -= lam[:, None]
    Ps[:, :n, n] = -X
    Ps[:, n, :n] = -X
    AX = X @ A.T
    qs = np.zeros((npairs, n + 1))
    qs[:, :n] = -eta * (AX - lam[:, None] * X) - X @ dA.T
    qs[:, n] = 0.5 * mu * ((X * X).sum(axis=1) - 1.0)
    return Ps, qs


def step(state: EigenPairState, a_history, config: SolverConfig):
    """Advance one pair a single instant; returns the predicted z.

    ``a_history`` lists the matrix samples newest first, at least as many
    as the derivative formula taps.  The state buffer must be full.
    """
    rec = config.recursion_rule
    der = config.derivative_rule
    if len(state.zbuf) < rec.taps:
        raise ValueError(
            f"state buffer holds {len(state.zbuf)} vectors, "
            f"recursion needs {rec.taps}")
    dA = derivative_estimate(der, a_history, config.tau)
    P, q = assemble(a_history[0], dA, state.zbuf[-1], config.eta, config.mu)
    rep = solve(P, q)
    z_next = config.tau * rec.c_float() * rep.x
    af = rec.a_float()
    for j in range(rec.taps):
        z_next = z_next + af[j] * state.zbuf[-1 - j]
    return z_next


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


def startup(flow: MatrixFlow, t_start: float, config: SolverConfig):
    """Static eigendata for the first s* instants, matched and aligned.

    Returns n EigenPairStates with full buffers.  Pairs are ordered by
    ascending eigenvalue at the first instant; at each later instant the
    fresh decomposition is matched to the previous one for continuity and
    eigenvector signs are aligned (nonnegative consecutive inner product).
    """
    s_star = config.s_star
    n = flow.n
    samples = np.stack([flow.sample(t_start + j * config.tau)
                        for j in range(s_star)])
    w_all, V_all = sym_eig_batch(samples)
    states = [EigenPairState(index=i, capacity=s_star) for i in range(n)]
    lam = w_all[0]
    X = V_all[0].T.copy()            # row i = eigenvector of pair i
    for i, st in enumerate(states):
        st.push(np.append(X[i], lam[i]))
    for k in range(1, s_star):
        lam, X = _match_pairs(lam, X, w_all[k], V_all[k])
        for i, st in enumerate(states):
            st.push(np.append(X[i], lam[i]))
    return states


def detect_jump(da_estimate, threshold: float) -> bool:
    """True when the derivative estimate is too large to be smooth data."""
    return fro_norm(da_estimate) > threshold


def _pair_residuals(A, Z):
    """Per-pair ||A x - lambda x||_2 / ||A||_F for stacked vectors Z.

    Same arithmetic, operation for operation, as the harness residual
    metric, so logged and recomputed values agree exactly.
    """
    n = A.shape[0]
    X = Z[:, :n]
    lam = Z[:, n]
    R = X @ A.T - lam[:, None] * X
    nrm = fro_norm(A)
    if nrm == 0.0:
        nrm = 1.0
    return np.sqrt((R * R).sum(axis=1)) / nrm


def run(flow: MatrixFlow, config: SolverConfig) -> Trajectory:
    """Track the full eigendecomposition across the configured span.

    The outer loop walks the sampling grid; at each instant the n bordered
    systems are solved (independently -- they share only the read-only
    sample history) and the recursion emits the next stacked vectors.  A
    derivative estimate above the jump threshold discards the in-flight
    prediction and restarts with fresh static eigendata at the offending
    instant; predictions resume once the buffers refill.  Non-finite
    values or solver failures abort with the partial trajectory attached.
    """
    rec = config.recursion_rule
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
    events: List[StepEvent] = []

    af = rec.a_float()
    cf = rec.c_float()
    a_hist: List[np.ndarray] = []    # newest first, at most der.taps
    zbuf: List[np.ndarray] = []      # newest last, at most rec.taps; (n, n+1)

    def partial(upto: int) -> Trajectory:
        return Trajectory(times=times[:upto + 1], z=Z[:upto + 1],
                          kind=kind[:upto + 1],
                          residuals=residuals[:upto + 1],
                          solve_methods=solve_methods[:upto + 1],
                          da_norms=da_norms[:upto + 1],
                          events=events, config=config)

    def do_startup(k0: int, trigger_da):
        a_hist.clear()
        zbuf.clear()
        last = min(k0 + s_star - 1, K)   # clip when a jump lands near tf
        samples = np.stack([flow.sample(times[k]) for k in range(k0, last + 1)])
        try:
            w_all, V_all = sym_eig_batch(samples)
        except np.linalg.LinAlgError as exc:
            raise NumericalAbort(
                f"startup eigensolver failed at t={times[k0]}: {exc}",
                partial(k0 - 1)) from exc
        lam, X = w_all[0], V_all[0].T.copy()
        for j, k in enumerate(range(k0, last + 1)):
            A_k = samples[j]
            if j > 0:
                lam, X = _match_pairs(lam, X, w_all[j], V_all[j])
            block = np.concatenate([X, lam[:, None]], axis=1)
            Z[k] = block
            kind[k] = ("restart-triggered"
                       if (j == 0 and trigger_da is not None) else "startup")
            residuals[k] = _pair_residuals(A_k, block)
            solve_methods[k] = ("static",) * n
            a_hist.insert(0, A_k)
            if len(a_hist) > der.taps:
                a_hist.pop()
            zbuf.append(block)
            if len(zbuf) > rec.taps:
                zbuf.pop(0)
            if len(a_hist) >= der.taps:
                est = derivative_estimate(der, a_hist, tau)
                da_norms[k] = fro_norm(est)
            events.append(StepEvent(
                t=times[k], kind=kind[k], residuals=residuals[k].copy(),
                solve_methods=solve_methods[k],
                da_norm=(trigger_da if (j == 0 and trigger_da is not None)
                         else float("nan"))))
        return last

    k = do_startup(0, None)
    while k < K:
        # prediction for the next instant, from data up to t_k only
        dA = derivative_estimate(der, a_hist, tau)
        Ps, qs = _assemble_batch(a_hist[0], dA, zbuf[-1], config.eta,
                                 config.mu)
        try:
            reports = solve_batch(Ps, qs)
        except (densela.MatrixShapeError, np.linalg.LinAlgError) as exc:
            raise NumericalAbort(f"solve failed at step {k}: {exc}",
                                 partial(k)) from exc
        Y = np.stack([r.x for r in reports])
        methods = tuple(r.method for r in reports)
        z_pred = tau * cf * Y
        for j in range(rec.taps):
            z_pred += af[j] * zbuf[-1 - j]

        knew = k + 1
        A_new = flow.sample(times[knew])
        hist_new = [A_new] + a_hist[:der.taps - 1]
        est = derivative_estimate(der, hist_new, tau)
        da = fro_norm(est)
        da_norms[knew] = da
        if detect_jump(est, config.jump_threshold):
            k = do_startup(knew, da)
            continue

        if not np.isfinite(z_pred).all():
            raise NumericalAbort(
                f"non-finite prediction at t={times[knew]}", partial(k))
        Z[knew] = z_pred
        residuals[knew] = _pair_residuals(A_new, z_pred)
        solve_methods[knew] = methods
        events.append(StepEvent(t=times[knew], kind="predicted",
                                residuals=residuals[knew].copy(),
                                solve_methods=methods))
        a_hist.insert(0, A_new)
        if len(a_hist) > der.taps:
            a_hist.pop()
        zbuf.append(z_pred)
        if len(zbuf) > rec.taps:
            zbuf.pop(0)
        k = knew

    return Trajectory(times=times, z=Z, kind=kind, residuals=residuals,
                      solve_methods=solve_methods, da_norms=da_norms,
                      events=events, config=config)
