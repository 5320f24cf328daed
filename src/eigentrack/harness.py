"""Run evaluation: error metrics, reports, baselines, convergence sweeps.

Everything here recomputes its numbers from flow samples and trajectory
data, independent of the diagnostics the solver logged along the way, so
a report doubles as a cross-check of the run itself.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .densela import fro_norm, fro_norms, residual
from .flows import MatrixFlow
from .formulas import catalog, derivative_estimate
from .znn import SolverConfig, Trajectory, _static_blocks, run, sample_times

__all__ = [
    "residual",
    "orth_deviation",
    "steady_mask",
    "RunReport",
    "build_report",
    "BaselineReport",
    "naive_baseline",
    "SweepReport",
    "convergence_sweep",
    "derivative_trace",
]

# Instants this many steps after a startup block still carry its transient.
_TRANSIENT_PAD = 10
# A steady-state residual this many times above the provisional median is
# a glitch (typically a near-crossing of eigenvalues), not steady state.
_GLITCH_FACTOR = 1000.0
# relative residuals at or below this are numerically exact, never glitches
_GLITCH_FLOOR = 1e-13
# build_report and naive_baseline sample and score this many instants at
# a time, so their memory stays bounded on long spans of large matrices
# (at n = 7, blocks of 256 raised the benchmark's peak RSS by 0.2 MB
# over scoring one instant at a time, and blocks of 128 by 0.04 MB)
_BLOCK = 128


def orth_deviation(block):
    """||V^T V - I||_F for the eigenvector set in a stacked block.

    Accepts either a (n, n+1) block of stacked vectors (the trailing
    eigenvalue column is dropped) or a plain (n, n) matrix whose rows are
    the vectors; a stack of (n, n+1) blocks gives one value per block,
    each equal to the single-block value bit for bit.
    """
    block = np.asarray(block, dtype=float)
    n = block.shape[-2]
    X = block[..., :n]
    G = X @ np.swapaxes(X, -1, -2)
    G -= np.eye(n)
    if G.ndim == 2:
        return float(fro_norm(G))
    return fro_norms(G)


def steady_mask(traj: Trajectory, residuals: np.ndarray):
    """Boolean mask of instants that count as steady state, plus exclusions.

    Excluded are startup/restart instants, a transient tail of
    s* + 10 steps after each startup block, and glitch windows: instants
    whose worst-pair residual exceeds 1000x the provisional steady median,
    padded by s* + 10 steps each side.  Returns (mask, windows) where each
    window is a (reason, t_lo, t_hi) tuple.
    """
    kinds = np.asarray(traj.kind)
    K1 = len(kinds)
    s_star = traj.config.s_star
    pad = s_star + _TRANSIENT_PAD
    windows: List[Tuple[str, float, float]] = []

    mask = kinds == "predicted"
    # transient tail after every startup block
    in_block = ~mask
    k = 0
    while k < K1:
        if in_block[k]:
            start = k
            while k < K1 and in_block[k]:
                k += 1
            tail_end = min(k + pad, K1)
            mask[start:tail_end] = False
            windows.append(("startup", float(traj.times[start]),
                            float(traj.times[tail_end - 1])))
            k = tail_end
        else:
            k += 1

    worst = np.nanmax(residuals, axis=1)
    if mask.any():
        provisional = float(np.median(residuals[mask]))
        # floor the threshold: on flows tracked to exact zero the median
        # collapses and 1000x(nothing) would flag plain rounding noise
        threshold = max(_GLITCH_FACTOR * provisional, _GLITCH_FLOOR)
        glitch = mask & (worst > threshold)
        if glitch.any():
            excl = np.zeros(K1, dtype=bool)
            for g in np.flatnonzero(glitch):
                excl[max(g - pad, 0):min(g + pad + 1, K1)] = True
            k = 0
            while k < K1:     # log maximal contiguous spans, not instants
                if excl[k]:
                    start = k
                    while k < K1 and excl[k]:
                        k += 1
                    windows.append(("glitch", float(traj.times[start]),
                                    float(traj.times[k - 1])))
                else:
                    k += 1
            mask &= ~excl
    return mask, windows


@dataclass
class RunReport:
    """Independently recomputed view of one trajectory."""

    config: dict
    times: np.ndarray
    residuals: np.ndarray          # recomputed, (K+1, n)
    orth: np.ndarray               # (K+1,)
    kinds: list
    da_norms: np.ndarray
    mask: np.ndarray               # steady-state instants
    excluded_windows: list
    restarts: list                 # (t, spike norm) per restart
    segments: list                 # per-segment summaries (dicts)
    summary: dict
    wall_seconds: Optional[float] = None

    def row_count(self) -> int:
        return self.times.size


def build_report(flow: MatrixFlow, traj: Trajectory,
                 elapsed: Optional[float] = None,
                 metric: str = "pair") -> RunReport:
    """Score a finished trajectory against fresh flow samples.

    Residuals and orthogonality deviations are recomputed here rather
    than trusted from the run log; summaries are taken over the steady
    mask, per segment (segments are delimited by restarts) and overall.
    The summary also holds whole-run maxima over every predicted instant
    (``run_max_residual``, ``run_max_orth_deviation`` and
    ``run_max_norm_defect``, the worst ``|x^T x - 1|``) and how many
    predicted instants the steady mask excluded, so a run that diverges
    inside an excluded window still shows it.
    """
    K1 = traj.times.size
    n = traj.n
    res = np.empty((K1, n))
    orth = np.empty(K1)
    mres = np.empty(K1)
    norm_defect = np.empty(K1)     # worst |x^T x - 1| per instant
    for lo in range(0, K1, _BLOCK):
        hi = min(lo + _BLOCK, K1)
        A = np.stack([flow.sample(float(t)) for t in traj.times[lo:hi]])
        Z = traj.z[lo:hi]
        res[lo:hi] = residual(A, Z, metric="pair")
        orth[lo:hi] = orth_deviation(Z)
        X = Z[..., :n]
        norm_defect[lo:hi] = np.abs((X * X).sum(axis=2) - 1.0).max(axis=1)
        if metric == "matrix":
            mres[lo:hi] = residual(A, Z, metric="matrix")
    mask, windows = steady_mask(traj, res)

    restarts = [(float(e.t), e.da_norm) for e in traj.restart_events()]

    # segment boundaries: start of run and each restart instant
    kinds = np.asarray(traj.kind)
    bounds = [0] + list(np.flatnonzero(kinds == "restart-triggered")) + [K1]
    if K1 == 0:        # aborted before the first instant was recorded
        bounds = []
    segments = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg_mask = mask.copy()
        seg_mask[:lo] = False
        seg_mask[hi:] = False
        seg = {
            "t_start": float(traj.times[lo]),
            "t_end": float(traj.times[hi - 1]),
            "steady_instants": int(seg_mask.sum()),
        }
        if seg_mask.any():
            seg["median_residual"] = float(np.median(res[seg_mask]))
            seg["max_residual"] = float(res[seg_mask].max())
            seg["max_orth_deviation"] = float(orth[seg_mask].max())
        segments.append(seg)

    summary = {
        "instants": int(K1),
        "steady_instants": int(mask.sum()),
        "restarts": len(restarts),
        "metric": metric,
    }
    if mask.any():
        summary["median_residual"] = float(np.median(res[mask]))
        summary["max_residual"] = float(res[mask].max())
        summary["max_orth_deviation"] = float(orth[mask].max())
    if metric == "matrix":
        if mask.any():
            summary["median_residual"] = float(np.median(mres[mask]))
            summary["max_residual"] = float(mres[mask].max())
    # the whole run: what the steady mask left out shows here
    predicted = kinds == "predicted"
    summary["predicted_instants"] = int(predicted.sum())
    summary["excluded_instants"] = int((predicted & ~mask).sum())
    if predicted.any():
        summary["excluded_share"] = (summary["excluded_instants"]
                                     / summary["predicted_instants"])
        worst = mres if metric == "matrix" else res
        summary["run_max_residual"] = float(worst[predicted].max())
        summary["run_max_orth_deviation"] = float(orth[predicted].max())
        summary["run_max_norm_defect"] = float(
            norm_defect[predicted].max())
    if elapsed is not None:
        steps = max(K1 - 1, 1)
        per_step = elapsed / steps
        summary["seconds_per_step"] = per_step
        summary["step_utilization"] = per_step / traj.config.tau
        summary["idle_fraction"] = 1.0 - per_step / traj.config.tau

    return RunReport(config=asdict(traj.config), times=traj.times,
                     residuals=res, orth=orth, kinds=list(traj.kind),
                     da_norms=traj.da_norms, mask=mask,
                     excluded_windows=windows, restarts=restarts,
                     segments=segments, summary=summary,
                     wall_seconds=elapsed)


@dataclass
class BaselineReport:
    """Scores for the decompose-and-hold baseline."""

    times: np.ndarray              # instants being predicted, (K,)
    residuals: np.ndarray          # (K, n)
    summary: dict




def naive_baseline(flow: MatrixFlow, tau: float, t0: float = 0.0,
                   tf: float = 20.0, metric: str = "pair") -> BaselineReport:
    """Decompose at t_k, hold the result as the prediction for t_{k+1}.

    Uses the same static eigensolver and the same continuity matching as
    the predictor's startup, and scores with the same residual metric, so
    the comparison isolates the effect of the look-ahead dynamics.  The
    span is worked through in blocks of instants; each block's matching
    continues from the last pairs of the one before, so the result does
    not depend on the block size.
    """
    times = sample_times(t0, tf, tau)
    K = times.size - 1
    if K < 1:
        raise ValueError("span shorter than one sampling gap")
    res = np.empty((K, flow.n))
    vals = np.empty(K)
    A = flow.sample(float(times[0]))
    prev = None
    for lo in range(0, K, _BLOCK):
        hi = min(lo + _BLOCK, K)
        # samples at t_lo .. t_hi: decompose all but the last, score all
        # but the first
        samples = np.empty((hi - lo + 1, flow.n, flow.n))
        samples[0] = A
        for k in range(lo + 1, hi + 1):
            samples[k - lo] = flow.sample(float(times[k]))
        blocks = _static_blocks(samples[:-1], prev)
        res[lo:hi] = residual(samples[1:], blocks)
        if metric == "matrix":
            vals[lo:hi] = residual(samples[1:], blocks, metric="matrix")
        A, prev = samples[-1], blocks[-1]
    if metric == "matrix":
        summary = {"median_residual": float(np.median(vals)),
                   "max_residual": float(vals.max()), "metric": "matrix"}
    else:
        summary = {"median_residual": float(np.median(res)),
                   "max_residual": float(res.max()), "metric": "pair"}
    return BaselineReport(times=times[1:], residuals=res, summary=summary)


@dataclass
class SweepReport:
    """Result of a sampling-gap refinement study."""

    taus: np.ndarray
    etas: np.ndarray
    medians: np.ndarray            # steady median residual per run
    slope: float                   # log-log fit of median vs tau


def convergence_sweep(flow: MatrixFlow, template: SolverConfig,
                      taus: Sequence[float]) -> SweepReport:
    """Rerun the predictor over a list of sampling gaps and fit the order.

    The dimensionless gain h = eta * tau is held fixed across the sweep
    (the decay constants scale as 1/tau), so every run sits at the same
    point of the recursion's stability region and the fitted slope
    reflects the formula pair's order rather than a drifting gain.
    Needs at least three gaps for a meaningful fit.
    """
    taus = np.asarray(sorted(taus, reverse=True), dtype=float)
    if taus.size < 3:
        raise ValueError("taus: a sweep needs at least three gaps")
    if np.unique(taus).size != taus.size:
        raise ValueError("taus: sampling gaps must be distinct")
    h = template.eta * template.tau
    mu_ratio = template.mu / template.eta
    etas = h / taus
    medians = np.empty(taus.size)
    for i, (tau_i, eta_i) in enumerate(zip(taus, etas)):
        cfg = replace(template, tau=float(tau_i), eta=float(eta_i),
                      mu=float(mu_ratio * eta_i))
        traj = run(flow, cfg)
        rep = build_report(flow, traj)
        medians[i] = rep.summary["median_residual"]
    slope = float(np.polyfit(np.log(taus), np.log(medians), 1)[0])
    return SweepReport(taus=taus, etas=etas, medians=medians, slope=slope)


def derivative_trace(flow: MatrixFlow, config: SolverConfig):
    """Frobenius norms of the derivative estimates along the sampling grid.

    Estimates from the same backward windows a run uses, but never
    restarts: instants whose window straddles a discontinuity show the
    raw spike.  Entries before the window first fills are NaN.  Returns
    (times, norms).
    """
    der = config.derivative_rule
    times = config.times
    norms = np.full(times.size, np.nan)
    samples = np.stack([flow.sample(float(t)) for t in times])
    for k in range(der.taps - 1, times.size):
        est = derivative_estimate(der, samples[k::-1], config.tau)
        norms[k] = fro_norm(est)
    return times, norms


def timed_run(flow: MatrixFlow, config: SolverConfig):
    """Run the predictor and return (trajectory, elapsed wall seconds)."""
    t0 = time.perf_counter()
    traj = run(flow, config)
    return traj, time.perf_counter() - t0
