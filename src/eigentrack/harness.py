"""Run evaluation: error metrics, reports, baselines, convergence sweeps.

A report recomputes its numbers from flow samples and trajectory data,
independent of the diagnostics the solver logged along the way, so it
doubles as a cross-check of the run itself; the baseline reads its own
driver's log.  The per-pair scores come from ``densela.residual``;
full-matrix ones derive from them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .densela import _instant_block, fro_norms, residual
from .flows import MatrixFlow
from .znn import (_PREDICTED, _RESTART, SolverConfig, Trajectory, _drive,
                  _Hold, run)

__all__ = [
    "orth_deviation",
    "steady_mask",
    "RunReport",
    "build_report",
    "BaselineReport",
    "naive_baseline",
    "SweepReport",
    "convergence_sweep",
]

# Instants this many steps after a startup block still carry its transient.
_TRANSIENT_PAD = 10
# A steady-state residual this many times above the provisional median is
# a glitch (typically a near-crossing of eigenvalues), not steady state.
_GLITCH_FACTOR = 1000.0
# relative residuals at or below this are numerically exact, never glitches
_GLITCH_FLOOR = 1e-13


def _check_metric(metric) -> None:
    # the one check of the metric word; "matrix" scores are _full_matrix's
    if metric not in ("pair", "matrix"):
        raise ValueError(f"metric must be 'pair' or 'matrix', got {metric!r}")


def _full_matrix(res, Z):
    """Per instant, the paper's ||A V - V D||_F / (||A||_F ||V||_F) from
    the per-pair residuals res (B, n) of blocks Z: E's columns are the
    e_i, so it is sqrt(sum_i r_i^2) / ||V||_F, with ||V||_F = 0 as 1."""
    X = Z[..., :res.shape[-1]]
    v_nrm = np.sqrt((X * X).sum(axis=(-2, -1)))
    v_nrm[v_nrm == 0.0] = 1.0
    return np.sqrt((res * res).sum(axis=-1)) / v_nrm


def orth_deviation(block):
    """||V^T V - I||_F for the eigenvector set in a stacked block.

    A stack of (B, n, n+1) blocks (the trailing eigenvalue column is
    dropped) gives (B,) values.  A single block, or a plain (n, n) matrix
    whose rows are the vectors, is scored as a stack of one: a float.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim == 2:
        return float(orth_deviation(block[None])[0])
    n = block.shape[-2]
    X = block[..., :n]
    G = X @ np.swapaxes(X, -1, -2)
    G -= np.eye(n)
    return fro_norms(G)


def _median(values) -> float:
    """``np.median`` of a non-empty float array, flattened, bit for bit.

    Same partition and the same mean (a sum started from +0.0), but
    without ``np.median``'s masked-array test, which imports ``numpy.ma``
    into every run: the middle value, or the mean of the middle two; NaN
    if any value is NaN.
    """
    a = np.ravel(values)
    half = a.size // 2
    even = a.size % 2 == 0
    part = np.partition(a, [half - 1, half, -1] if even else [half, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    if even:
        return (0.0 + float(part[half - 1]) + float(part[half])) / 2.0
    return 0.0 + float(part[half])


def _spans(flags):
    """The maximal runs of True in a boolean array, in order, as an (m, 2)
    array of (start, stop) indices, stop exclusive."""
    edges = np.diff(np.concatenate(([False], flags, [False])))
    return np.flatnonzero(edges).reshape(-1, 2)


def _widen(flags, before: int, after: int):
    """``flags`` with each run of True extended by ``before`` instants
    back and ``after`` instants forward, clipped to the array."""
    out = np.zeros_like(flags)
    for lo, hi in _spans(flags):
        out[max(lo - before, 0):hi + after] = True
    return out


def steady_mask(traj: Trajectory, residuals: np.ndarray):
    """Boolean mask of instants that count as steady state, plus exclusions.

    Excluded are startup/restart instants, a transient tail of
    s* + 10 steps after each startup block, and glitch windows: instants
    whose worst-pair residual exceeds 1000x the provisional steady median,
    padded by s* + 10 steps each side.  Returns (mask, windows) where each
    window is a (reason, t_lo, t_hi) tuple: the startup windows, then the
    glitch windows, each a maximal span of instants excluded for that
    reason.  A glitch window leaves out the startup instants it reaches,
    so no instant lies in two windows.
    """
    pad = traj.config.s_star + _TRANSIENT_PAD
    excluded = {"startup": _widen(traj.kind_code != _PREDICTED, 0, pad)}
    mask = ~excluded["startup"]
    if mask.any():
        provisional = _median(residuals[mask])
        # floor the threshold: on flows tracked to exact zero the median
        # collapses and 1000x(nothing) would flag plain rounding noise
        threshold = max(_GLITCH_FACTOR * provisional, _GLITCH_FLOOR)
        glitch = mask & (np.nanmax(residuals, axis=1) > threshold)
        excluded["glitch"] = _widen(glitch, pad, pad) & mask
        mask &= ~excluded["glitch"]
    windows = [(reason, float(traj.times[lo]), float(traj.times[hi - 1]))
               for reason, flags in excluded.items()
               for lo, hi in _spans(flags)]
    return mask, windows


@dataclass
class RunReport:
    """Independently recomputed view of one trajectory."""

    residuals: np.ndarray          # recomputed per pair, (K+1, n)
    orth: np.ndarray               # (K+1,)
    mask: np.ndarray               # steady-state instants
    excluded_windows: list
    restarts: list                 # (t, spike norm) per restart
    segments: list                 # per-segment summaries (dicts)
    summary: dict


def _steady_stats(score, orth, mask) -> dict:
    """Residual and orthogonality statistics over the steady instants of
    one stretch of a run."""
    stats = {"steady_instants": int(mask.sum())}
    if mask.any():
        stats["median_residual"] = _median(score[mask])
        stats["max_residual"] = float(score[mask].max())
        stats["max_orth_deviation"] = float(orth[mask].max())
    return stats


def build_report(flow: MatrixFlow, traj: Trajectory,
                 elapsed: Optional[float] = None,
                 metric: str = "pair") -> RunReport:
    """Score a finished trajectory against fresh flow samples.

    Residuals and orthogonality deviations are recomputed here rather
    than trusted from the run log; summaries are taken over the steady
    mask, per segment (segments are delimited by restarts) and overall,
    all in the chosen metric.  Each block of instants gets one
    ``residual`` call: the steady mask is always built from its per-pair
    residuals, and full-matrix scores are derived from them.  The
    summary also holds whole-run maxima over every predicted instant
    (``run_max_residual``, ``run_max_orth_deviation`` and
    ``run_max_norm_defect``, the worst ``|x^T x - 1|``) and how many
    predicted instants the steady mask excluded, so a run that diverges
    inside an excluded window still shows it.
    """
    _check_metric(metric)
    K1 = traj.times.size
    n = traj.n
    res = np.empty((K1, n))
    score = np.empty(K1) if metric == "matrix" else res
    orth = np.empty(K1)
    norm_defect = np.empty(K1)     # worst |x^T x - 1| per instant
    # the instants before an abort can be finite yet large enough to
    # overflow here; they score inf, as in the run's own log, silently.
    # The blocks are densela's (64 KB of samples at most): blocks of 128
    # instants took 3.4 MB of scratch at n = 32 and 51 MB at n = 128 over
    # 400 steps.
    block = _instant_block(n)
    samples = np.empty((block, n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, K1, block):
            hi = min(lo + block, K1)
            A = samples[:hi - lo]
            for j, t in enumerate(traj.times[lo:hi].tolist()):
                A[j] = flow.sample(t)
            Z = traj.z[lo:hi]
            res[lo:hi] = residual(A, Z)
            orth[lo:hi] = orth_deviation(Z)
            X = Z[..., :n]
            norm_defect[lo:hi] = np.abs((X * X).sum(axis=2) - 1.0).max(
                axis=1)
            if metric == "matrix":
                score[lo:hi] = _full_matrix(res[lo:hi], Z)
    mask, windows = steady_mask(traj, res)

    restarts = traj.restarts()
    starts = np.flatnonzero(traj.kind_code == _RESTART)
    # segments run from the first instant and from each restart; a run
    # aborted before its first instant has none
    bounds = [0, *starts, K1] if K1 else []
    segments = [{"t_start": float(traj.times[lo]),
                 "t_end": float(traj.times[hi - 1]),
                 **_steady_stats(score[lo:hi], orth[lo:hi], mask[lo:hi])}
                for lo, hi in zip(bounds[:-1], bounds[1:])]

    summary = {"instants": int(K1), "restarts": len(restarts),
               "metric": metric, **_steady_stats(score, orth, mask)}
    # the whole run: what the steady mask left out shows here
    predicted = traj.kind_code == _PREDICTED
    summary["predicted_instants"] = int(predicted.sum())
    summary["excluded_instants"] = int((predicted & ~mask).sum())
    if predicted.any():
        summary["excluded_share"] = (summary["excluded_instants"]
                                     / summary["predicted_instants"])
        summary["run_max_residual"] = float(score[predicted].max())
        summary["run_max_orth_deviation"] = float(orth[predicted].max())
        summary["run_max_norm_defect"] = float(
            norm_defect[predicted].max())
    if elapsed is not None:
        steps = max(K1 - 1, 1)
        per_step = elapsed / steps
        summary["seconds_per_step"] = per_step
        summary["step_utilization"] = per_step / traj.config.tau
        summary["idle_fraction"] = 1.0 - per_step / traj.config.tau

    return RunReport(residuals=res, orth=orth, mask=mask,
                     excluded_windows=windows, restarts=restarts,
                     segments=segments, summary=summary)


@dataclass
class BaselineReport:
    """Scores for the decompose-and-hold baseline."""

    times: np.ndarray              # instants being predicted, (K,)
    residuals: np.ndarray          # (K, n)
    summary: dict


def naive_baseline(flow: MatrixFlow, tau: float, t0: float = SolverConfig.t0,
                   tf: float = SolverConfig.tf,
                   metric: str = "pair") -> BaselineReport:
    """Decompose at t_k, hold the result as the prediction for t_{k+1}.

    ``run``'s driver over ``znn._Hold``: one sample at a time, with the
    same span check, static eigensolver, continuity matching and residual
    log as the predictor (full-matrix scores derived from the log), so
    the comparison isolates the effect of the look-ahead dynamics.  The
    grid is ``SolverConfig``'s, and so are the checks of ``tau``, ``t0``
    and ``tf``; a failed eigensolve or a sample whose norm overflows
    raises ``NumericalAbort``, as in ``run``.
    """
    _check_metric(metric)
    config = SolverConfig(tau=tau, t0=t0, tf=tf)
    if config.times.size < 2:
        raise ValueError("span shorter than one sampling gap")
    traj = _drive(flow, config, _Hold(flow.n))
    res = traj.residuals[1:]
    score = _full_matrix(res, traj.z[1:]) if metric == "matrix" else res
    summary = {"median_residual": _median(score),
               "max_residual": float(score.max()), "metric": metric}
    return BaselineReport(times=traj.times[1:], residuals=res,
                          summary=summary)


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
    Needs at least three gaps for a meaningful fit, and raises
    ValueError naming the gap whose run has no steady instant or a
    steady median that is not positive.
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
        median = build_report(flow, traj).summary.get("median_residual")
        if median is None or not median > 0.0:
            what = ("no steady instant" if median is None
                    else f"a steady median residual of {median!r}")
            raise ValueError(
                f"taus: the run at tau = {cfg.tau!r} has {what} up to "
                f"tf = {cfg.tf!r}, and the log-log fit needs a positive "
                "median from every run")
        medians[i] = median
    slope = float(np.polyfit(np.log(taus), np.log(medians), 1)[0])
    return SweepReport(taus=taus, etas=etas, medians=medians, slope=slope)


def timed_run(flow: MatrixFlow, config: SolverConfig):
    """Run the predictor and return (trajectory, elapsed wall seconds)."""
    t0 = time.perf_counter()
    traj = run(flow, config)
    return traj, time.perf_counter() - t0
