"""Time-varying symmetric matrix flows: definition, composition, sampling.

A flow is a pure function of time returning a dense symmetric matrix.
Samplers author the upper triangle and mirror it, so every sample equals
its transpose exactly -- nothing is symmetrized after the fact.  The two
bundled 7x7 benchmark flows (a smooth one and a jump-perturbed variant)
drive most of the test scenarios; ``with_jumps`` splices them at chosen
switch times and ``conjugate`` hides their sparsity behind a random
orthogonal similarity without touching the spectrum.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MatrixFlow",
    "JumpSchedule",
    "OrthogonalRandomizer",
    "SpanError",
    "FlowFileError",
    "InterpolationError",
    "builtin_flows",
    "conjugate",
    "with_jumps",
    "constant_flow",
    "diag_linear_flow",
    "flow_from_file",
    "write_flow_file",
]


class SpanError(ValueError):
    """Sampling time outside the flow's declared span."""


class FlowFileError(ValueError):
    """Malformed or inconsistent flow file."""


class InterpolationError(ValueError):
    """File-backed flows refuse queries between recorded instants."""


@lru_cache(maxsize=None)
def _upper_mask(n: int) -> np.ndarray:
    """Read-only boolean mask of the upper triangle, diagonal included."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


def _mirror_upper(M: np.ndarray) -> np.ndarray:
    return np.where(_upper_mask(M.shape[0]), M, M.T)


@dataclass
class MatrixFlow:
    """A symmetric matrix flow: dimension, sampler, label, time span."""

    n: int
    sampler: Callable[[float], np.ndarray]
    label: str = ""
    span: tuple = (-math.inf, math.inf)

    def sample(self, t: float) -> np.ndarray:
        lo, hi = self.span
        if not (lo <= t <= hi):
            raise SpanError(
                f"t={t} outside span [{lo}, {hi}] of flow {self.label!r}")
        M = self.sampler(t)
        if not np.isfinite(M).all():
            raise ValueError(
                f"flow {self.label!r} has a non-finite entry at t={t}")
        return M

    __call__ = sample


@dataclass(frozen=True)
class JumpSchedule:
    """Strictly increasing switch times; flows toggle at each one."""

    times: tuple

    def __init__(self, times: Sequence[float]):
        times = tuple(float(t) for t in times)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("switch times must be strictly increasing")
        object.__setattr__(self, "times", times)


@dataclass(frozen=True)
class OrthogonalRandomizer:
    """A seeded random orthogonal matrix for similarity conjugation."""

    U: np.ndarray
    seed: int

    @classmethod
    def from_seed(cls, n: int, seed: int) -> "OrthogonalRandomizer":
        """The Q factor of an n x n standard Gaussian matrix, with R's
        diagonal made positive, so U is Haar-distributed and fixed per
        seed.  The Gaussians come from the standard library's
        ``random.Random(seed)``: a run that needs no other randomness then
        never loads ``numpy.random``."""
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(
                f"seed must be a non-negative integer, got {seed!r}")
        rng = random.Random(int(seed))
        M = np.array([rng.gauss(0.0, 1.0) for _ in range(n * n)])
        Q, R = np.linalg.qr(M.reshape(n, n))
        d = np.diag(R)
        Q = Q * np.where(d < 0.0, -1.0, 1.0)[None, :]
        return cls(U=Q, seed=int(seed))

    def __post_init__(self):
        n = self.U.shape[0]
        dev = np.linalg.norm(self.U.T @ self.U - np.eye(n))
        if dev > 1e-12:
            raise ValueError(f"matrix is not orthogonal (deviation {dev:.2e})")


def _a_s_upper(t: float) -> np.ndarray:
    """Upper triangle of the smooth 7x7 benchmark flow."""
    est, ect = math.exp(math.sin(t)), math.exp(math.cos(t))
    M = np.zeros((7, 7))
    M[0, 0] = math.sin(t) + 2.0
    M[0, 1] = est
    M[0, 3] = -est
    M[0, 4] = 0.5
    M[0, 5] = 1.0 + math.cos(t)
    M[1, 1] = math.cos(t) - 2.0
    M[1, 3] = 1.0
    M[1, 4] = math.cos(2.0 * t)
    M[1, 5] = 1.0
    M[2, 2] = -0.12 * t * t + 2.4 * t - 7.0
    M[3, 3] = 1.0 / (t + 1.0)
    M[3, 4] = math.atan(t)
    M[3, 5] = math.sin(2.0 * t)
    M[4, 4] = 1.0
    M[4, 5] = ect
    M[5, 5] = 1.0 / (t + 2.0)
    M[6, 6] = -0.15 * t * t + 3.0 * t - 6.0
    return M


def _a_sj_upper(t: float) -> np.ndarray:
    """Upper triangle of the jump-perturbed variant.

    Differs from the smooth flow at (1,5), (2,2), (3,3), (4,5), (4,6),
    (5,5), (6,6), (7,7) and their mirror images (1-indexed).
    """
    M = _a_s_upper(t)
    M[0, 4] = 0.0
    M[1, 1] = 0.0
    M[2, 2] = 1.3 * t - 15.0
    M[3, 4] = 1.0
    M[3, 5] = 2.0 * math.cos(2.0 * t)
    M[4, 4] = -3.0
    M[5, 5] = 6.0 / (t + 2.0)
    M[6, 6] = 14.05 - t
    return M


def builtin_flows():
    """The two bundled 7x7 benchmark flows, keyed "A_s" and "A_sj"."""
    span = (-0.99, math.inf)   # keeps clear of the 1/(t+1) pole
    return {
        "A_s": MatrixFlow(7, lambda t: _mirror_upper(_a_s_upper(t)),
                          label="A_s", span=span),
        "A_sj": MatrixFlow(7, lambda t: _mirror_upper(_a_sj_upper(t)),
                           label="A_sj", span=span),
    }


def conjugate(flow: MatrixFlow, rand: OrthogonalRandomizer) -> MatrixFlow:
    """Similarity-transform a flow by a fixed orthogonal matrix.

    Samples become U^T A(t) U: dense, but with the spectrum of A(t).  The
    product's upper triangle is authored and mirrored so the output stays
    exactly symmetric despite floating-point evaluation order.
    """
    U = rand.U
    if U.shape[0] != flow.n:
        raise ValueError(
            f"randomizer dimension {U.shape[0]} != flow dimension {flow.n}")

    def sampler(t: float) -> np.ndarray:
        return _mirror_upper(U.T @ flow.sampler(t) @ U)

    return MatrixFlow(flow.n, sampler, label=f"{flow.label}~seed{rand.seed}",
                      span=flow.span)


def with_jumps(base: MatrixFlow, alt: MatrixFlow,
               schedule: JumpSchedule) -> MatrixFlow:
    """Piecewise flow that toggles between base and alt at switch times.

    The active flow changes on half-open intervals [switch, next-switch):
    base before the first switch, alt from the first to the second, base
    again from the second, and so on.  No smoothing at switches.
    """
    if base.n != alt.n:
        raise ValueError(f"dimension mismatch: {base.n} != {alt.n}")
    times = schedule.times
    lo = max(base.span[0], alt.span[0])
    hi = min(base.span[1], alt.span[1])

    def sampler(t: float) -> np.ndarray:
        count = bisect_right(times, t)      # switches at or before t
        active = base if count % 2 == 0 else alt
        return active.sampler(t)

    label = f"{base.label}|{alt.label}@{list(times)}"
    return MatrixFlow(base.n, sampler, label=label, span=(lo, hi))


def constant_flow(M, label: str = "constant") -> MatrixFlow:
    M = np.asarray(M, dtype=float)
    M = _mirror_upper(M)
    return MatrixFlow(M.shape[0], lambda t: M.copy(), label=label)


def diag_linear_flow() -> MatrixFlow:
    """diag(2+t, 5): closed-form spectrum, used as a tracking oracle."""

    def sampler(t: float) -> np.ndarray:
        return np.array([[2.0 + t, 0.0], [0.0, 5.0]])

    return MatrixFlow(2, sampler, label="diag-linear")


_GRID_REL_TOL = 1e-9


def flow_from_file(path) -> MatrixFlow:
    """Load an equally spaced sampled flow from a plain-text file.

    Format: a header line ``n=<dim> tau=<gap> t0=<start>`` followed by one
    block per sample -- n lines of n whitespace-separated ASCII decimal
    numbers -- with blank or whitespace-only lines between blocks.  The
    flow is defined only at the recorded instants; queries in between
    raise InterpolationError.  A non-finite header ``tau`` or ``t0``, a
    block that is not n rows of n numbers, and samples with a NaN or
    infinite entry, or whose asymmetry exceeds 1e-12 (max entry
    difference), are rejected outright; the message names the first bad
    block.
    """
    with open(path) as fh:
        header = fh.readline()
        if not header:
            raise FlowFileError("empty flow file")
        fields = {}
        for tok in header.split():
            if "=" not in tok:
                raise FlowFileError(f"bad header token {tok!r}")
            key, _, val = tok.partition("=")
            fields[key] = val
        try:
            n = int(fields["n"])
            tau = float(fields["tau"])
            t0 = float(fields["t0"])
        except (KeyError, ValueError) as exc:
            raise FlowFileError(f"header must give n, tau, t0: {exc}") from exc
        for key, val in (("tau", tau), ("t0", t0)):
            if not math.isfinite(val):
                raise FlowFileError(f"header {key}={fields[key]} is not finite")
        if n <= 0:
            raise FlowFileError(f"bad dimension n={n}")
        if tau <= 0:
            raise FlowFileError(f"sampling gap must be positive, got {tau}")

        # numpy's reader sees only the rows; the generator counts each
        # block's rows as they stream by and stops after a wrong-sized one
        sizes = []
        rows_in_block = 0

        def rows():
            nonlocal rows_in_block
            for line in fh:
                if not line.isspace():
                    rows_in_block += 1
                    yield line
                elif rows_in_block:
                    sizes.append(rows_in_block)
                    if rows_in_block != n:
                        return
                    rows_in_block = 0
            if rows_in_block:
                sizes.append(rows_in_block)

        stream = rows()
        first = next(stream, None)
        if first is None:
            raise FlowFileError("no sample blocks found")
        width = len(first.split())
        if width != n:
            raise FlowFileError(
                f"sample block 0 row 1 has {width} entries, expected {n}")
        try:
            data = np.loadtxt(itertools.chain([first], stream),
                              comments=None, ndmin=2)
        except ValueError as exc:
            raise FlowFileError(
                f"sample block {len(sizes)} row {rows_in_block}: {exc}") from exc
    if sizes[-1] != n:
        raise FlowFileError(
            f"sample block {len(sizes) - 1} has {sizes[-1]} rows, expected {n}")
    count = len(sizes)
    data = data.reshape(count, n, n)

    # Blocks are judged in file order, finiteness before symmetry: the
    # asymmetry test runs only on the blocks before the first non-finite
    # one (inf - inf would be NaN there), and whichever test fails first
    # names its block.
    finite = np.isfinite(data).all(axis=(1, 2))
    k_bad = count if finite.all() else int(np.argmin(finite))
    gap = data[:k_bad] - data[:k_bad].transpose(0, 2, 1)
    np.abs(gap, out=gap)
    asym = np.flatnonzero(gap.max(axis=(1, 2)) > 1e-12)
    del gap
    if asym.size:
        raise FlowFileError(
            f"sample block {asym[0]} is asymmetric beyond tolerance")
    if k_bad < count:
        raise FlowFileError(f"sample block {k_bad} has a non-finite entry")
    data = np.where(_upper_mask(n), data, data.transpose(0, 2, 1))
    hi = t0 + (count - 1) * tau

    def sampler(t: float) -> np.ndarray:
        k = round((t - t0) / tau)
        if abs(t - (t0 + k * tau)) > _GRID_REL_TOL * tau:
            raise InterpolationError(
                f"t={t} is between recorded instants (gap {tau})")
        if not 0 <= k < count:
            raise SpanError(f"t={t} outside recorded range")
        return data[k].copy()

    return MatrixFlow(n, sampler, label=f"file:{path}", span=(t0, hi))


def write_flow_file(path, flow: MatrixFlow, t0: float, tau: float,
                    count: int) -> None:
    """Record ``count`` equally spaced samples of a flow to a text file.

    Numbers are written with 17 significant digits, so reading the file
    back reproduces the sampled matrices bit for bit.  Blocks are written
    as they are sampled; if a sample fails, the partial file is removed,
    since its complete blocks would load as a shorter flow.
    """
    if tau <= 0:
        raise ValueError("sampling gap must be positive")
    if count < 1:
        raise ValueError("need at least one sample")
    with open(path, "w") as fh:
        try:
            fh.write(f"n={flow.n} tau={tau:.17g} t0={t0:.17g}")
            for k in range(count):
                M = flow.sample(t0 + k * tau)
                fh.write("\n" + "\n".join(" ".join(f"{x:.17g}" for x in row)
                                          for row in M) + "\n")
        except BaseException:
            fh.close()
            os.remove(path)
            raise
