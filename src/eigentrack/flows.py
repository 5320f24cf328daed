"""Time-varying symmetric matrix flows: definition, composition, sampling.

A flow is a pure function of time returning a dense symmetric matrix.
Every sample equals its transpose exactly: samplers build each entry of
the upper triangle once and copy it below -- nothing is symmetrized after
the fact.  The two bundled 7x7 benchmark flows (a smooth one and a
jump-perturbed variant) combine 12 scalar functions of t with fixed
coefficients and drive most of the test scenarios; ``with_jumps`` splices
them at chosen switch times and ``conjugate`` hides their sparsity behind
a random orthogonal similarity without touching the spectrum.
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

from .densela import _instant_block
from .g17 import _g17_cells, _instant_blocks, _rows_text

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
    """Finite, strictly increasing switch times; flows toggle at each one."""

    times: tuple

    def __init__(self, times: Sequence[float]):
        times = tuple(float(t) for t in times)
        if (not all(map(math.isfinite, times))
                or any(b <= a for a, b in zip(times, times[1:]))):
            raise ValueError(f"jumps must be finite and strictly "
                             f"increasing, got {list(times)!r}")
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
        if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
                or seed < 0):
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


def _phi(t: float) -> tuple:
    """The 12 scalar functions of t the benchmark flows combine."""
    s, c = math.sin(t), math.cos(t)
    return (1.0, t, t * t, s, c, math.exp(s), math.exp(c), math.sin(2.0 * t),
            math.cos(2.0 * t), 1.0 / (t + 1.0), 1.0 / (t + 2.0), math.atan(t))


# Upper-triangle entry (0-indexed) -> coefficients of _phi's functions,
# named in _phi's order; omitted entries are 0.
_PHI = ("1", "t", "t2", "sin", "cos", "esin", "ecos", "sin2", "cos2",
        "inv1", "inv2", "atan")
_A_S = {(0, 0): {"sin": 1, "1": 2}, (0, 1): {"esin": 1},
        (0, 3): {"esin": -1}, (0, 4): {"1": 0.5}, (0, 5): {"1": 1, "cos": 1},
        (1, 1): {"cos": 1, "1": -2}, (1, 3): {"1": 1}, (1, 4): {"cos2": 1},
        (1, 5): {"1": 1}, (2, 2): {"t2": -0.12, "t": 2.4, "1": -7},
        (3, 3): {"inv1": 1}, (3, 4): {"atan": 1}, (3, 5): {"sin2": 1},
        (4, 4): {"1": 1}, (4, 5): {"ecos": 1}, (5, 5): {"inv2": 1},
        (6, 6): {"t2": -0.15, "t": 3, "1": -6}}
# The jump-perturbed variant differs at (1,5), (2,2), (3,3), (4,5), (4,6),
# (5,5), (6,6), (7,7) and their mirror images (1-indexed).
_A_SJ = {**_A_S, (0, 4): {}, (1, 1): {}, (2, 2): {"t": 1.3, "1": -15},
         (3, 4): {"1": 1}, (3, 5): {"cos2": 2}, (4, 4): {"1": -3},
         (5, 5): {"inv2": 6}, (6, 6): {"t": -1, "1": 14.05}}


@lru_cache(maxsize=None)
def _sym_index(n: int) -> np.ndarray:
    """(n, n) position of each entry in the row-major upper triangle."""
    index = np.zeros((n, n), dtype=np.intp)
    index[_upper_mask(n)] = np.arange(n * (n + 1) // 2)
    index = _mirror_upper(index)
    index.flags.writeable = False
    return index


class _LinearSampler:
    """Samples ``A(t) = sum_j phi(t)[j] E_j``: the row phi(t) times the E_j's
    upper triangles (``upper``, one row each), spread to n x n through a
    fixed index, so every sample is exactly symmetric by construction."""

    def __init__(self, phi: Callable[[float], tuple], upper: np.ndarray,
                 n: int):
        self.phi, self.upper, self.index = phi, upper, _sym_index(n)

    def __call__(self, t: float) -> np.ndarray:
        return np.dot(self.phi(t), self.upper).take(self.index)

    def conjugated(self, U: np.ndarray) -> "_LinearSampler":
        """The sampler of U^T A(t) U: each E_j conjugated once, here."""
        E = U.T @ self.upper.take(self.index, axis=1) @ U
        return _LinearSampler(self.phi, E[:, _upper_mask(len(U))], len(U))


def builtin_flows():
    """The two bundled 7x7 benchmark flows, keyed "A_s" and "A_sj"."""
    pool = {}
    for label, table in (("A_s", _A_S), ("A_sj", _A_SJ)):
        upper = np.zeros((len(_PHI), 28))
        for (i, j), coeffs in table.items():
            for name, c in coeffs.items():
                upper[_PHI.index(name), _sym_index(7)[i, j]] = c
        pool[label] = MatrixFlow(7, _LinearSampler(_phi, upper, 7), label,
                                 span=(-0.99, math.inf))   # 1/(t+1) pole
    return pool


def conjugate(flow: MatrixFlow, rand: OrthogonalRandomizer) -> MatrixFlow:
    """Similarity-transform a flow by a fixed orthogonal matrix.

    Samples become U^T A(t) U: dense, but with the spectrum of A(t).  The
    product's upper triangle is authored and mirrored so the output stays
    exactly symmetric despite floating-point evaluation order.  A flow
    built from fixed matrices (the builtin ones) has each matrix
    conjugated once, here, instead.
    """
    U = rand.U
    if U.shape[0] != flow.n:
        raise ValueError(
            f"randomizer dimension {U.shape[0]} != flow dimension {flow.n}")

    if isinstance(flow.sampler, _LinearSampler):
        sampler = flow.sampler.conjugated(U)
    else:
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
    """The flow that is M at every t.  M must be square, finite and
    symmetric to the flow-file tolerance; its upper triangle is kept."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"constant_flow needs a square matrix, got {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("constant_flow: the matrix has a non-finite entry")
    if np.abs(M - M.T).max(initial=0.0) > _ASYM_TOL:
        raise ValueError("constant_flow: the matrix is asymmetric, "
                         f"max |M - M^T| > {_ASYM_TOL:g}")
    M = _mirror_upper(M)
    return MatrixFlow(M.shape[0], lambda t: M.copy(), label=label)


def diag_linear_flow() -> MatrixFlow:
    """diag(2+t, 5): closed-form spectrum, used as a tracking oracle."""

    def sampler(t: float) -> np.ndarray:
        return np.array([[2.0 + t, 0.0], [0.0, 5.0]])

    return MatrixFlow(2, sampler, label="diag-linear")


_GRID_REL_TOL = 1e-9
_ASYM_TOL = 1e-12      # max |M - M^T| of a flow file or constant_flow
_SPACES = bytes.maketrans(b",", b" ")


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

    # Blocks are judged in file order, finiteness before symmetry: a
    # block's asymmetry is tested only if it is finite (inf - inf would
    # be NaN there), and whichever test fails first names its block.  The
    # tests take a few blocks at a time through one scratch stack, and
    # each judged stretch gets its lower triangle from its upper one in
    # place, so loading peaks near the size of the samples themselves.
    step = _instant_block(n)
    gap = np.empty((step, n, n))
    lower = ~_upper_mask(n)
    for lo in range(0, count, step):
        part = data[lo:lo + step]
        finite = np.isfinite(part).all(axis=(1, 2))
        k_bad = len(part) if finite.all() else int(np.argmin(finite))
        judged, diff = part[:k_bad], gap[:k_bad]
        np.subtract(judged, judged.transpose(0, 2, 1), out=diff)
        np.abs(diff, out=diff)
        asym = np.flatnonzero(diff.max(axis=(1, 2)) > _ASYM_TOL)
        if asym.size:
            raise FlowFileError(
                f"sample block {lo + asym[0]} is asymmetric beyond tolerance")
        if k_bad < len(part):
            raise FlowFileError(
                f"sample block {lo + k_bad} has a non-finite entry")
        np.copyto(part, part.transpose(0, 2, 1), where=lower)
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

    Numbers are the "%.17g" text of the CSV kernel (``g17``), so reading
    the file back reproduces the sampled matrices bit for bit.  Samples
    are written a kernel block at a time; if one fails, the partial file
    is removed, since its complete blocks would load as a shorter flow.
    """
    if not math.isfinite(t0):
        raise ValueError(f"t0={t0} is not finite")
    if not 0 < tau < math.inf:
        raise ValueError(f"sampling gap tau={tau} is not positive and finite")
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValueError(f"count={count!r} is not an integer")
    if count < 1:
        raise ValueError("need at least one sample")
    n = flow.n
    with open(path, "wb") as fh:
        try:
            fh.write(f"n={n} tau={tau:.17g} t0={t0:.17g}".encode())
            for block in _instant_blocks(count, n * n):
                cells = _g17_cells(np.stack([flow.sample(t0 + k * tau)
                                             for k in range(count)[block]]))
                for rows in cells.reshape(-1, n, 4 * n):
                    fh.write(b"\n" + _rows_text(rows).translate(_SPACES))
        except BaseException:
            fh.close()
            os.remove(path)
            raise
