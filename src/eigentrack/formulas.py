"""Finite-difference rule registry for the one-step-ahead eigenpair predictor.

Two families live here:

* backward-difference estimators for the flow derivative,
  ``dA(t_k) ~= sum_j c_j A(t_{k-j}) / (d * tau)``, and
* convergent look-ahead recursions that advance the stacked eigenpair
  vector, ``z_{k+1} = c * tau * dz_k + sum_j a_j z_{k-j}``.

Coefficients are stored as exact rationals, and everything else about a
rule (a recursion's derivative weight, each rule's truncation order,
zero stability) is derived from them in exact arithmetic; they are
lowered to floats exactly once, when a solver picks the rule up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "BackwardFormula",
    "LookaheadRecursion",
    "ZeroStabilityReport",
    "FormulaError",
    "catalog",
    "check_zero_stability",
    "derivative_estimate",
    "PRESETS",
]


class FormulaError(ValueError):
    """Raised for inconsistent coefficients or unusable inputs."""


def _exactness_degree(weights, offsets, target_d):
    """Largest p such that the weighted samples reproduce d/dt of every
    polynomial of degree <= p.

    ``weights[i]`` multiplies a sample taken at integer ``offsets[i]`` (in
    units of the sampling gap), and the weighted sum divided by
    ``target_d`` must equal the derivative at offset 0.  The classical
    moment conditions are, in exact arithmetic:

        sum w_i            == 0
        sum w_i * o_i      == target_d
        sum w_i * o_i**k   == 0     for 2 <= k <= p
    """
    if sum(weights) != 0 or not any(weights):   # all zero: no rule at all
        return -1
    if sum(w * o for w, o in zip(weights, offsets)) != target_d:
        return 0
    p = 1
    while True:
        k = p + 1
        moment = sum(w * Fraction(o) ** k for w, o in zip(weights, offsets))
        if moment != 0:
            return p
        p = k


@dataclass(frozen=True)
class BackwardFormula:
    """Derivative estimator using the current sample and earlier ones.

    ``coeffs[j]`` weighs the sample ``j`` gaps in the past; the weighted
    sum is divided by ``denom * tau``.  ``order`` is derived: the largest
    polynomial degree the rule differentiates exactly, at least 1.
    """

    name: str
    coeffs: tuple
    denom: int
    order: int = field(init=False)
    # coeffs lowered to a float row once; derivative_estimate runs every step
    coeffs_float: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def taps(self) -> int:
        return len(self.coeffs)

    def __post_init__(self):
        order = _exactness_degree([Fraction(c) for c in self.coeffs],
                                  [-j for j in range(self.taps)],
                                  Fraction(self.denom))
        if order < 1:
            raise FormulaError(f"{self.name}: not exact on linear functions")
        row = np.array([float(Fraction(c)) for c in self.coeffs])
        row.flags.writeable = False
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs_float", row)

    def weights_float(self):
        return np.array([float(Fraction(c) / self.denom) for c in self.coeffs])


@dataclass(frozen=True)
class LookaheadRecursion:
    """One-step-ahead update rule for the eigenpair vector.

    The tap count is ``len(a)``; ``a[j]`` weighs the state ``j`` steps in
    the past, and the weights must sum to 1.  Both other numbers follow
    from them: first-order consistency forces the derivative weight
    ``c = 1 + sum_j j*a_j``, and ``order`` is the truncation error order
    of the full recursion (one more than the exactness degree of the
    derivative rule it implies, because the derivative enters multiplied
    by tau).  ``reconstructed`` marks a rule quoted by its weights alone.
    """

    name: str
    a: tuple
    reconstructed: bool = False
    c: Fraction = field(init=False)
    order: int = field(init=False)

    @property
    def taps(self) -> int:
        return len(self.a)

    def __post_init__(self):
        a = tuple(Fraction(x) for x in self.a)
        if sum(a) != 1:
            raise FormulaError(f"{self.name}: state weights must sum to 1")
        c = 1 + sum(j * aj for j, aj in enumerate(a))
        order = 1 + _exactness_degree([Fraction(1)] + [-x for x in a],
                                      [1] + [-j for j in range(len(a))], c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "order", order)

    def a_float(self):
        return np.array([float(x) for x in self.a])

    def c_float(self) -> float:
        return float(self.c)


@dataclass(frozen=True)
class ZeroStabilityReport:
    stable: bool
    root_moduli: tuple


def _schur_stable(f) -> bool:
    """Every root of ``f`` (coefficients, highest power first) strictly
    inside the unit circle, by the Schur-Cohn reduction: that holds iff
    the constant term is smaller in size than the leading one and it
    holds for ``(f[0] f(x) - f[-1] x^m f(1/x)) / x``, of one degree less."""
    while len(f) > 1:
        if abs(f[-1]) >= abs(f[0]):
            return False
        f = [f[0] * x - f[-1] * y for x, y in zip(f, reversed(f))][:-1]
    return True


def check_zero_stability(rec: LookaheadRecursion) -> ZeroStabilityReport:
    """Root condition for the recursion's characteristic polynomial.

    The polynomial is ``rho**s - sum_j a_j rho**(s-1-j)``.  Stable means
    exactly one simple root at 1 and every other root strictly inside the
    unit circle; a repeated root on the circle is rejected.  The verdict
    is exact: the root at 1 (present since the weights sum to 1) is
    divided out in rationals, the quotient must not vanish at 1 (its
    value there is ``c``), and the Schur-Cohn reduction places its roots.
    The moduli are numpy's companion-matrix roots, for display only.
    """
    q = [Fraction(1)]
    for aj in rec.a[:-1]:
        q.append(q[-1] - aj)
    stable = sum(q) != 0 and _schur_stable(q)
    poly = np.concatenate(([1.0], -rec.a_float()))
    moduli = np.abs(np.roots(poly))
    return ZeroStabilityReport(stable=stable, root_moduli=tuple(np.sort(moduli)[::-1]))


def derivative_estimate(f: BackwardFormula, history, tau: float):
    """Apply a backward formula to a history of samples (newest first).

    ``history`` holds matrices or vectors of identical shape, as a list or
    a stack; entries past the formula's tap count are ignored.  The
    estimate is one product of the coefficient row with the first taps
    samples, taken from a contiguous copy unless they already are one, so
    a list, a stack and a reversed view of the same samples give the same
    bits.
    """
    if tau <= 0:
        raise FormulaError("tau must be positive")
    taps = f.taps
    if len(history) < taps:
        raise FormulaError(
            f"{f.name} needs {taps} samples, got {len(history)}")
    H = np.ascontiguousarray(history[:taps], dtype=float)
    est = f.coeffs_float @ H.reshape(taps, -1) / (f.denom * tau)
    return est.reshape(H.shape[1:])


_F = Fraction


def catalog():
    """The named rules shipped with the package.

    Backward formulas: BDF4pt (order 3) and BDF5pt (order 4).  Look-ahead
    recursions: IFD5, IFD6, IFD7.  IFD7 circulates in state-weight form
    only, so it carries the ``reconstructed`` flag: its derivative weight
    196/79 is derived as every rule's is, but not quoted in the source.
    """
    return {
        "BDF4pt": BackwardFormula("BDF4pt", (_F(11), _F(-18), _F(9), _F(-2)),
                                  denom=6),
        "BDF5pt": BackwardFormula("BDF5pt",
                                  (_F(25), _F(-48), _F(36), _F(-16), _F(3)),
                                  denom=12),
        "IFD5": LookaheadRecursion(
            "IFD5", a=(_F(-1, 8), _F(3, 4), _F(5, 8), _F(-1, 4))),
        "IFD6": LookaheadRecursion(
            "IFD6", a=(_F(6, 13), _F(2, 13), _F(4, 13), _F(3, 13),
                       _F(-2, 13))),
        "IFD7": LookaheadRecursion(
            "IFD7", a=(_F(-80, 237), _F(182, 237), _F(206, 237),
                       _F(-1, 237), _F(-110, 237), _F(40, 237)),
            reconstructed=True),
    }


# recursion/derivative pairings used throughout the package and the CLI
PRESETS = {
    "ifd5": ("IFD5", "BDF4pt"),
    "ifd6": ("IFD6", "BDF5pt"),
    "ifd7": ("IFD7", "BDF5pt"),
}
