"""Finite-difference rule registry for the one-step-ahead eigenpair predictor.

Two families live here:

* backward-difference estimators for the flow derivative,
  ``dA(t_k) ~= sum_j c_j A(t_{k-j}) / (d * tau)``, and
* convergent look-ahead recursions that advance the stacked eigenpair
  vector, ``z_{k+1} = c * tau * dz_k + sum_j a_j z_{k-j}``.

Coefficients are stored as exact rationals so that consistency and
truncation-order checks can be done symbolically; they are lowered to
floats exactly once, when a solver picks the rule up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

__all__ = [
    "BackwardFormula",
    "LookaheadRecursion",
    "ZeroStabilityReport",
    "FormulaError",
    "catalog",
    "complete_recursion",
    "check_zero_stability",
    "truncation_order",
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
    if sum(weights) != 0:
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


def _backward_degree(coeffs, denom) -> int:
    """Exactness degree of ``sum_j coeffs[j] A(t_{k-j}) / (denom * tau)``."""
    return _exactness_degree([Fraction(c) for c in coeffs],
                             [-j for j in range(len(coeffs))], Fraction(denom))


def _recursion_order(c, a) -> int:
    """Truncation order of the recursion with weights c and a (see
    ``LookaheadRecursion``)."""
    return 1 + _exactness_degree([Fraction(1)] + [-Fraction(x) for x in a],
                                 [1] + [-j for j in range(len(a))],
                                 Fraction(c))


@dataclass(frozen=True)
class BackwardFormula:
    """Derivative estimator using the current sample and earlier ones.

    ``coeffs[j]`` weighs the sample ``j`` gaps in the past; the weighted
    sum is divided by ``denom * tau``.
    """

    name: str
    coeffs: tuple
    denom: int
    order: int
    # coeffs lowered to a float row once; derivative_estimate runs every step
    coeffs_float: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def taps(self) -> int:
        return len(self.coeffs)

    def __post_init__(self):
        got = _backward_degree(self.coeffs, self.denom)
        if got != self.order:
            raise FormulaError(
                f"{self.name}: declared order {self.order}, derived {got}")
        row = np.array([float(Fraction(c)) for c in self.coeffs])
        row.flags.writeable = False
        object.__setattr__(self, "coeffs_float", row)

    def weights_float(self):
        return np.array([float(Fraction(c) / self.denom) for c in self.coeffs])


@dataclass(frozen=True)
class LookaheadRecursion:
    """One-step-ahead update rule for the eigenpair vector.

    The tap count is ``len(a)``; ``a[j]`` weighs the state ``j`` steps in
    the past.  ``order`` is the truncation error order of the full
    recursion (one more than the exactness degree of the derivative rule
    it implies, because the derivative enters multiplied by tau).
    """

    name: str
    c: Fraction
    a: tuple
    order: int
    reconstructed: bool = field(default=False)

    @property
    def taps(self) -> int:
        return len(self.a)

    def __post_init__(self):
        a = [Fraction(x) for x in self.a]
        if sum(a) != 1:
            raise FormulaError(f"{self.name}: state weights must sum to 1")
        forced = 1 + sum(j * aj for j, aj in enumerate(a))
        if Fraction(self.c) != forced:
            raise FormulaError(
                f"{self.name}: derivative weight {self.c} breaks first-order "
                f"consistency (forced value {forced})")
        got = _recursion_order(self.c, a)
        if got != self.order:
            raise FormulaError(
                f"{self.name}: declared order {self.order}, derived {got}")

    def a_float(self):
        return np.array([float(x) for x in self.a])

    def c_float(self) -> float:
        return float(self.c)


@dataclass(frozen=True)
class ZeroStabilityReport:
    stable: bool
    root_moduli: tuple


_ROOT_TOL = 1e-10


def check_zero_stability(rec: LookaheadRecursion) -> ZeroStabilityReport:
    """Root condition for the recursion's characteristic polynomial.

    The polynomial is ``rho**s - sum_j a_j rho**(s-1-j)``.  Stable means
    exactly one simple root at 1 and every other root strictly inside the
    unit circle; a repeated root on the circle is rejected.  Roots come
    from numpy's companion-matrix solver.
    """
    s = rec.taps
    poly = np.zeros(s + 1)
    poly[0] = 1.0
    for j, aj in enumerate(rec.a):
        poly[j + 1] = -float(aj)
    roots = np.roots(poly)
    moduli = np.abs(roots)
    at_one = np.abs(roots - 1.0) <= _ROOT_TOL
    others_inside = np.all(moduli[~at_one] < 1.0 - _ROOT_TOL)
    stable = bool(np.count_nonzero(at_one) == 1 and others_inside)
    return ZeroStabilityReport(stable=stable, root_moduli=tuple(np.sort(moduli)[::-1]))


def complete_recursion(a: Sequence, name: str = "custom") -> LookaheadRecursion:
    """Build a LookaheadRecursion from state weights alone.

    The derivative weight is not a free choice: first-order consistency
    forces ``c = 1 + sum_j j*a_j``.  The truncation order is then derived
    symbolically from the completed rule, whose own checks reject state
    weights that do not sum to 1.
    """
    a = tuple(Fraction(x) for x in a)
    c = 1 + sum(j * aj for j, aj in enumerate(a))
    return LookaheadRecursion(name=name, c=c, a=a,
                              order=_recursion_order(c, a), reconstructed=True)


def truncation_order(rule: Union[BackwardFormula, LookaheadRecursion]) -> int:
    """Symbolically derived truncation order of a cataloged rule.

    For a backward formula this is the largest polynomial degree it
    differentiates exactly; for a recursion it is that degree plus one.
    Both are recomputed here rather than read off the declaration.
    """
    if isinstance(rule, BackwardFormula):
        return _backward_degree(rule.coeffs, rule.denom)
    if isinstance(rule, LookaheadRecursion):
        return _recursion_order(rule.c, rule.a)
    raise FormulaError(f"not a cataloged rule type: {type(rule)!r}")


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
    only, so its derivative weight carries the ``reconstructed`` flag: the
    value 196/79 is forced by first-order consistency, not quoted.
    """
    ifd7 = complete_recursion(
        [_F(-80, 237), _F(182, 237), _F(206, 237),
         _F(-1, 237), _F(-110, 237), _F(40, 237)],
        name="IFD7",
    )
    return {
        "BDF4pt": BackwardFormula("BDF4pt", (_F(11), _F(-18), _F(9), _F(-2)),
                                  denom=6, order=3),
        "BDF5pt": BackwardFormula("BDF5pt",
                                  (_F(25), _F(-48), _F(36), _F(-16), _F(3)),
                                  denom=12, order=4),
        "IFD5": LookaheadRecursion(
            "IFD5", c=_F(9, 4),
            a=(_F(-1, 8), _F(3, 4), _F(5, 8), _F(-1, 4)), order=4),
        "IFD6": LookaheadRecursion(
            "IFD6", c=_F(24, 13),
            a=(_F(6, 13), _F(2, 13), _F(4, 13), _F(3, 13), _F(-2, 13)),
            order=4),
        "IFD7": ifd7,
    }


# recursion/derivative pairings used throughout the package and the CLI
PRESETS = {
    "ifd5": ("IFD5", "BDF4pt"),
    "ifd6": ("IFD6", "BDF5pt"),
    "ifd7": ("IFD7", "BDF5pt"),
}
