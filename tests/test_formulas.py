"""Formula catalog: coefficients, exactness, stability.

The backward-difference coefficients are cross-checked against sympy's
finite-difference weight generator, which derives them from scratch, so
the catalog and the tests cannot share a mistake.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy

from eigentrack import formulas
from eigentrack.formulas import (BackwardFormula, FormulaError,
                                 LookaheadRecursion, catalog,
                                 check_zero_stability, complete_recursion,
                                 derivative_estimate, truncation_order)


@pytest.fixture(scope="module")
def rules():
    return catalog()


# ---------------------------------------------------------------- backward

@pytest.mark.parametrize("name,taps", [("BDF4pt", 4), ("BDF5pt", 5)])
def test_backward_weights_match_sympy(rules, name, taps):
    # weights for d/dt at the newest node of a backward stencil 0,-1,...,
    rule = rules[name]
    nodes = [sympy.Integer(-j) for j in range(taps)]
    table = sympy.finite_diff_weights(1, nodes, 0)
    want = table[1][-1]          # first derivative, all taps used
    got = rule.weights_float()
    for j in range(taps):
        assert got[j] == pytest.approx(float(want[j]), abs=1e-15)


def test_backward_catalog_entries(rules):
    bdf4 = rules["BDF4pt"]
    assert bdf4.coeffs == (11, -18, 9, -2) and bdf4.denom == 6
    assert bdf4.order == 3
    bdf5 = rules["BDF5pt"]
    assert bdf5.coeffs == (25, -48, 36, -16, 3) and bdf5.denom == 12
    assert bdf5.order == 4


@pytest.mark.parametrize("name", ["BDF4pt", "BDF5pt"])
def test_backward_exact_on_polynomials(rules, name):
    """Order p means the stencil differentiates degree-p polynomials
    exactly; symbolic evaluation keeps the check free of rounding."""
    rule = rules[name]
    t, tau = sympy.symbols("t tau")
    for deg in range(rule.order + 1):
        f = (2 * t + 1) ** deg
        est = sum(Fraction(c, rule.denom) * f.subs(t, -j * tau)
                  for j, c in enumerate(rule.coeffs)) / tau
        err = sympy.simplify(est - sympy.diff(f, t).subs(t, 0))
        assert err == 0, f"{name} not exact on degree {deg}"


def test_backward_declared_order_is_sharp(rules):
    for name in ("BDF4pt", "BDF5pt"):
        rule = rules[name]
        assert truncation_order(rule) == rule.order


def test_derivative_estimate_polynomial():
    rule = catalog()["BDF4pt"]
    tau = 0.01
    f = lambda t: t ** 3 - 2.0 * t + 1.0
    hist = [np.array([[f(0.5 - j * tau)]]) for j in range(4)]
    est = derivative_estimate(rule, hist, tau)
    assert abs(est[0, 0] - (3 * 0.25 - 2.0)) < 1e-10


def test_derivative_estimate_needs_full_history():
    rule = catalog()["BDF5pt"]
    hist = [np.eye(2)] * 4
    with pytest.raises(FormulaError):
        derivative_estimate(rule, hist, 0.01)


@pytest.mark.parametrize("name", ["BDF4pt", "BDF5pt"])
def test_derivative_estimate_input_forms_give_the_same_bits(rules, name):
    # a startup passes reversed views of its samples and a prediction a
    # slice of the ring buffer; both must give the bits of a plain stack
    rule = rules[name]
    stack = np.random.default_rng(3).standard_normal((rule.taps + 2, 7, 7))
    want = derivative_estimate(rule, stack, 0.005)
    ring = np.empty((2 * len(stack) + 1, 7, 7))
    ring[3:3 + len(stack)] = stack             # an odd offset in a buffer
    forms = [list(stack), np.ascontiguousarray(stack[:rule.taps]),
             stack[::-1].copy()[::-1], ring[3:3 + len(stack)]]
    for form in forms:
        assert np.array_equal(derivative_estimate(rule, form, 0.005), want)
    # entries past the tap count are ignored
    tail = stack.copy()
    tail[rule.taps:] = np.nan
    assert np.array_equal(derivative_estimate(rule, tail, 0.005), want)
    # and the product is the weighted sum of the samples, to roundoff
    total = sum(float(c) * H for c, H in zip(rule.coeffs, stack))
    assert want == pytest.approx(total / (rule.denom * 0.005), rel=1e-12,
                                 abs=1e-9)


# -------------------------------------------------------------- recursions

def test_recursion_catalog_values(rules):
    ifd5 = rules["IFD5"]
    assert ifd5.c == Fraction(9, 4)
    assert ifd5.a == (Fraction(-1, 8), Fraction(3, 4), Fraction(5, 8),
                      Fraction(-1, 4))
    assert ifd5.order == 4 and not ifd5.reconstructed
    ifd6 = rules["IFD6"]
    assert ifd6.c == Fraction(24, 13)
    assert ifd6.a == (Fraction(6, 13), Fraction(2, 13), Fraction(4, 13),
                      Fraction(3, 13), Fraction(-2, 13))
    assert ifd6.order == 4
    ifd7 = rules["IFD7"]
    assert ifd7.a == tuple(Fraction(k, 237)
                           for k in (-80, 182, 206, -1, -110, 40))
    assert ifd7.c == Fraction(196, 79)
    assert ifd7.order == 5
    assert ifd7.reconstructed


def test_recursion_consistency_conditions(rules):
    # a[0] weighs z_k, so the forced derivative weight is 1 + sum j*a_j
    # with j counting from zero
    for rule in rules.values():
        if not isinstance(rule, LookaheadRecursion):
            continue
        assert sum(rule.a) == 1
        assert rule.c == 1 + sum(j * aj for j, aj in enumerate(rule.a))


def test_recursion_moment_conditions(rules):
    """Order p recursions satisfy sum_j a_j (-j)^k = 1 for 2 <= k <= p-1
    (the implied derivative stencil is exact to degree p-1)."""
    for rule in rules.values():
        if not isinstance(rule, LookaheadRecursion):
            continue
        for k in range(2, rule.order):
            acc = sum(aj * Fraction(-j) ** k
                      for j, aj in enumerate(rule.a))
            assert acc == 1, f"{rule.name} moment {k}"


def test_complete_recursion_recovers_ifd5():
    a = (Fraction(-1, 8), Fraction(3, 4), Fraction(5, 8), Fraction(-1, 4))
    rec = complete_recursion(a, name="rebuilt")
    assert rec.c == Fraction(9, 4)
    assert rec.order == 4
    assert rec.reconstructed


def test_complete_recursion_rejects_inconsistent_taps():
    with pytest.raises(FormulaError):
        complete_recursion((Fraction(1, 2), Fraction(1, 3)), name="bad")


# ----------------------------------------------------------- zero stability

def test_catalog_recursions_zero_stable(rules):
    for rule in rules.values():
        if not isinstance(rule, LookaheadRecursion):
            continue
        rep = check_zero_stability(rule)
        assert rep.stable, rule.name
        moduli = np.array(rep.root_moduli)
        assert np.count_nonzero(np.abs(moduli - 1.0) < 1e-10) == 1
        inside = moduli[np.abs(moduli - 1.0) >= 1e-10]
        assert (inside < 1.0 - 1e-10).all()


def test_double_unit_root_is_unstable():
    # z_{k+1} = 2 z_k - z_{k-1}: consistent (c is forced to 0) but the
    # characteristic polynomial is (rho - 1)^2 -- a double unit root
    rec = LookaheadRecursion(name="bad2", c=Fraction(0),
                             a=(Fraction(2), Fraction(-1)), order=2)
    rep = check_zero_stability(rec)
    assert not rep.stable


def test_presets_name_catalog_entries(rules):
    for rec_name, der_name in formulas.PRESETS.values():
        assert isinstance(rules[rec_name], LookaheadRecursion)
        assert isinstance(rules[der_name], BackwardFormula)
    assert formulas.PRESETS["ifd5"] == ("IFD5", "BDF4pt")
    assert formulas.PRESETS["ifd7"] == ("IFD7", "BDF5pt")
