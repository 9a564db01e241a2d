import numpy as np
import pytest

from susyhier import InvalidModelError, exp_sum, riccati_apply
from susyhier.expressions import (
    DerivativeScale,
    ExpTerm,
    RationalPartner,
    RationalTerm,
    SuperpotentialExpr,
    scale_value,
)

X = np.linspace(-2.0, 2.0, 41)


def stencil_derivative(f, x, h=1e-3):
    """Five-point central difference, O(h^4)."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


# ---------------------------------------------------------------------------
# term validation and canonical form
# ---------------------------------------------------------------------------

def test_exp_term_validation():
    ExpTerm(1.0, 0)
    with pytest.raises(InvalidModelError):
        ExpTerm(1.0, -1)
    with pytest.raises(InvalidModelError):
        ExpTerm(1.0, 1.5)


def test_rational_term_power_validation():
    RationalTerm(1.0, 0.5, 2)
    RationalTerm(1.0, 0.5, 4)
    with pytest.raises(InvalidModelError):
        RationalTerm(1.0, 0.5, 3)


def test_rate_must_be_nonzero():
    with pytest.raises(InvalidModelError):
        exp_sum(0.0, (1.0, 1))


def test_canonicalization_merges_sorts_drops():
    w = exp_sum(1.0, (2.0, 1), (3.0, 1), (-5.0, 0), (4.0, 2), (-4.0, 2))
    assert w.exp_terms == (ExpTerm(-5.0, 0), ExpTerm(5.0, 1))
    assert w.constant == -5.0
    assert w.coefficient(1) == 5.0
    assert w.coefficient(2) == 0.0  # cancelled term is gone
    assert w.is_exponential


# ---------------------------------------------------------------------------
# evaluation and derivative
# ---------------------------------------------------------------------------

def test_evaluate_matches_manual_sum():
    rate = 0.8 + 0.3j
    w = exp_sum(rate, (2.0 - 1.0j, 2), (0.5, 1), (-1.5, 0))
    manual = (2.0 - 1.0j) * np.exp(-2 * rate * X) + 0.5 * np.exp(-rate * X) - 1.5
    assert np.max(np.abs(w.evaluate(X) - manual)) < 1e-12


@pytest.mark.parametrize("rate", [1.3, 0.7 + 0.4j])
def test_derivative_matches_stencil(rate):
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
    w = SuperpotentialExpr(
        rate,
        tuple(ExpTerm(c, k) for c, k in zip(coeffs, (0, 1, 3))),
        (RationalTerm(1.2 - 0.4j, 0.6 + 0.2j, 2), RationalTerm(-0.7j, 0.3, 4)),
    )
    exact = w.derivative(X)
    approx = stencil_derivative(w.evaluate, X)
    assert np.max(np.abs(exact - approx)) < 1e-7


# ---------------------------------------------------------------------------
# symbolic W^2 - s W'
# ---------------------------------------------------------------------------

def test_riccati_apply_two_term():
    a, b, rate = 3.0 - 1.0j, 2.0, 1.5
    w = exp_sum(rate, (a, 1), (b, 0))
    for scale in DerivativeScale:
        expr, const = riccati_apply(w, scale)
        s = scale_value(scale, rate)
        assert const == pytest.approx(b * b)
        assert expr.coefficient(2) == pytest.approx(a * a)
        assert expr.coefficient(1) == pytest.approx(2 * a * b + s * rate * a)
        assert expr.constant == 0.0


@pytest.mark.parametrize("rate", [2.0, 1.0j, 0.6 + 0.8j])
@pytest.mark.parametrize("scale", list(DerivativeScale))
def test_riccati_apply_matches_pointwise(rate, scale):
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
    w = exp_sum(rate, (coeffs[0], 0), (coeffs[1], 1), (coeffs[2], 2))
    expr, const = riccati_apply(w, scale)
    s = scale_value(scale, rate)
    lhs = expr.evaluate(X) + const
    rhs = w.evaluate(X) ** 2 - s * w.derivative(X)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_riccati_apply_summation_order():
    # like terms sum products t1 t2 first (t1, then t2, ascending k), then the
    # terms of -s W'; summing the W' term first reads 0.24000000000000005 at
    # k = 1 and 0.7000000000000001 at k = 2
    expr, const = riccati_apply(exp_sum(1.0, (0.1, 0), (0.2, 1), (0.3, 2)))
    assert repr(expr) == (
        "SuperpotentialExpr(rate=(1+0j), exp_terms=(ExpTerm(coeff=(0.24000000000000002+0j), k=1), "
        "ExpTerm(coeff=(0.7+0j), k=2), ExpTerm(coeff=(0.12+0j), k=3), "
        "ExpTerm(coeff=(0.09+0j), k=4)), rational_terms=())")
    assert repr(const) == "(0.010000000000000002+0j)"


def test_riccati_apply_rejects_rational_terms():
    w = SuperpotentialExpr(1.0, (ExpTerm(1.0, 1),), (RationalTerm(1.0, 0.5, 2),))
    with pytest.raises(InvalidModelError):
        riccati_apply(w)


def test_rational_partner_evaluate():
    kernel = SuperpotentialExpr(1.0, (), (RationalTerm(1.0, 0.5, 2),))
    partner = RationalPartner(kernel, lin=2.0 - 1.0j, sq=-3.0)
    r = kernel.evaluate(X)
    assert np.max(np.abs(partner.evaluate(X) - (-3.0 * r * r + (2.0 - 1.0j) * r))) < 1e-12
