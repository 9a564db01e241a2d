import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyhier import (
    DEFAULT_UNITS,
    DegenerateQuadraticError,
    DerivativeScale,
    Grid,
    InvalidModelError,
    Mode,
    MorseGeneral,
    MorseNonPT,
    MorsePT1,
    MorsePT2,
    PoschlTeller,
    PoschlTellerPT,
    UnitSystem,
    UnsupportedFamilyError,
    hierarchy,
    ladder,
    partner_potential,
    riccati_residual,
    solve_selfconsistent_morse,
    superpotential,
)
from susyhier.expressions import RationalPartner, riccati_apply

GRID = Grid(-3.0, 30.0, 800)
OSC_GRID = Grid(-5.0, 5.0, 301)  # for complexified rates, where e^{-i k x} stays bounded


# ---------------------------------------------------------------------------
# coefficient-matched solution
# ---------------------------------------------------------------------------

def test_solve_selfconsistent_canonical_well():
    sol = solve_selfconsistent_morse(25.0, -50.0, 1.0)
    assert sol.b == pytest.approx(5.0)
    assert sol.a == pytest.approx(4.5)
    assert sol.level(0, 0, DEFAULT_UNITS)[0] == pytest.approx(-20.25)
    for l in range(4):
        assert sol.a_level(l) == pytest.approx(4.5 - l)
        assert sol.level(0, l, DEFAULT_UNITS)[0] == pytest.approx(-((4.5 - l) ** 2))


def test_solve_selfconsistent_errors():
    with pytest.raises(DegenerateQuadraticError):
        solve_selfconsistent_morse(0.0, 1.0)
    with pytest.raises(InvalidModelError):
        solve_selfconsistent_morse(1.0, 1.0, 0.0)


def test_solve_selfconsistent_roundtrip():
    """Reconstructing (c2, c1) from a known (b, a, rate) must recover them."""
    rng = np.random.default_rng(23)
    x0 = 0.7
    for _ in range(300):
        b = complex(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))  # right half plane
        a = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        rate = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        c2 = b * b
        c1 = -b * (2.0 * a + rate)
        sol = solve_selfconsistent_morse(c2, c1, rate)
        assert abs(sol.b - b) <= 1e-12 * (1.0 + abs(b))
        assert abs(sol.a - a) <= 1e-12 * (1.0 + abs(a))
        # the matched W satisfies W^2 - W' = V - E0 pointwise
        w = sol.superpotential(0, DEFAULT_UNITS)
        lhs = w.evaluate(x0) ** 2 - w.derivative(x0)
        v = c2 * np.exp(-2 * rate * x0) + c1 * np.exp(-rate * x0)
        e0 = sol.level(0, 0, DEFAULT_UNITS)[0]
        assert abs(lhs - (v - e0)) <= 1e-10 * (1.0 + abs(v))


# complex numbers with parts in [-10, 10] and modulus at least 1e-2, so that
# b = sqrt(c2) and the rate stay away from 0
_NONZERO = st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)).filter(
    lambda z: abs(z) >= 1e-2)
_EPS = np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(c2=_NONZERO, c1=st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
       rate=_NONZERO, l=st.integers(0, 5))
def test_selfconsistent_riccati_identity(c2, c1, rate, l):
    """W_l^2 - W_l' expands to the partner plus -E0_l, to roundoff."""
    sol = solve_selfconsistent_morse(c2, c1, rate)
    expr, constant = riccati_apply(sol.superpotential(l, DEFAULT_UNITS))
    partner = sol.partner(l, DEFAULT_UNITS)
    b, a_l = abs(sol.b), abs(sol.a_level(l))
    assert {t.k for t in expr.exp_terms} <= {1, 2}
    assert abs(expr.coefficient(2) - partner.coefficient(2)) <= 16 * _EPS * b * b
    assert (abs(expr.coefficient(1) - partner.coefficient(1))
            <= 16 * _EPS * b * (2.0 * a_l + abs(rate)))
    assert abs(constant + sol.level(0, l, DEFAULT_UNITS)[0]) <= 16 * _EPS * a_l * a_l
    if l == 0:
        # the partner at l = 0 is the well itself
        assert abs(partner.coefficient(2) - c2) <= 16 * _EPS * abs(c2)
        assert abs(partner.coefficient(1) - c1) <= 16 * _EPS * (abs(c1) + b * abs(rate))


def test_partner_level_coefficients():
    sol = solve_selfconsistent_morse(25.0, -50.0, 1.0)
    for l in (0, 2):
        p = sol.partner(l, DEFAULT_UNITS)
        assert p.coefficient(2) == pytest.approx(25.0)
        assert p.coefficient(1) == pytest.approx(-5.0 * (2.0 * (4.5 - l) + 1.0))
        assert p.constant == 0.0


def test_selfconsistent_ladder_matches_direct_solve():
    sol = ladder(MorseGeneral(25.0, 50.0, 1.0), Mode.SELF_CONSISTENT)
    assert (sol.b, sol.a, sol.rate) == (5.0 + 0j, 4.5 + 0j, 1.0 + 0j)
    sol = ladder(MorseNonPT(9.0, 2.0), Mode.SELF_CONSISTENT)
    # c2 = -9, c1 = -18i: b = 3i, a = -(-18i)/(6i) - 1/2 = 2.5
    assert sol.b == pytest.approx(3.0j)
    assert sol.a == pytest.approx(2.5)


def test_ladder_picks_the_mode():
    model = MorseGeneral(25.0, 50.0, 1.0)
    assert ladder(model, Mode.PAPER_LITERAL) is model
    assert ladder(model, Mode.SELF_CONSISTENT) == solve_selfconsistent_morse(25.0, -50.0, 1.0)
    with pytest.raises(UnsupportedFamilyError):
        ladder(PoschlTeller(6.0, 1.0, 1.0), Mode.SELF_CONSISTENT)


# ---------------------------------------------------------------------------
# published superpotentials and partners
# ---------------------------------------------------------------------------

def test_superpotential_general_morse():
    w = superpotential(MorseGeneral(25.0, 25.0, 1.0), 0)
    assert w.coefficient(1) == pytest.approx(-5.0)
    assert w.constant == pytest.approx(4.5)
    assert w.evaluate(0.0) == pytest.approx(-0.5)
    # deeper level shifts only the constant
    w2 = superpotential(MorseGeneral(25.0, 25.0, 1.0), 2)
    assert w2.coefficient(1) == pytest.approx(-5.0)
    assert w2.constant == pytest.approx(2.5)


def test_superpotential_constant_can_vanish():
    # lam q = (2l+1)/2 at l = 0: lam = 5, q = 0.1
    w = superpotential(MorseGeneral(25.0, 2.5, 1.0), 0)
    assert w.constant == 0.0


def test_superpotential_shifted_family():
    w = superpotential(MorsePT2(1.0, 1.0, 1.0), 1)
    assert w.rate == 1.0j
    assert w.constant == pytest.approx(3.5)  # 2l + 1 + d/(2 omega)
    assert w.evaluate(0.0) == pytest.approx(2.5)


def test_superpotential_complex_coefficient_family():
    w = superpotential(MorseNonPT(9.0, 2.0), 0)
    assert w.coefficient(1) == pytest.approx(-3.0j)
    assert w.constant == pytest.approx(2.5)


def test_superpotential_unit_imaginary_rate_family():
    w = superpotential(MorsePT1(16.0, 16.0), 0)
    assert w.rate == 1.0j
    assert w.coefficient(1) == pytest.approx(-4.0)
    assert w.evaluate(0.0) == pytest.approx(-0.5)


def test_superpotential_rational_family():
    # default units: beta = 2, so the constant term vanishes at l = 0
    w = superpotential(PoschlTeller(6.0, 1.0, 1.0), 0)
    assert w.constant == 0.0
    assert w.evaluate(0.0) == pytest.approx(-0.25)
    # beta = 1 units: W(0) = 1/(2 sqrt 2) - 1/(4 sqrt 2)
    w = superpotential(PoschlTeller(6.0, 1.0, 1.0), 0, UnitSystem(1.0, 1.0, 1.0))
    assert w.evaluate(0.0) == pytest.approx(1.0 / (4.0 * math.sqrt(2.0)))


def test_superpotential_validation():
    with pytest.raises(InvalidModelError):
        superpotential(MorseGeneral(25.0, 25.0, 1.0), -1)
    with pytest.raises(InvalidModelError):
        superpotential(MorseGeneral(0.0, 25.0, 1.0), 0)


def test_partner_potential_coefficients():
    p = partner_potential(MorseGeneral(25.0, 25.0, 1.0), 1)
    assert p.coefficient(2) == pytest.approx(25.0)
    assert p.coefficient(1) == pytest.approx(-15.0)  # -lam^2 q + 2 l lam

    p = partner_potential(MorsePT1(16.0, 16.0), 0)
    assert p.coefficient(2) == pytest.approx(16.0)  # equals v1
    assert p.coefficient(1) == pytest.approx(-16.0)

    p = partner_potential(MorseNonPT(9.0, 2.0), 1)
    assert p.coefficient(2) == pytest.approx(-9.0)
    assert p.coefficient(1) == pytest.approx(-12.0j)

    p = partner_potential(MorsePT2(2.0, 3.0, 1.0), 0)
    assert p.coefficient(2) == pytest.approx(1.0)
    assert p.coefficient(1) == pytest.approx(-2.0 * (1.75 + 0.5j))


def test_partner_potential_rational_family():
    p = partner_potential(PoschlTeller(6.0, 1.0, 1.0), 1, UnitSystem(1.0, 1.0, 1.0))
    assert isinstance(p, RationalPartner)
    assert p.sq == pytest.approx(1.0)   # kinetic * l(l+1) = 0.5 * 2
    assert p.lin == pytest.approx(0.0)  # 1 - l(l+1) beta/2 = 0 at beta = 1, l = 1
    p0 = partner_potential(PoschlTeller(6.0, 1.0, 1.0), 0)
    assert p0.sq == 0.0 and p0.lin == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# factorization residuals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model,grid", [
    (MorseGeneral(25.0, 50.0, 1.0), GRID),
    (MorseGeneral(7.0 + 2.0j, -3.0, 0.7), GRID),
    (MorseNonPT(9.0, 2.0), GRID),
    (MorsePT1(16.0, 12.0), OSC_GRID),
    (MorsePT2(2.0, 3.0, 1.0), OSC_GRID),
])
def test_selfconsistent_residual_vanishes(model, grid):
    for l in range(3):
        rep = riccati_residual(model, l, grid, mode=Mode.SELF_CONSISTENT)
        assert rep.max_abs_residual < 1e-10


def test_literal_residual_golden_general_morse():
    """With the ansatz taken verbatim, the identity misses by lam^2 |q| e^{-alpha x};
    the maximum sits at the left edge and scales linearly with q."""
    r1 = riccati_residual(MorseGeneral(25.0, 25.0, 1.0), 0, GRID,
                          mode=Mode.PAPER_LITERAL, scale=DerivativeScale.INVERSE_ALPHA)
    r2 = riccati_residual(MorseGeneral(25.0, 50.0, 1.0), 0, GRID,
                          mode=Mode.PAPER_LITERAL, scale=DerivativeScale.INVERSE_ALPHA)
    assert r1.max_abs_residual == pytest.approx(25.0 * math.exp(3.0), rel=1e-12)
    assert r2.max_abs_residual == pytest.approx(50.0 * math.exp(3.0), rel=1e-12)
    assert r1.argmax_x == -3.0
    assert r2.argmax_x == -3.0
    assert r2.max_abs_residual / r1.max_abs_residual == pytest.approx(2.0, abs=1e-12)


def test_literal_residual_golden_unit_imaginary_rate():
    # |e^{-ix}| = 1 and the printed-pair miss is the lam^2 cross term,
    # so the residual is the constant v1 regardless of v2
    rep = riccati_residual(MorsePT1(16.0, 16.0), 0, OSC_GRID,
                           mode=Mode.PAPER_LITERAL, scale=DerivativeScale.INVERSE_ALPHA)
    assert rep.max_abs_residual == pytest.approx(16.0, rel=1e-12)
    rep = riccati_residual(MorsePT1(16.0, 12.0), 0, OSC_GRID,
                           mode=Mode.PAPER_LITERAL, scale=DerivativeScale.INVERSE_ALPHA)
    assert rep.max_abs_residual == pytest.approx(16.0, rel=1e-12)


def test_literal_residual_vanishes_when_coefficients_coincide():
    # alpha = 2, lam = 5, q = -1/5: the unit-scale cross terms happen to agree
    rep = riccati_residual(MorseGeneral(100.0, -20.0, 2.0), 0, GRID,
                           mode=Mode.PAPER_LITERAL, scale=DerivativeScale.UNIT)
    # exact cancellation up to roundoff on ~1e6-sized terms at the left edge
    assert rep.max_abs_residual < 1e-8


@pytest.mark.parametrize("mode", list(Mode))
def test_riccati_residual_rejects_negative_depth(mode):
    with pytest.raises(InvalidModelError, match="l must be nonnegative"):
        riccati_residual(MorseGeneral(25.0, 50.0), -1, GRID, mode=mode)


def test_riccati_residual_e0_override():
    rep = riccati_residual(MorseGeneral(25.0, 50.0, 1.0), 0, GRID,
                           mode=Mode.SELF_CONSISTENT, e0=-1.0)
    assert rep.e0 == -1.0
    # wrong energy shifts the residual by a constant
    assert rep.max_abs_residual == pytest.approx(abs(-1.0 - (-20.25)), rel=1e-9)


# ---------------------------------------------------------------------------
# hierarchy assembly
# ---------------------------------------------------------------------------

def test_hierarchy_selfconsistent():
    levels = hierarchy(MorseGeneral(25.0, 50.0, 1.0), 3)
    assert [lv.l for lv in levels] == [0, 1, 2, 3]
    for lv in levels:
        assert lv.e0 == pytest.approx(-((4.5 - lv.l) ** 2))
        assert lv.partner.coefficient(2) == pytest.approx(25.0)


def test_hierarchy_literal():
    levels = hierarchy(MorseGeneral(25.0, 50.0, 1.0), 1, mode=Mode.PAPER_LITERAL)
    assert levels[0].e0 == pytest.approx(-90.25)  # -(lam q - 1/2)^2, lam q = 10
    assert levels[1].e0 == pytest.approx(-72.25)


def test_hierarchy_rational_family():
    units = UnitSystem(1.0, 1.0, 1.0)
    levels = hierarchy(PoschlTeller(6.0, 1.0, 1.0), 1, mode=Mode.PAPER_LITERAL, units=units)
    assert isinstance(levels[0].partner, RationalPartner)
    assert levels[0].e0 == pytest.approx(-0.125)
    for model in (PoschlTeller(6.0, 1.0, 1.0), PoschlTellerPT(4.0, 0.5, 1.0)):
        with pytest.raises(UnsupportedFamilyError, match="not a two-term exponential well"):
            hierarchy(model, 1, mode=Mode.SELF_CONSISTENT)


def test_hierarchy_validation():
    with pytest.raises(InvalidModelError):
        hierarchy(MorseGeneral(25.0, 50.0, 1.0), -1)
