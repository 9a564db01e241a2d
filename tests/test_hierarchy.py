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
    spectrum_records,
    superpotential,
)
from susyhier.expressions import RationalPartner, exp_sum, riccati_apply

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


# default units, and hbar^2 / 2m from 1/256 to 64
_UNITS = st.just(DEFAULT_UNITS) | st.builds(UnitSystem, st.floats(0.25, 4.0),
                                            st.floats(0.125, 8.0))


@settings(max_examples=300, deadline=None)
@given(c2=_NONZERO, c1=st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
       rate=_NONZERO, l=st.integers(0, 5), units=_UNITS)
def test_selfconsistent_riccati_identity(c2, c1, rate, l, units):
    """W_l^2 - sqrt(k) W_l' expands to the partner plus -E0_l, to roundoff, k = hbar^2/2m."""
    k = units.kinetic
    sol = solve_selfconsistent_morse(c2, c1, rate, k)
    w = sol.superpotential(l, units)
    # riccati_apply expands U^2 - U' for U = W / sqrt(k), which is (W^2 - sqrt(k) W') / k
    expr, constant = riccati_apply(exp_sum(w.rate, *((t.coeff / math.sqrt(k), t.k)
                                                     for t in w.exp_terms)))
    partner = sol.partner(l, units)
    b, a_l = abs(sol.b), abs(sol.a_level(l))
    assert {t.k for t in expr.exp_terms} <= {1, 2}
    assert abs(k * expr.coefficient(2) - partner.coefficient(2)) <= 16 * _EPS * k * b * b
    assert (abs(k * expr.coefficient(1) - partner.coefficient(1))
            <= 16 * _EPS * k * b * (2.0 * a_l + abs(rate)))
    assert abs(k * constant + sol.level(0, l, units)[0]) <= 16 * _EPS * k * a_l * a_l
    if l == 0:
        # the partner at l = 0 is the well itself
        assert abs(partner.coefficient(2) - c2) <= 16 * _EPS * abs(c2)
        assert (abs(partner.coefficient(1) - c1)
                <= 16 * _EPS * (abs(c1) + k * b * abs(rate)))


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


def test_selfconsistent_ladder_follows_units():
    # mass = 1 halves hbar^2 / 2m: match V / 0.5 = 50 e^{-2x} - 100 e^{-x}, scale by 0.5
    units = UnitSystem(1.0, 1.0, 1.0)
    sol = ladder(MorseGeneral(25.0, 50.0, 1.0), Mode.SELF_CONSISTENT, units)
    assert sol == solve_selfconsistent_morse(25.0, -50.0, 1.0, 0.5)
    assert [sol.level(n, 0, units)[0].real for n in range(4)] == pytest.approx(
        [-21.5895, -15.5184, -10.4473, -6.3763], abs=1e-4)
    with pytest.raises(InvalidModelError):
        solve_selfconsistent_morse(25.0, -50.0, 1.0, 0.0)


def test_ladder_picks_the_mode():
    model = MorseGeneral(25.0, 50.0, 1.0)
    assert ladder(model, Mode.PAPER_LITERAL) is model
    assert ladder(model, Mode.SELF_CONSISTENT) == solve_selfconsistent_morse(25.0, -50.0, 1.0)
    with pytest.raises(UnsupportedFamilyError):
        ladder(PoschlTeller(6.0, 1.0, 1.0), Mode.SELF_CONSISTENT)


# ---------------------------------------------------------------------------
# ground states of the exponential ladders
# ---------------------------------------------------------------------------

def _modulus(lo: float, hi: float):
    """Complex numbers with modulus in [lo, hi] and any phase."""
    return st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                     st.floats(lo, hi), st.floats(0.0, 2.0 * math.pi))


_SIGN = st.sampled_from([-1.0, 1.0])
# bounded so that every exponent of psi0 at the sample points stays below a few hundred
_EXPONENTIAL_WELLS = st.one_of(
    st.builds(MorseGeneral, _modulus(4.0, 25.0), _modulus(0.0, 25.0), st.floats(0.7, 2.0)),
    st.builds(MorseNonPT, st.builds(lambda s, d: s * d, _SIGN, st.floats(0.5, 16.0)),
              st.floats(-3.0, 3.0)),
    st.builds(MorsePT1, _modulus(1.0, 25.0), _modulus(0.0, 25.0)),
    st.builds(MorsePT2, st.builds(lambda s, w: s * w, _SIGN, st.floats(0.5, 3.0)),
              st.floats(-5.0, 5.0), st.floats(0.5, 2.0)),
)
_BOUNDED_UNITS = st.just(DEFAULT_UNITS) | st.builds(UnitSystem, st.floats(0.5, 2.0),
                                                    st.floats(0.25, 2.0))


@settings(max_examples=300, deadline=None)
@given(model=_EXPONENTIAL_WELLS, mode=st.sampled_from(list(Mode)), l=st.integers(0, 3),
       units=_BOUNDED_UNITS)
def test_groundstate_log_derivative_is_minus_w(model, mode, l, units):
    """(ln psi0)' = -W_l / w_scale on every exponential ladder, to 1e-8.

    The 5-point stencil runs on ln(psi0(x + k h) / psi0(x)): over steps this
    small the ratio stays near 1, so the complex log keeps its principal branch.
    """
    lad = ladder(model, mode, units)
    x = np.array([-0.5, 0.0, 0.5, 1.0]) / abs(model.rate)
    h = 1e-3
    psi = lad.groundstate(l, x[:, None] + h * np.arange(-2, 3), units)
    logs = np.log(psi / psi[:, 2:3])
    logderiv = (-logs[:, 4] + 8.0 * logs[:, 3] - 8.0 * logs[:, 1] + logs[:, 0]) / (12.0 * h)
    w = lad.superpotential(l, units).evaluate(x) / lad.w_scale
    assert np.max(np.abs(logderiv + w)) <= 1e-8


# ---------------------------------------------------------------------------
# identities between families
# ---------------------------------------------------------------------------

def _assert_constant_ratio(psi, other):
    ratio = psi / other
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) <= 1e-10


@settings(max_examples=300, deadline=None)
@given(v1=_modulus(4.0, 25.0), v2=_modulus(0.0, 25.0), alpha=st.floats(0.7, 2.0),
       s=st.floats(-1.0, 1.0), mode=st.sampled_from(list(Mode)))
def test_morse_general_translation(v1, v2, alpha, s, mode):
    """V(x + s) is MorseGeneral(v1 e^{-2 alpha s}, v2 e^{-alpha s}, alpha): the same
    levels and admissibility flags in both modes, and in self-consistent mode
    W_l(x + s) and, up to a constant factor, psi0(x + s)."""
    well = MorseGeneral(v1, v2, alpha)
    moved = MorseGeneral(v1 * math.exp(-2.0 * alpha * s), v2 * math.exp(-alpha * s), alpha)
    for r, m in zip(spectrum_records(well, 6, 2, mode=mode),
                    spectrum_records(moved, 6, 2, mode=mode)):
        assert r.nq == m.nq
        e = r.energy
        assert abs(m.energy - e) <= 1e-12 * (1.0 + abs(e))
        # E = -b^2 and the flag reads Re b > 0 in both modes, with (Re b)^2 =
        # (|E| - Re E) / 2; a flag whose Re b is within roundoff of 0 may flip
        if (abs(e) - e.real) / 2.0 > 1e-10 * (1.0 + abs(e)):
            assert m.admissible == r.admissible
    if mode is Mode.SELF_CONSISTENT:
        lad, moved_lad = ladder(well, mode), ladder(moved, mode)
        x = np.array([-0.5, 0.0, 0.5, 1.0]) / alpha
        for l in range(3):
            w = lad.superpotential(l, DEFAULT_UNITS).evaluate(x + s)
            moved_w = moved_lad.superpotential(l, DEFAULT_UNITS).evaluate(x)
            assert np.max(np.abs(moved_w - w)) <= 1e-12 * (1.0 + np.max(np.abs(w)))
            _assert_constant_ratio(lad.groundstate(l, x + s, DEFAULT_UNITS),
                                   moved_lad.groundstate(l, x, DEFAULT_UNITS))


def _self_consistent_levels(model, units):
    lad = ladder(model, Mode.SELF_CONSISTENT, units)
    return [lad.level(n, l, units) for l in range(4) for n in range(12)]


@settings(max_examples=300, deadline=None)
@given(d=st.floats(0.5, 16.0), p=st.floats(-3.0, 3.0), units=_BOUNDED_UNITS)
def test_morse_nonpt_line_shift(d, p, units):
    """V(x + i pi/2) of MorseNonPT(d, p) is MorseGeneral(d, d p): in self-consistent
    mode the same levels and flags, exactly.  d > 0 here: for d < 0 the two
    matches take opposite square-root branches, and the levels come out as
    complex conjugates.  W_l keeps its constant term, and its e^{-x}
    coefficient times e^{-i pi/2} is MorseGeneral's; psi0(x + i pi/2) is
    MorseGeneral's psi0(x) up to a constant factor."""
    well, line = MorseNonPT(d, p), MorseGeneral(d, d * p)
    assert _self_consistent_levels(well, units) == _self_consistent_levels(line, units)
    lad, line_lad = (ladder(m, Mode.SELF_CONSISTENT, units) for m in (well, line))
    x = np.array([-0.5, 0.0, 0.5, 1.0])
    for l in range(3):
        w, line_w = lad.superpotential(l, units), line_lad.superpotential(l, units)
        assert abs(w.constant - line_w.constant) <= 1e-12 * (1.0 + abs(line_w.constant))
        # e^{-(x + i pi/2)} = e^{-i pi/2} e^{-x}, and e^{-i pi/2} = -i
        shifted = -1j * w.coefficient(1)
        assert abs(shifted - line_w.coefficient(1)) <= 1e-12 * (1.0 + abs(line_w.coefficient(1)))
        _assert_constant_ratio(lad.groundstate(l, x + 0.5j * math.pi, units),
                               line_lad.groundstate(l, x, units))


@settings(max_examples=300, deadline=None)
@given(v1=_modulus(4.0, 25.0), v2=_modulus(0.0, 25.0), alpha=st.floats(0.25, 4.0),
       units=_BOUNDED_UNITS)
def test_morse_general_rate_scaling(v1, v2, alpha, units):
    """x -> x / alpha: MorseGeneral(v1, v2, alpha) has alpha^2 times the
    self-consistent levels of MorseGeneral(v1 / alpha^2, v2 / alpha^2, 1), to
    1e-14 of 1 + |E|, with the same admissibility flags; its W_l(x) is alpha
    times that well's W_l(alpha x), and its psi0(x) that well's psi0(alpha x)
    up to a constant factor."""
    well, unit_well = MorseGeneral(v1, v2, alpha), MorseGeneral(v1 / alpha**2, v2 / alpha**2, 1.0)
    levels = _self_consistent_levels(well, units)
    unit_rate = _self_consistent_levels(unit_well, units)
    for (e, ok), (unit_e, unit_ok) in zip(levels, unit_rate):
        assert abs(alpha**2 * unit_e - e) <= 1e-14 * (1.0 + abs(e))
        # as in the translation test: a flag whose Re b is within roundoff of 0 may flip
        if (abs(e) - e.real) / 2.0 > 1e-10 * (1.0 + abs(e)):
            assert unit_ok == ok
    lad, unit_lad = (ladder(m, Mode.SELF_CONSISTENT, units) for m in (well, unit_well))
    x = np.array([-0.5, 0.0, 0.5, 1.0]) / alpha
    for l in range(3):
        w = lad.superpotential(l, units).evaluate(x)
        unit_w = alpha * unit_lad.superpotential(l, units).evaluate(alpha * x)
        assert np.max(np.abs(unit_w - w)) <= 1e-12 * (1.0 + np.max(np.abs(w)))
        _assert_constant_ratio(lad.groundstate(l, x, units),
                               unit_lad.groundstate(l, alpha * x, units))


@settings(max_examples=300, deadline=None)
@given(d=st.builds(lambda s, d: s * d, _SIGN, st.floats(0.5, 16.0)), p=st.floats(-3.0, 3.0),
       s=st.floats(-1.0, 1.0), units=_BOUNDED_UNITS)
def test_morse_nonpt_translation(d, p, s, units):
    """V(x + s) of MorseNonPT(d, p) is MorseNonPT(d e^{-2s}, p e^{s}): in
    self-consistent mode the same levels and admissibility flags."""
    levels = _self_consistent_levels(MorseNonPT(d, p), units)
    moved = _self_consistent_levels(MorseNonPT(d * math.exp(-2.0 * s), p * math.exp(s)), units)
    for (e, ok), (moved_e, moved_ok) in zip(levels, moved):
        assert abs(moved_e - e) <= 1e-12 * (1.0 + abs(e))
        # as in the translation test: a flag whose Re b is within roundoff of 0 may flip
        if (abs(e) - e.real) / 2.0 > 1e-10 * (1.0 + abs(e)):
            assert moved_ok == ok


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


@pytest.mark.parametrize("model", [
    MorseGeneral(25.0, 50.0, 2.0), MorseNonPT(9.0, 2.0), MorsePT1(16.0, 12.0),
    MorsePT2(2.0, 3.0, 0.5), PoschlTeller(6.0, 1.0, 1.5), PoschlTellerPT(4.0, 0.5, 0.8),
], ids=lambda m: m.token)
def test_rate_is_one_fact_of_the_family(model):
    """V, W, the partner and the self-consistent ladder all run on the family's rate."""
    for l in range(3):
        assert superpotential(model, l).rate == model.rate
        partner = partner_potential(model, l)
        assert getattr(partner, "kernel", partner).rate == model.rate  # rational: its kernel
    if isinstance(model, (PoschlTeller, PoschlTellerPT)):
        return
    assert model.exponential_coefficients()[2] == model.rate
    assert ladder(model, Mode.SELF_CONSISTENT).rate == model.rate
    # a real rate stays a Python float, so that e^{-rate x} is numpy's real exp
    assert isinstance(model.rate, float) == (model.rate.imag == 0.0)


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
    for units in (DEFAULT_UNITS, UnitSystem(1.0, 1.0, 1.0), UnitSystem(0.5, 2.0, 1.0)):
        for l in range(3):
            rep = riccati_residual(model, l, grid, mode=Mode.SELF_CONSISTENT, units=units)
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
