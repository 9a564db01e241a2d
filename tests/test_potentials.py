import math

import numpy as np
import pytest

from susyhier import (
    DEFAULT_UNITS,
    InvalidModelError,
    MorseGeneral,
    MorseNonPT,
    MorsePT1,
    MorsePT2,
    PoleOnDomainError,
    PoschlTeller,
    PoschlTellerPT,
    SymmetryClass,
    UnitSystem,
    UnsupportedFamilyError,
    ZeroOmegaError,
    classify_symmetry,
    ensure_no_pole,
    eval_potential,
    poschl_teller_imag_form,
    reality_condition,
    symmetric_grid,
)


# ---------------------------------------------------------------------------
# point evaluations, worked by hand
# ---------------------------------------------------------------------------

def test_morse_general_point_values():
    m = MorseGeneral(25.0, 50.0, 1.0)
    assert eval_potential(m, 0.0) == pytest.approx(-25.0)
    # u = 1/2 at x = ln 2: 25/4 - 25
    assert eval_potential(m, math.log(2.0)) == pytest.approx(-18.75)
    tiny = MorseGeneral(1.0, 2.0, 1.0)
    assert eval_potential(tiny, 0.0) == pytest.approx(-1.0)


def test_morse_general_decays_to_zero():
    m = MorseGeneral(25.0, 50.0, 2.0)
    assert abs(eval_potential(m, 50.0 / m.alpha)) < 1e-10


def test_morse_nonpt_point_value():
    m = MorseNonPT(9.0, 2.0)
    assert eval_potential(m, 0.0) == pytest.approx(-9.0 - 18.0j)


def test_morse_pt1_point_values():
    m = MorsePT1(16.0, 12.0)
    assert eval_potential(m, 0.0) == pytest.approx(4.0 + 0.0j)
    # u = e^{-i pi/2} = -i, u^2 = -1
    assert eval_potential(m, math.pi / 2.0) == pytest.approx(-16.0 + 12.0j)


def test_morse_pt2_point_value():
    m = MorsePT2(2.0, 3.0, 1.0)
    assert eval_potential(m, 0.0) == pytest.approx(-7.0 + 0.0j)


def test_poschl_teller_point_values():
    m = PoschlTeller(6.0, 1.0, 1.0)
    assert eval_potential(m, 0.0) == pytest.approx(-6.0)
    pt = PoschlTellerPT(4.0, 0.5, 1.0)
    assert eval_potential(pt, 0.0) == pytest.approx(-16.0 / 2.25)


def test_eval_is_vectorized():
    m = MorseGeneral(25.0, 50.0, 1.0)
    x = np.linspace(-1.0, 4.0, 7)
    v = eval_potential(m, x)
    assert v.shape == x.shape
    assert v[2] == pytest.approx(eval_potential(m, x[2]))


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_zero_omega_rejected():
    with pytest.raises(ZeroOmegaError):
        MorsePT2(0.0, 1.0, 1.0)


def test_nonfinite_parameters_rejected():
    with pytest.raises(InvalidModelError):
        MorseGeneral(float("nan"), 50.0)
    with pytest.raises(InvalidModelError):
        MorseGeneral(25.0, complex("inf"))
    with pytest.raises(InvalidModelError):
        PoschlTeller(float("inf"), 1.0)


def test_rate_must_be_positive_real():
    with pytest.raises(InvalidModelError):
        MorseGeneral(25.0, 50.0, 0.0)
    with pytest.raises(InvalidModelError):
        MorseGeneral(25.0, 50.0, -1.0)
    with pytest.raises(InvalidModelError):
        PoschlTeller(6.0, 1.0, 1.0 + 1.0j)


def test_real_only_slots_reject_complex():
    with pytest.raises(InvalidModelError):
        MorseNonPT(9.0 + 1.0j, 2.0)
    with pytest.raises(InvalidModelError):
        MorsePT2(2.0, 3.0 + 0.5j, 1.0)
    with pytest.raises(InvalidModelError):
        PoschlTellerPT(4.0, 0.5j, 1.0)


# ---------------------------------------------------------------------------
# poles of the rational families
# ---------------------------------------------------------------------------

def test_real_negative_q_pole_detected():
    m = PoschlTeller(4.0, -0.5, 1.0)
    x_pole = math.log(0.5) / 2.0  # about -0.3466
    with pytest.raises(PoleOnDomainError):
        ensure_no_pole(m, -1.0, 1.0)
    # same model is fine on a domain that misses the pole
    ensure_no_pole(m, 0.0, 10.0)
    assert -1.0 < x_pole < 1.0


def test_positive_or_complex_q_has_no_real_pole():
    ensure_no_pole(PoschlTeller(4.0, 0.5, 1.0), -50.0, 50.0)
    ensure_no_pole(PoschlTeller(4.0, 1.0j, 1.0), -50.0, 50.0)


def test_unit_modulus_q_poles_in_rate_complexified_well():
    with pytest.raises(PoleOnDomainError):
        ensure_no_pole(PoschlTellerPT(4.0, 1.0, 1.0), -10.0, 10.0)
    with pytest.raises(PoleOnDomainError):
        ensure_no_pole(PoschlTellerPT(4.0, -1.0, 1.0), -10.0, 10.0)  # pole at x = 0
    # q = +1 poles sit at (2k+1) pi / 2; [0.1, 1.0] misses them all
    ensure_no_pole(PoschlTellerPT(4.0, 1.0, 1.0), 0.1, 1.0)
    ensure_no_pole(PoschlTellerPT(4.0, 0.5, 1.0), -50.0, 50.0)


def test_evaluate_raises_when_sampled_on_pole():
    m = PoschlTeller(4.0, -1.0, 1.0)  # denominator zero at x = 0
    with pytest.raises(PoleOnDomainError):
        eval_potential(m, 0.0)


# ---------------------------------------------------------------------------
# symmetry classification
# ---------------------------------------------------------------------------

GRID = symmetric_grid(6.0, 241)


def test_classify_hermitian_instances():
    assert classify_symmetry(MorseGeneral(25.0, 50.0, 1.0), GRID) is SymmetryClass.HERMITIAN
    assert classify_symmetry(PoschlTeller(6.0, 1.0, 1.0), GRID) is SymmetryClass.HERMITIAN


def test_classify_pt_symmetric_instances():
    assert classify_symmetry(MorsePT1(16.0, 12.0), GRID) is SymmetryClass.PT_SYMMETRIC
    assert classify_symmetry(MorsePT2(2.0, 3.0, 1.0), GRID) is SymmetryClass.PT_SYMMETRIC
    assert classify_symmetry(PoschlTellerPT(4.0, 0.5, 1.0), GRID) is SymmetryClass.PT_SYMMETRIC


def test_classify_non_pt_instances():
    assert classify_symmetry(MorseNonPT(9.0, 2.0), GRID) is SymmetryClass.NON_PT_NON_HERMITIAN
    # complex coefficient breaks both reality and PT symmetry
    assert classify_symmetry(MorseGeneral(25.0 + 5.0j, 50.0, 1.0), GRID) \
        is SymmetryClass.NON_PT_NON_HERMITIAN
    assert classify_symmetry(MorsePT1(16.0 + 4.0j, 12.0), GRID) \
        is SymmetryClass.NON_PT_NON_HERMITIAN


def test_classify_hermitian_takes_precedence():
    # real-valued but spatially asymmetric: the reality test must win before
    # any reflection comparison is attempted
    m = MorseGeneral(25.0, 50.0, 1.0)
    v = eval_potential(m, symmetric_grid(3.0, 101).points())
    assert np.max(np.abs(v - v[::-1])) > 1.0  # genuinely asymmetric
    assert classify_symmetry(m, symmetric_grid(3.0, 101)) is SymmetryClass.HERMITIAN


def test_classification_stable_under_refinement():
    models = [
        MorseGeneral(25.0, 50.0, 1.0),
        MorseNonPT(9.0, 2.0),
        MorsePT2(2.0, 3.0, 1.0),
        PoschlTellerPT(4.0, 0.5, 1.0),
    ]
    for m in models:
        assert classify_symmetry(m, GRID) is classify_symmetry(m, GRID.refined())


def test_structurally_hermitian():
    assert MorseGeneral(25.0, 50.0, 1.0).structurally_hermitian()
    assert PoschlTeller(6.0, 1.0, 1.0).structurally_hermitian()
    assert not MorseGeneral(25.0 + 1.0j, 50.0, 1.0).structurally_hermitian()
    assert not PoschlTeller(6.0j, 1.0j, 1.0).structurally_hermitian()
    assert not MorseNonPT(9.0, 2.0).structurally_hermitian()
    assert not MorsePT1(16.0, 12.0).structurally_hermitian()
    assert not MorsePT2(2.0, 3.0, 1.0).structurally_hermitian()
    assert not PoschlTellerPT(4.0, 0.5, 1.0).structurally_hermitian()


# ---------------------------------------------------------------------------
# reality condition and the compact imaginary-parameter form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("v0,q,expected", [
    (2.0j, 0.7j, True),          # both pure imaginary
    (3.0 + 1.5j, 2.0 + 1.0j, True),   # proportional components
    (1.0 + 1.0j, 2.0 + 1.0j, False),
    (6.0, 1.0, True),            # both real
])
def test_reality_condition(v0, q, expected):
    assert reality_condition(v0, q) is expected


def test_imag_form_matches_direct_evaluation():
    v0_im, q_im, alpha = 2.0, 0.7, 1.0
    model = PoschlTeller(1j * v0_im, 1j * q_im, alpha)
    x = np.linspace(-3.0, 3.0, 101)
    direct = eval_potential(model, x)
    compact = poschl_teller_imag_form(v0_im, q_im, alpha, x)
    assert np.max(np.abs(direct - compact)) < 1e-12
    # single worked point: V0 = i, q = i at x = 0 gives -4i/(1+i)^2 = -2
    assert poschl_teller_imag_form(1.0, 1.0, 1.0, 0.0) == pytest.approx(-2.0 + 0.0j)
    assert eval_potential(PoschlTeller(1j, 1j, 1.0), 0.0) == pytest.approx(-2.0 + 0.0j)


# ---------------------------------------------------------------------------
# derived parameters
# ---------------------------------------------------------------------------

def test_lam_values():
    assert MorseGeneral(25.0, 50.0, 1.0).lam(DEFAULT_UNITS) == pytest.approx(5.0)
    # rate rescaling: lam^2 = 2m v1 / (alpha hbar)^2
    assert MorseGeneral(25.0, 50.0, 2.0).lam(DEFAULT_UNITS) == pytest.approx(2.5)
    assert MorseNonPT(9.0, 2.0).lam(DEFAULT_UNITS) == pytest.approx(3.0)
    assert MorsePT1(16.0, 12.0).lam(DEFAULT_UNITS) == pytest.approx(4.0)
    # mass enters through 2m/hbar^2
    assert MorseGeneral(25.0, 50.0, 1.0).lam(UnitSystem(1.0, 1.0, 1.0)) \
        == pytest.approx(math.sqrt(50.0))


def test_lam_unsupported_families():
    with pytest.raises(UnsupportedFamilyError):
        MorsePT2(2.0, 3.0, 1.0).lam(DEFAULT_UNITS)
    with pytest.raises(UnsupportedFamilyError):
        PoschlTeller(6.0, 1.0, 1.0).lam(DEFAULT_UNITS)


def test_exponential_coefficients():
    assert MorseGeneral(25.0, 50.0, 2.0).exponential_coefficients() \
        == (25.0 + 0j, -50.0 + 0j, 2.0 + 0j)
    assert MorseNonPT(9.0, 2.0).exponential_coefficients() == (-9.0 + 0j, -18.0j, 1.0 + 0j)
    assert MorsePT1(16.0, 12.0).exponential_coefficients() == (16.0 + 0j, -12.0 + 0j, 1.0j)
    assert MorsePT2(2.0, 3.0, 1.0).exponential_coefficients() == (-4.0 + 0j, -3.0 + 0j, 1.0j)
    with pytest.raises(UnsupportedFamilyError):
        PoschlTeller(6.0, 1.0, 1.0).exponential_coefficients()
