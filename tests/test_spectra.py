import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import trapezoid

from susyhier import (
    DEFAULT_UNITS,
    EnergyRecord,
    Grid,
    InvalidModelError,
    Mode,
    MorseGeneral,
    MorseNonPT,
    MorsePT1,
    MorsePT2,
    NotNormalizableError,
    PoleOnDomainError,
    PoschlTeller,
    PoschlTellerPT,
    QuantumNumbers,
    SelfConsistentSolution,
    SpectrumFormula,
    UnitSystem,
    ZeroOmegaError,
    energy_morse_complex,
    energy_morse_general,
    energy_morse_shifted,
    energy_poschl_teller,
    energy_record,
    groundstate_wavefunction,
    ladder,
    spectrum_records,
)

ATOMIC = UnitSystem(1.0, 1.0, 1.0)  # beta = 1
MATCHED = SelfConsistentSolution(b=5.0, a=4.5, rate=1.0)  # matched to MorseGeneral(25, 50)


# ---------------------------------------------------------------------------
# level formulas
# ---------------------------------------------------------------------------

def test_general_morse_levels():
    assert energy_morse_general(5.0, 1.0, 0, 0) == pytest.approx(-20.25)
    assert energy_morse_general(5.0, 1.0, 1, 0) == pytest.approx(-16.0)
    assert energy_morse_general(5.0, 1.0, 0, 1) == pytest.approx(-12.25)
    assert energy_morse_general(5.0, 1.0, 9, 0) == 0.0  # edge of the well
    assert energy_morse_general(5.0, 2.0, 0, 0) == pytest.approx(-90.25)


def test_complex_morse_levels():
    assert energy_morse_complex(3.0, 0, 0) == pytest.approx(-6.25)
    assert energy_morse_complex(0.5, 0, 0) == 0.0  # lam = (n + 2l + 1)/2
    assert energy_morse_complex(4.0, 0, 0) == pytest.approx(-12.25)


def test_shifted_morse_levels():
    assert energy_morse_shifted(1.0, 2.0, 0, 0) == pytest.approx(-1.5625)
    with pytest.raises(ZeroOmegaError):
        energy_morse_shifted(1.0, 0.0, 0, 0)


def test_rational_well_levels():
    assert energy_poschl_teller(1.0, ATOMIC, 0, 0) == pytest.approx(-0.125)
    # default units have beta = 2, where the n = l = 0 bracket vanishes
    assert energy_poschl_teller(1.0, UnitSystem(), 0, 0) == 0.0
    # energy scales with q^2
    assert energy_poschl_teller(3.0, ATOMIC, 0, 0) == pytest.approx(-1.125)


def test_degeneracy_along_n_plus_shift():
    # all four formulas depend on (n, l) through a single combination
    assert energy_morse_general(5.0, 1.0, 2, 0) == energy_morse_general(5.0, 1.0, 0, 1)
    assert energy_morse_complex(4.0, 2, 0) == energy_morse_complex(4.0, 0, 1)
    assert energy_morse_shifted(3.0, 2.0, 2, 0) == energy_morse_shifted(3.0, 2.0, 0, 1)
    assert energy_poschl_teller(1.0, ATOMIC, 1, 0) == energy_poschl_teller(1.0, ATOMIC, 0, 1)


# ---------------------------------------------------------------------------
# each family's level against its printed formula
# ---------------------------------------------------------------------------

def _complex(lo: float, hi: float):
    return st.builds(complex, st.floats(lo, hi), st.floats(lo, hi))


# nonzero leading coefficients, so that every exponential well has a self-consistent ladder
_NONZERO = st.floats(0.25, 30.0) | st.floats(-30.0, -0.25)
_FAMILIES = st.one_of(
    st.builds(MorseGeneral, _complex(-30.0, 30.0).filter(lambda z: z != 0), _complex(-60.0, 60.0),
              st.floats(0.1, 4.0)),
    st.builds(MorseNonPT, _NONZERO, st.floats(-10.0, 10.0)),
    st.builds(MorsePT1, _complex(-30.0, 30.0).filter(lambda z: z != 0), _complex(-30.0, 30.0)),
    st.builds(MorsePT2, _NONZERO, st.floats(-60.0, 60.0), st.floats(0.1, 4.0)),
    st.builds(PoschlTeller, _complex(-30.0, 30.0), _complex(-5.0, 5.0), st.floats(0.1, 4.0)),
    st.builds(PoschlTellerPT, st.floats(-30.0, 30.0), st.floats(-5.0, 5.0), st.floats(0.1, 4.0)),
)
# beta = 2 / (M (M - 1)) puts a rational bracket's step from M - 1 to M on a tie
_TIE_UNITS = st.builds(lambda m: UnitSystem(1.0, m * (m - 1) / 2.0, 1.0), st.integers(2, 45))
_ANY_UNITS = (st.just(DEFAULT_UNITS) | _TIE_UNITS
              | st.builds(UnitSystem, st.floats(0.1, 10.0), st.floats(0.1, 10.0),
                          st.floats(0.1, 10.0)))


def _printed(model, n, l, units):
    """The family's printed level and the admissibility rule it was stated with:
    the bracket's real part is positive, or (rational wells) the bracket's
    modulus falls at every step from 0 to n."""
    if isinstance(model, MorseGeneral):
        lam, q = model._lam_q(units)
        return (energy_morse_general(lam, q, n, l),
                (lam * q).real - (2 * l + n + 1) / 2.0 > 0.0)
    if isinstance(model, (MorseNonPT, MorsePT1)):
        lam = model.lam(units)
        return energy_morse_complex(lam, n, l), lam.real - (n + 2 * l + 1) / 2.0 > 0.0
    if isinstance(model, MorsePT2):
        return (energy_morse_shifted(model.d, model.omega, n, l),
                2 * l + n + 1 + model.d / (2.0 * model.omega) > 0.0)
    brackets = [abs(1.0 / (m + l + 1) - (m + l + 1) * units.beta / 2.0) for m in range(n + 1)]
    return (energy_poschl_teller(model.q, units, n, l),
            all(cur < prev for prev, cur in zip(brackets, brackets[1:])))


@settings(max_examples=300, deadline=None)
@given(model=_FAMILIES, units=_ANY_UNITS)
def test_level_is_the_printed_formula(model, units):
    """Every literal level has the printed formula's bits and the printed rule's flag."""
    for l in range(5):
        for n in range(41):
            e, ok = model.level(n, l, units)
            printed_e, printed_ok = _printed(model, n, l, units)
            assert (repr(e), ok) == (repr(printed_e), printed_ok)


@settings(max_examples=300, deadline=None)
@given(model=_FAMILIES, units=_ANY_UNITS)
def test_level_degeneracy_along_the_ladder(model, units):
    """Level n of depth l is a ground level further down, bit for bit: depth
    l + n/2 on the literal exponential ladders and depth l + n on the
    self-consistent ones, flag included, and depth l + n on the rational
    ladders, energy only (a rational level's flag depends on the steps
    before it)."""
    # (ladder, levels n falls by per depth, how much of (E, flag) must agree)
    if isinstance(model, (PoschlTeller, PoschlTellerPT)):
        cases = [(model, 1, 1)]
    else:
        cases = [(model, 2, 2), (ladder(model, Mode.SELF_CONSISTENT, units), 1, 2)]
    for lad, step, keep in cases:
        for l in range(4):
            for n in range(step, 30):
                deeper = lad.level(n - step, l + 1, units)
                assert repr(lad.level(n, l, units)[:keep]) == repr(deeper[:keep])


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def admissible(model, n, l=0, units=DEFAULT_UNITS):
    return model.level(n, l, units)[1]


def test_general_morse_admissibility_window():
    # lam = sqrt(v1) = 5 and q = v2 / v1 = 1 in the default units
    ok = [admissible(MorseGeneral(25.0, 25.0), n) for n in range(11)]
    assert ok == [True] * 9 + [False, False]  # n <= 8 only


def test_no_bound_states_for_shallow_well():
    assert not admissible(MorseGeneral(1.0, 0.5), 0)  # lam = 1, q = 0.5


def test_admissibility_uses_real_part():
    model = MorseGeneral(25.0, 25.0 + 250.0j)  # lam = 5, q = 1 + 10i
    assert admissible(model, 8)
    assert not admissible(model, 9)


def test_rational_well_monotone_prefix_rule():
    # beta = 1: the n = 1 level mirrors n = 0 exactly, so it is cut
    assert energy_poschl_teller(1.0, ATOMIC, 1, 0) == energy_poschl_teller(1.0, ATOMIC, 0, 0)
    well = PoschlTeller(6.0, 1.0)  # admissibility depends on the units alone
    assert admissible(well, 0, units=ATOMIC)
    assert not admissible(well, 1, units=ATOMIC)
    assert not admissible(well, 2, units=ATOMIC)
    # beta = 0.1: |bracket| decreases up to n = 3, then mirrors at n = 4
    deep = UnitSystem(1.0, 10.0, 1.0)
    ok = [admissible(well, n, units=deep) for n in range(6)]
    assert ok == [True, True, True, True, False, False]


def test_selfconsistent_admissibility():
    assert energy_record(MATCHED, 4, 0).admissible
    assert not energy_record(MATCHED, 5, 0).admissible


def test_admissible_hermitian_ladder_is_increasing_and_negative():
    recs = [energy_record(MorseGeneral(25.0, 25.0, 1.0), n, 0) for n in range(12)]
    energies = [r.energy.real for r in recs if r.admissible]
    assert len(energies) == 9
    assert all(e < 0.0 for e in energies)
    assert all(b > a for a, b in zip(energies, energies[1:]))
    assert all(r.energy.imag == 0.0 for r in recs)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_formula_mapping():
    assert MorseGeneral(1.0, 1.0).formula is SpectrumFormula.MORSE_GENERAL
    assert MorseNonPT(9.0, 2.0).formula is SpectrumFormula.MORSE_COMPLEX
    assert MorsePT1(16.0, 12.0).formula is SpectrumFormula.MORSE_COMPLEX
    assert MorsePT2(2.0, 3.0).formula is SpectrumFormula.MORSE_SHIFTED
    assert PoschlTeller(6.0, 1.0).formula is SpectrumFormula.POSCHL_TELLER
    assert PoschlTellerPT(4.0, 0.5).formula is SpectrumFormula.POSCHL_TELLER


def test_energy_record_values():
    r = energy_record(MorseGeneral(25.0, 25.0, 1.0), 0, 0)
    assert r == EnergyRecord(QuantumNumbers(0, 0), -20.25 + 0j,
                             SpectrumFormula.MORSE_GENERAL, True)
    # coefficient ratio 2 doubles lam q
    assert energy_record(MorseGeneral(25.0, 50.0, 1.0), 0, 0).energy == pytest.approx(-90.25)
    r = energy_record(MorsePT1(16.0, 12.0), 0, 0)
    assert r.energy == pytest.approx(-12.25)
    assert r.admissible
    assert not energy_record(MorsePT1(16.0, 12.0), 7, 0).admissible


def test_quantum_numbers_validation():
    with pytest.raises(InvalidModelError):
        QuantumNumbers(-1, 0)
    with pytest.raises(InvalidModelError):
        energy_record(MorseGeneral(25.0, 25.0, 1.0), 0, -2)


def test_spectrum_records_ordering():
    recs = spectrum_records(MorseGeneral(25.0, 25.0, 1.0), 2, 1)
    assert [(r.nq.l, r.nq.n) for r in recs] == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_spectrum_records_selfconsistent():
    recs = spectrum_records(MorseGeneral(25.0, 50.0, 1.0), 2, 1, mode=Mode.SELF_CONSISTENT)
    assert all(r.formula is SpectrumFormula.SELF_CONSISTENT for r in recs)
    assert recs[0].energy == pytest.approx(-20.25)
    by_nl = {(r.nq.n, r.nq.l): r.energy for r in recs}
    assert by_nl[(0, 1)] == pytest.approx(-12.25)
    assert by_nl[(2, 0)] == by_nl[(1, 1)]  # degeneracy in n + l


def test_selfconsistent_record_direct():
    r = energy_record(MATCHED, 3, 1)
    assert r.energy == pytest.approx(-0.25)
    assert r.admissible
    assert not energy_record(MATCHED, 5, 0).admissible


def test_shifted_family_degenerate_records():
    recs = spectrum_records(MorsePT2(2.0, 3.0, 1.0), 2, 1)
    by_nl = {(r.nq.n, r.nq.l): r.energy for r in recs}
    assert by_nl[(2, 0)] == by_nl[(0, 1)] == pytest.approx(-14.0625)


# ---------------------------------------------------------------------------
# ground-state wavefunctions
# ---------------------------------------------------------------------------

def test_groundstate_normalization_and_shape():
    grid = Grid(-3.0, 30.0, 3301)  # h = 0.01, so x = 0 and x = 1 are samples
    ws = groundstate_wavefunction(MorseGeneral(25.0, 25.0, 1.0), 0, grid)
    assert ws.normalized
    x = grid.points()
    quad = trapezoid(np.abs(ws.values) ** 2, x)
    assert quad == pytest.approx(1.0, abs=1e-10)
    # closed-form ratio between two samples
    ratio = ws.values[400] / ws.values[300]
    assert ratio == pytest.approx(math.exp(-5.0 * (math.exp(-1.0) - 1.0) - 4.5), rel=1e-9)
    # the density peaks where (ln psi)' = 0: x = ln(10/9)
    peak = x[int(np.argmax(np.abs(ws.values)))]
    assert abs(peak - math.log(10.0 / 9.0)) <= grid.h


def test_groundstate_deeper_level_peak_shifts():
    grid = Grid(-3.0, 30.0, 3301)
    ws = groundstate_wavefunction(MorseGeneral(25.0, 25.0, 1.0), 1, grid)
    x = grid.points()
    peak = x[int(np.argmax(np.abs(ws.values)))]
    assert abs(peak - math.log(5.0 / 3.5)) <= grid.h


def test_groundstate_complex_instances_left_unnormalized():
    grid = Grid(-3.0, 12.0, 501)
    ws = groundstate_wavefunction(MorseNonPT(9.0, 2.0), 0, grid)
    assert not ws.normalized
    assert ws.norm_constant == 1.0
    # |psi| = exp(-2.5 x) for lam = 3, l = 0: the imaginary twist is unimodular
    x = grid.points()
    assert np.allclose(np.abs(ws.values), np.exp(-2.5 * x), rtol=1e-10)


def test_groundstate_rational_family_normalizes():
    ws = groundstate_wavefunction(PoschlTeller(0.25, 1.0, 1.0), 0, Grid(-12.0, 12.0, 3001),
                                  units=ATOMIC)
    assert ws.normalized
    quad = trapezoid(np.abs(ws.values) ** 2, ws.grid.points())
    assert quad == pytest.approx(1.0, abs=1e-10)


def test_groundstate_rejects_inadmissible_level():
    with pytest.raises(NotNormalizableError):
        groundstate_wavefunction(MorseGeneral(1.0, 0.5, 1.0), 0, Grid(-3.0, 30.0, 100))


def test_groundstate_overflow_guard():
    with pytest.raises(NotNormalizableError):
        groundstate_wavefunction(PoschlTeller(0.25, 1.0, 1.0), 0, Grid(-800.0, 10.0, 64),
                                 units=ATOMIC)


def test_groundstate_pole_check():
    with pytest.raises(PoleOnDomainError):
        groundstate_wavefunction(PoschlTeller(4.0, -0.5, 1.0), 0, Grid(-2.0, 2.0, 101))
