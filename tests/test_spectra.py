import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from susyhier import (
    DEFAULT_UNITS,
    EnergyRecord,
    Grid,
    InvalidModelError,
    MorseGeneral,
    MorseNonPT,
    MorsePT1,
    MorsePT2,
    NotNormalizableError,
    PoleOnDomainError,
    PoschlTeller,
    PoschlTellerPT,
    QuantumNumbers,
    SpectrumFormula,
    UnitSystem,
    ZeroOmegaError,
    energy_morse_complex,
    energy_morse_general,
    energy_morse_shifted,
    energy_poschl_teller,
    energy_record,
    groundstate_wavefunction,
    selfconsistent_record,
    spectrum_records,
)

ATOMIC = UnitSystem(1.0, 1.0, 1.0)  # beta = 1


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
    assert selfconsistent_record(4.5, 1.0, 4, 0).admissible
    assert not selfconsistent_record(4.5, 1.0, 5, 0).admissible


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
    recs = spectrum_records(MorseGeneral(25.0, 50.0, 1.0), 2, 1, self_consistent=True)
    assert all(r.formula is SpectrumFormula.SELF_CONSISTENT for r in recs)
    assert recs[0].energy == pytest.approx(-20.25)
    by_nl = {(r.nq.n, r.nq.l): r.energy for r in recs}
    assert by_nl[(0, 1)] == pytest.approx(-12.25)
    assert by_nl[(2, 0)] == by_nl[(1, 1)]  # degeneracy in n + l


def test_selfconsistent_record_direct():
    r = selfconsistent_record(4.5, 1.0, 3, 1)
    assert r.energy == pytest.approx(-0.25)
    assert r.admissible
    assert not selfconsistent_record(4.5, 1.0, 5, 0).admissible


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
