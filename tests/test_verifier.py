import itertools
import math
import sys
import threading
import types
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
import scipy.linalg.lapack
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from susyhier import (
    EnergyRecord,
    Grid,
    InvalidModelError,
    Mode,
    MorseGeneral,
    MorsePT1,
    MorsePT2,
    NumericSpectrum,
    PoschlTeller,
    QuantumNumbers,
    ScanAxis,
    SpectrumFormula,
    Verdict,
    bound_states,
    build_hamiltonian,
    conjugate_pairing_ok,
    converged_spectrum,
    eigen_spectrum,
    load_config,
    reality_scan,
    spectrum_records,
    symmetric_grid,
    verify,
)
from susyhier import verifier as verifier_mod

MORSE = MorseGeneral(25.0, 50.0, 1.0)
MORSE_GRID = Grid(-3.0, 30.0, 4000)
MORSE_LEVELS = [-((4.5 - n) ** 2) for n in range(5)]


class _Flat:
    """Zero potential: the FD eigenvalues of the particle in a box are exact."""

    def evaluate(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class _FlatComplex:
    """Zero potential plus a negligible imaginary shift to force the dense path."""

    def evaluate(self, x):
        return np.full_like(np.asarray(x, dtype=float), 1e-18j, dtype=complex)


def box_fd_eigenvalues(grid: Grid, k: int) -> np.ndarray:
    """Closed-form spectrum of the discrete Dirichlet Laplacian (kinetic = 1)."""
    m = grid.n_points - 2
    j = np.arange(1, k + 1)
    return (2.0 / grid.h**2) * (1.0 - np.cos(j * np.pi / (m + 1)))


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_build_hamiltonian_structure():
    grid = Grid(0.0, 1.0, 21)
    ham = build_hamiltonian(MORSE, grid)
    assert ham.dimension == 19
    t = 1.0 / grid.h**2
    assert ham.off_diagonal == pytest.approx(-t)
    x_interior = grid.points()[1:-1]
    expected = 2.0 * t + (25.0 * np.exp(-2 * x_interior) - 50.0 * np.exp(-x_interior))
    assert np.allclose(ham.diagonal, expected, rtol=1e-12)
    assert ham.is_real
    d = ham.dense()
    assert d.shape == (19, 19)
    assert d[3, 4] == d[4, 3] == pytest.approx(-t)


def test_box_spectrum_matches_discrete_closed_form():
    grid = Grid(0.0, math.pi, 201)
    spec = eigen_spectrum(build_hamiltonian(_Flat(), grid), 5)
    exact = box_fd_eigenvalues(grid, 5)
    assert np.allclose(spec.eigenvalues.real, exact, rtol=1e-10)
    assert np.all(spec.eigenvalues.imag == 0.0)


def test_real_and_complex_paths_agree():
    grid = Grid(0.0, math.pi, 201)
    real_spec = eigen_spectrum(build_hamiltonian(_Flat(), grid), 5)
    ham = build_hamiltonian(_FlatComplex(), grid)
    assert not ham.is_real
    dense_spec = eigen_spectrum(ham, 5)
    assert np.allclose(dense_spec.eigenvalues.real, real_spec.eigenvalues.real, rtol=1e-10)
    assert np.max(np.abs(dense_spec.eigenvalues.imag)) < 1e-12


def test_eigen_spectrum_validation_and_clamping():
    grid = Grid(0.0, 1.0, 21)
    ham = build_hamiltonian(_Flat(), grid)
    with pytest.raises(InvalidModelError):
        eigen_spectrum(ham, 0)
    spec = eigen_spectrum(ham, 100)  # clamps to the 19 available
    assert len(spec.eigenvalues) == 19


def test_complex_eigenvalues_sorted_by_real_then_imag():
    grid = symmetric_grid(8.0, 301)
    ham = build_hamiltonian(MorsePT2(2.0, 3.0, 1.0), grid)
    vals = eigen_spectrum(ham, ham.dimension).eigenvalues
    tol = verifier_mod.CONJUGATE_TIE_RTOL
    tied = {i for i, (a, b) in enumerate(zip(vals, vals[1:]))
            if a.imag != 0 and abs(b - np.conj(a)) <= tol * max(1.0, abs(a))}
    # (Re, Im) ascending, except that a conjugate pair whose real parts tie to
    # roundoff comes Im < 0 first
    assert tied and all(vals[i].imag < 0 for i in tied)
    keys = [(e.real, e.imag) for e in vals]
    assert all(keys[i] <= keys[i + 1] for i in range(len(keys) - 1) if i not in tied)


# ---------------------------------------------------------------------------
# convergence certification
# ---------------------------------------------------------------------------

def test_converged_spectrum_on_deep_well():
    spec = converged_spectrum(MORSE, MORSE_GRID, 5)
    assert spec.converged
    assert 1e-5 < spec.richardson_delta < 5e-4
    err = np.abs(spec.eigenvalues - np.array(MORSE_LEVELS))
    assert err.max() < 5e-8  # extrapolation beats the h^2 truncation by far
    assert spec.grid.n_points == 2 * MORSE_GRID.n_points - 1


def test_converged_spectrum_flags_coarse_grid():
    spec = converged_spectrum(MORSE, Grid(-3.0, 30.0, 32), 5)
    assert not spec.converged
    assert spec.richardson_delta > 1.0


# ---------------------------------------------------------------------------
# bound-state filtering and pairing
# ---------------------------------------------------------------------------

def test_bound_states_filter():
    # converged_spectrum computes no eigenvectors: take the fine grid's, from a
    # real-well solve whose values equal the values-only solve's bit for bit
    spec = converged_spectrum(MORSE, MORSE_GRID, 10)
    fine = eigen_spectrum(build_hamiltonian(MORSE, spec.grid), 10)
    spec = replace(spec, eigenvectors=fine.eigenvectors)
    bound = bound_states(spec)
    assert len(bound.eigenvalues) == 5  # the well holds exactly five levels
    assert np.allclose(bound.eigenvalues.real, MORSE_LEVELS, atol=1e-6)
    assert bound.eigenvectors.shape[1] == 5
    # positive (box-continuum) eigenvalues were present before filtering
    assert np.any(spec.eigenvalues.real > 0.0)


def test_bound_states_needs_eigenvectors():
    spec = NumericSpectrum(eigenvalues=np.array([-1.0 + 0j]), eigenvectors=None,
                           grid=Grid(0.0, 1.0, 21), converged=True, richardson_delta=0.0)
    with pytest.raises(InvalidModelError):
        bound_states(spec)


def _bound_columns(eigenvalues, eigenvectors):
    """The columns bound_states keeps, by a loop over the eigenpairs: the
    reference for its array form."""
    keep = []
    for j, e in enumerate(eigenvalues):
        if e.real >= verifier_mod.CONTINUUM_EDGE:
            continue
        v = eigenvectors[:, j]
        if max(abs(v[0]), abs(v[-1])) < verifier_mod.EDGE_DECAY_RTOL * np.abs(v).max():
            keep.append(j)
    return keep


# parts at, around and far from the decay threshold, with NaN and inf
_PARTS = st.sampled_from([0.0, 1e-7, 1e-6, 0.5, 1.0, -2.0, math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 5), data=st.data())
def test_bound_states_keeps_the_loops_columns(rows, data):
    cols = data.draw(st.integers(0, 5))
    values = data.draw(st.lists(st.builds(complex, _PARTS, _PARTS), min_size=cols,
                                max_size=cols))
    entries = data.draw(st.lists(st.builds(complex, _PARTS, _PARTS), min_size=rows * cols,
                                 max_size=rows * cols))
    vecs = np.array(entries, dtype=complex).reshape(rows, cols)
    vals = np.array(values, dtype=complex)
    # the grid is not read
    kept = bound_states(NumericSpectrum(eigenvalues=vals, eigenvectors=vecs,
                                        grid=Grid(0.0, 1.0, 21)))
    keep = _bound_columns(vals, vecs)
    assert np.array_equal(kept.eigenvalues, vals[keep], equal_nan=True)
    assert np.array_equal(kept.eigenvectors, vecs[:, keep], equal_nan=True)


def test_conjugate_pairing():
    assert conjugate_pairing_ok([])
    assert conjugate_pairing_ok([-20.0, -16.0])
    assert conjugate_pairing_ok([1 + 2j, 1 - 2j, -3.0])
    assert not conjugate_pairing_ok([1 + 2j, -3.0])
    assert not conjugate_pairing_ok([1 + 2j, 1 - 2.00001j])
    assert conjugate_pairing_ok([1 + 2j, 1 - 2.00001j], tol=1e-3)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_match():
    records = spectrum_records(MORSE, 4, 0, mode=Mode.SELF_CONSISTENT)
    report = verify(MORSE, records, MORSE_GRID)
    assert report.verdict is Verdict.MATCH
    assert report.converged
    assert len(report.pairs) == 5
    assert not report.unmatched_analytic
    assert all(p.abs_err < 1e-6 for p in report.pairs)
    for p in report.pairs:
        assert p.rel_err == pytest.approx(p.abs_err / abs(p.record.energy))
    # a real well solves only the levels the records index, so none is left over
    assert report.unmatched_numeric == ()
    # pairs follow the (l, n) order of the records
    assert [p.record.nq.n for p in report.pairs] == [0, 1, 2, 3, 4]


def test_gating_verify_solves_the_levels_its_records_index(monkeypatch):
    # level n of H_l is V's level n + l: six records at depths 0 and 1 with
    # n = 0..2 index V's levels 0..3, so four levels are solved on each grid
    asked = []
    solve = verifier_mod.eigen_spectrum

    def counting(ham, k, vectors=True):
        asked.append((ham.dimension, k))
        return solve(ham, k, vectors)
    monkeypatch.setattr(verifier_mod, "eigen_spectrum", counting)
    records = spectrum_records(MORSE, 2, 1, mode=Mode.SELF_CONSISTENT)
    assert max(r.nq.n + r.nq.l for r in records if r.admissible) == 3
    report = verify(MORSE, records, MORSE_GRID)
    assert report.verdict is Verdict.MATCH
    n = MORSE_GRID.n_points - 2
    assert asked == [(n, 4), (2 * n + 1, 4)]
    assert report.unmatched_numeric == ()


def test_diagnostic_verify_lists_admissible_plus_extra_levels():
    model = MorsePT1(16.0, 12.0)
    records = spectrum_records(model, 3, 0, mode=Mode.SELF_CONSISTENT)
    admissible = sum(r.admissible for r in records)
    report = verify(model, records, Grid(-20.0, 20.0, 201))
    assert (len(report.pairs) + len(report.unmatched_numeric)
            == admissible + verifier_mod.VERIFY_EXTRA_LEVELS)


def test_gating_verify_keeps_a_level_that_its_records_skip():
    # records n = 0, 1 and 3 index V's levels 0..3, so the skipped level
    # n = 2 (-6.25) is solved and listed as unmatched; solving as many levels
    # as there are records would pair n = 3 (-2.25) with -6.25
    records = [r for r in spectrum_records(MORSE, 3, 0, mode=Mode.SELF_CONSISTENT)
               if r.nq.n != 2]
    report = verify(MORSE, records, MORSE_GRID)
    assert report.verdict is Verdict.MATCH
    assert [p.record.nq.n for p in report.pairs] == [0, 1, 3]
    assert len(report.unmatched_numeric) == 1
    assert report.unmatched_numeric[0] == pytest.approx(-6.25, abs=1e-6)


def test_verify_is_order_independent():
    records = spectrum_records(MORSE, 4, 0, mode=Mode.SELF_CONSISTENT)
    base = verify(MORSE, records, MORSE_GRID)
    rng = np.random.default_rng(3)
    shuffled = list(records)
    rng.shuffle(shuffled)
    again = verify(MORSE, shuffled, MORSE_GRID)
    assert again.verdict is base.verdict
    assert [(p.record.nq.n, p.numeric) for p in again.pairs] \
        == [(p.record.nq.n, p.numeric) for p in base.pairs]


# levels on a coarse lattice, where exact distance ties and duplicate values
# are common, and levels anywhere in a box
_LATTICE_LEVELS = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
_BOX_LEVELS = st.builds(complex, st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
_LEVELS = st.one_of(_LATTICE_LEVELS, _BOX_LEVELS)


def _record(n, l, energy):
    return EnergyRecord(QuantumNumbers(n, l), complex(energy), SpectrumFormula.SELF_CONSISTENT,
                        True)


def _pairs(records, numeric):
    """The (record, numeric value) pairs of verify's pairing, as a multiset."""
    assignment = verifier_mod._greedy_pairs(records, numeric)
    return Counter((records[i], complex(numeric[j])) for i, j in assignment.items())


@settings(max_examples=300, deadline=None)
@given(records=st.lists(st.builds(_record, st.integers(0, 2), st.integers(0, 1), _LEVELS),
                        max_size=6),
       numeric=st.lists(_LEVELS, max_size=8), data=st.data())
def test_pairing_ignores_the_order_of_levels_and_records(records, numeric, data):
    numeric = np.array(numeric, dtype=complex)
    pairs = _pairs(records, numeric)
    assert sum(pairs.values()) == min(len(records), len(numeric))
    shuffled_records = data.draw(st.permutations(records))
    order = np.array(data.draw(st.permutations(range(len(numeric)))), dtype=int)
    assert _pairs(shuffled_records, numeric[order]) == pairs


@settings(max_examples=300, deadline=None)
@given(energies=st.lists(_BOX_LEVELS, max_size=6), numeric=st.lists(_BOX_LEVELS, max_size=8))
def test_pairing_conjugates_with_the_levels(energies, numeric):
    # in general position every candidate distance differs, and |r - e| is
    # exactly |r* - e*|, so the greedy order and the assignment are the same
    distances = [abs(r - e) for r in energies for e in numeric]
    assume(len(set(distances)) == len(distances))
    records = [_record(n, 0, e) for n, e in enumerate(energies)]
    conjugated = [replace(r, energy=r.energy.conjugate()) for r in records]
    numeric = np.array(numeric, dtype=complex)
    assert (verifier_mod._greedy_pairs(conjugated, numeric.conj())
            == verifier_mod._greedy_pairs(records, numeric))


def test_pairing_tie_break_is_not_conjugation_equivariant():
    # at an exact tie the level with the smaller Im E wins: a record at 0 takes
    # -i from (i, -i), and after the levels are conjugated to (-i, i) it takes
    # -i again, not the conjugate of its first partner
    records = [_record(0, 0, 0.0)]
    assert verifier_mod._greedy_pairs(records, np.array([1j, -1j])) == {0: 1}
    assert verifier_mod._greedy_pairs(records, np.array([-1j, 1j])) == {0: 0}


# the pair that records n = 2 and 3 of morse_pt1 v1 = 28.4743, v2 = 55.2755
# meet on a 601-point grid, with the Im > 0 member moved three ulp in each
# part, as roundoff may leave it: it sorts first and lies nearer the real
# record n = 2
_TIED_LOWER = complex(-14.515395407292425, -10.895075062595616)
_TIED_UPPER = complex(_TIED_LOWER.real + 3 * np.spacing(_TIED_LOWER.real),
                      -_TIED_LOWER.imag + 3 * np.spacing(_TIED_LOWER.imag))


def test_pairing_gives_a_real_record_the_im_negative_member_of_a_tied_pair(monkeypatch):
    records = [_record(2, 0, -14.715905327204107), _record(3, 0, -11.129773769605475)]
    assert abs(records[0].energy - _TIED_UPPER) < abs(records[0].energy - _TIED_LOWER)
    levels = [_TIED_LOWER, _TIED_UPPER, complex(-8.760632064036125, -16.832717446083706)]
    expected = Counter({(records[0], _TIED_LOWER): 1, (records[1], _TIED_UPPER): 1})
    for order in itertools.permutations(levels):
        for recs in (records, records[::-1]):
            assert _pairs(recs, np.array(order)) == expected
    # verify prints each member's own value and error, not the shared one
    spectrum = NumericSpectrum(eigenvalues=np.array(levels), eigenvectors=None,
                               grid=Grid(-20.0, 20.0, 601))
    monkeypatch.setattr(verifier_mod, "converged_spectrum", lambda *args: spectrum)
    report = verify(MorsePT1(28.4743, 55.2755), records, spectrum.grid)
    assert [p.numeric for p in report.pairs] == [_TIED_LOWER, _TIED_UPPER]
    assert [p.abs_err for p in report.pairs] == [abs(r.energy - e) for r, e in
                                                 zip(records, (_TIED_LOWER, _TIED_UPPER))]


_RELATIVE = st.floats(-verifier_mod.CONJUGATE_TIE_RTOL / 20, verifier_mod.CONJUGATE_TIE_RTOL / 20)


@settings(max_examples=300, deadline=None)
@given(re=st.floats(-50.0, 50.0), im=st.floats(0.1, 50.0), energy=st.floats(-60.0, 60.0),
       shifts=st.lists(st.builds(complex, _RELATIVE, _RELATIVE), min_size=2, max_size=2),
       upper_first=st.booleans())
def test_pairing_tie_survives_perturbing_each_member(re, im, energy, shifts, upper_first):
    # each member moves by less than CONJUGATE_TIE_RTOL / 10 of its modulus, so
    # the two stay a conjugate pair, and a real record still takes Im < 0
    lower = complex(re, -im) * (1.0 + shifts[0])
    upper = complex(re, im) * (1.0 + shifts[1])
    numeric = np.array([upper, lower] if upper_first else [lower, upper])
    assert _pairs([_record(0, 0, energy)], numeric) == Counter({(_record(0, 0, energy), lower): 1})


@pytest.mark.parametrize("im", [0.0, 1e-12])
def test_pairing_keeps_close_real_levels_apart(im):
    # two levels 4e-9 apart, real or real to roundoff (Im = +-1e-12), are no
    # conjugate pair: each record takes the level nearer to it, and the order
    # stays ascending
    levels = np.array([complex(1.0, im), complex(1.0 + 4e-9, -im)])
    assert verifier_mod._conjugate_pairs(levels) == []
    assert list(verifier_mod._conjugates_first(levels)) == [0, 1]
    records = [_record(0, 0, 1.0 + 3e-9), _record(1, 0, 1.0 - 1e-9)]
    assert verifier_mod._greedy_pairs(records, levels) == {0: 1, 1: 0}
    assert verifier_mod._greedy_pairs(records, levels[::-1]) == {0: 0, 1: 1}


def test_verify_mismatch_for_wrong_levels():
    records = spectrum_records(MORSE, 4, 0)  # literal formula with lam q = 10
    report = verify(MORSE, records, MORSE_GRID)
    assert report.converged
    assert report.verdict is Verdict.MISMATCH
    assert all(p.abs_err > 30.0 for p in report.pairs)


def test_verify_partial_match():
    good = spectrum_records(MORSE, 2, 0, mode=Mode.SELF_CONSISTENT)
    bogus = [EnergyRecord(QuantumNumbers(3 + i, 0), complex(-100.0 * (i + 1)),
                          SpectrumFormula.SELF_CONSISTENT, True) for i in range(2)]
    report = verify(MORSE, good + bogus, MORSE_GRID)
    assert report.verdict is Verdict.PARTIAL_MATCH
    ok = [p for p in report.pairs if p.abs_err <= report.tol_abs]
    assert len(ok) == 3


def test_verify_rejects_empty_admissible_set():
    shallow = MorseGeneral(1.0, 0.5, 1.0)
    with pytest.raises(InvalidModelError):
        verify(shallow, spectrum_records(shallow, 2, 0), Grid(-3.0, 30.0, 64))


# ---------------------------------------------------------------------------
# reality scan
# ---------------------------------------------------------------------------

SCAN_GRID = Grid(-10.0, 10.0, 257)
SCAN_LATTICE = load_config(str(Path(__file__).parent / "data" / "scan_lattice.ini"))
# the eigenvalue accuracy that reality_scan asks of the targeted solve
SCAN_ACCURACY = SCAN_LATTICE.tol_imag / 100


def test_scan_axis_validation():
    with pytest.raises(InvalidModelError):
        ScanAxis("alpha", "re", 0.0, 1.0, 2)
    with pytest.raises(InvalidModelError):
        ScanAxis("v0", "abs", 0.0, 1.0, 2)
    with pytest.raises(InvalidModelError):
        ScanAxis("v0", "re", 0.0, 1.0, 0)
    assert list(ScanAxis("v0", "re", 1.0, 2.0, 3).values()) == [1.0, 1.5, 2.0]


def test_reality_scan_single_point():
    recs = reality_scan(PoschlTeller(6.0, 1.0, 1.0),
                        ScanAxis("v0", "re", 6.0, 6.0, 1),
                        ScanAxis("q", "im", 0.0, 0.0, 1), SCAN_GRID)
    assert len(recs) == 1
    r = recs[0]
    assert (r.param1, r.param2) == (6.0, 0.0)
    assert r.status == "ok"
    assert r.n_retained >= 1
    assert r.is_real and r.condition_holds


def test_reality_scan_pure_imaginary_lattice():
    # Im(V0) Re(q) = Re(V0) Im(q) holds identically when both are imaginary,
    # and the retained spectrum is real to solver precision
    recs = reality_scan(PoschlTeller(6.0j, 0.5j, 1.0),
                        ScanAxis("v0", "im", 4.0, 6.0, 2),
                        ScanAxis("q", "im", 0.3, 0.6, 2), SCAN_GRID)
    assert len(recs) == 4
    assert all(r.status == "ok" for r in recs)
    assert all(r.condition_holds for r in recs)
    assert all(r.n_retained >= 1 for r in recs)
    assert all(r.is_real for r in recs)
    assert max(r.max_im_e for r in recs) < 1e-10


def test_reality_scan_rejects_two_axes_on_one_component():
    # the second axis would overwrite the first, so the rows would name
    # parameters that no well was built with
    with pytest.raises(InvalidModelError, match="scan axes must differ, both sweep v0 re"):
        reality_scan(PoschlTeller(6.0, 1.0, 1.0), ScanAxis("v0", "re", 6.0, 7.0, 2),
                     ScanAxis("v0", "re", 1.0, 2.0, 2), SCAN_GRID)


def test_reality_scan_lattice_order_and_pole_status():
    recs = reality_scan(PoschlTeller(6.0, 1.0, 1.0),
                        ScanAxis("q", "re", -0.5, 0.5, 2),
                        ScanAxis("v0", "re", 6.0, 7.0, 2), SCAN_GRID)
    assert [(r.param1, r.param2) for r in recs] \
        == [(-0.5, 6.0), (-0.5, 7.0), (0.5, 6.0), (0.5, 7.0)]
    # q = -1/2 puts a denominator zero at x = ln(1/2)/2, inside the domain
    for r in recs[:2]:
        assert r.status == "pole_on_domain"
        assert math.isnan(r.max_im_e)
        assert not r.is_real
    for r in recs[2:]:
        assert r.status == "ok"
        assert r.is_real


# ---------------------------------------------------------------------------
# targeted bound-state solve of the reality scan
# ---------------------------------------------------------------------------

def targeted_bound_levels(ham):
    """The bound levels of the scan's targeted solve, sorted by (Re, Im) as
    the dense solve sorts them; the solve itself returns them in no set order."""
    vals = bound_states(verifier_mod._states_below(ham, SCAN_ACCURACY)).eigenvalues
    return vals[np.lexsort((vals.imag, vals.real))]


def assert_targeted_matches_dense(model, grid):
    ham = build_hamiltonian(model, grid)
    targeted = targeted_bound_levels(ham)
    dense = bound_states(eigen_spectrum(ham, ham.dimension)).eigenvalues
    assert len(targeted) == len(dense)
    if len(dense) == 0:
        return
    scale = float(np.abs(dense).max())
    assert np.allclose(targeted, dense, rtol=0.0, atol=1e-10 * scale)
    max_im_t = float(np.abs(targeted.imag).max())
    max_im_d = float(np.abs(dense.imag).max())
    assert (max_im_t < 1e-6) == (max_im_d < 1e-6)
    assert max_im_t == pytest.approx(max_im_d, rel=1e-10, abs=1e-12 * scale)


@pytest.mark.parametrize("v0", [6.0, 8.0 + 1.5j, 7.0 - 2.0j])
@pytest.mark.parametrize("q", [1.0, 1.0 + 0.4j, 1.0 - 0.4j, 0.6 + 0.9j])
def test_targeted_bound_states_match_dense(v0, q):
    assert_targeted_matches_dense(PoschlTeller(v0, q), SCAN_GRID)


@settings(max_examples=25, deadline=None)
@given(v0_re=st.floats(0.5, 12.0), v0_im=st.floats(-3.0, 3.0),
       q_re=st.floats(0.05, 2.0), q_im=st.floats(-2.0, 2.0))
def test_targeted_bound_states_match_dense_property(v0_re, v0_im, q_re, q_im):
    # Re q > 0 keeps 1 + q e^{-2x} away from zero on the real line
    model = PoschlTeller(complex(v0_re, v0_im), complex(q_re, q_im))
    assert_targeted_matches_dense(model, Grid(-10.0, 10.0, 129))


def test_targeted_solve_grows_k_until_certified(monkeypatch):
    # a deep well keeps more than the first 16 eigenvalues inside the box
    ks = []
    arnoldi = scipy.sparse.linalg.eigs

    def counting(op, k, **kwargs):
        ks.append(k)
        return arnoldi(op, k=k, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", counting)
    assert_targeted_matches_dense(PoschlTeller(800.0 + 1.0j, 1.0 + 0.3j), Grid(-10.0, 10.0, 129))
    assert ks == [8, 16, 32]


@pytest.mark.parametrize("v0", [6.0 + 1.0j, 200.0 + 10.0j])
def test_targeted_solve_matches_dense_at_sixteen_interior_points(v0):
    # the smallest grid a config admits; the deeper well keeps four bound states
    for q in (1.0 + 0.4j, 1.0 - 0.4j):
        assert_targeted_matches_dense(PoschlTeller(v0, q), Grid(-10.0, 10.0, 18))


def test_targeted_solve_falls_back_when_arpack_fails(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
    assert_targeted_matches_dense(PoschlTeller(8.0 + 1.5j, 1.0 + 0.4j), SCAN_GRID)


def test_farthest_value_within_its_error_bound_does_not_certify(monkeypatch):
    # ARPACK leaves each E an error of up to tol |E - sigma|, so a value that
    # only this error could have put outside the circle proves nothing
    ks, moved = [], []
    arnoldi = scipy.sparse.linalg.eigs

    def inside_margin(op, k, tol, **kwargs):
        ks.append(k)
        mu, vecs = arnoldi(op, k=k, tol=tol, **kwargs)
        if len(ks) == 1:
            radius = SCAN_ACCURACY / tol
            far = np.abs(1.0 / mu) > radius
            moved.append(int(far.sum()))
            mu = np.where(far, mu / np.abs(mu) / (radius * (1.0 + tol / 2.0)), mu)
        return mu, vecs

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", inside_margin)
    assert_targeted_matches_dense(PoschlTeller(8.0 + 1.5j, 1.0 + 0.4j), SCAN_GRID)
    assert moved[0] > 0
    assert ks[1] == 2 * ks[0]


@pytest.mark.parametrize("certified_from, dense_fallbacks", [(32, 0), (None, 1)],
                         ids=["certified_at_n_minus_two", "never_certified"])
def test_doubling_reaches_k_of_n_minus_two(monkeypatch, certified_from, dense_fallbacks):
    # N = 34 interior points: k = 8 doubles to 16 and 32 = N - 2, where the Krylov
    # basis of 2k + 1 vectors is capped at N (ARPACK needs k + 1 < ncv <= N);
    # a certificate that fails there too gives up, since k would reach N - 1
    ks, dense_calls = [], []
    arnoldi = scipy.sparse.linalg.eigs
    dense_solve = verifier_mod.eigen_spectrum

    def uncertified_below(op, k, **kwargs):
        ks.append(k)
        if certified_from is None or k < certified_from:
            # every value at sigma + 1e-6, deep inside the circle
            return np.full(k, 1e6, dtype=complex), np.zeros((op.shape[0], k), dtype=complex)
        return arnoldi(op, k=k, **kwargs)

    def counting_dense(ham, k, vectors=True):
        dense_calls.append(k)
        return dense_solve(ham, k, vectors)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", uncertified_below)
    monkeypatch.setattr(verifier_mod, "eigen_spectrum", counting_dense)
    model, grid = PoschlTeller(8.0 + 1.5j, 1.0 + 0.4j), Grid(-10.0, 10.0, 36)
    assert build_hamiltonian(model, grid).dimension == 34
    assert_targeted_matches_dense(model, grid)
    assert ks == [8, 16, 32]
    # the helper's dense reference calls its own import, which is not counted
    assert dense_calls == [34] * dense_fallbacks


@settings(max_examples=20, deadline=None)
@given(v0=st.floats(6.0, 12.5), q_im=st.floats(0.0, 1.08))
def test_targeted_bound_states_within_scan_accuracy_on_scan_lattices(v0, q_im):
    # the ranges that the scan lattices sweep (tests/data/scan_lattice.ini and
    # the benchmark's seeded lattices): Re V0 in [6, 12.5], Im q in [0, 1.08]
    ham = build_hamiltonian(PoschlTeller(v0, complex(1.0, q_im)), SCAN_GRID)
    targeted = targeted_bound_levels(ham)
    # the dense reference runs on one BLAS thread: beside a busy core, a
    # two-thread solve waits for the second thread many times over
    with verifier_mod._one_blas_thread():
        dense = bound_states(eigen_spectrum(ham, ham.dimension)).eigenvalues
    assert len(targeted) == len(dense) > 0
    tol_imag = SCAN_LATTICE.tol_imag
    assert (np.abs(targeted.imag).max() < tol_imag) == (np.abs(dense.imag).max() < tol_imag)
    distance = np.abs(targeted[:, None] - dense[None, :])
    assert distance.min(axis=0).max() <= SCAN_ACCURACY
    assert distance.min(axis=1).max() <= SCAN_ACCURACY


def test_targeted_solve_empty_when_well_is_above_threshold():
    ham = build_hamiltonian(PoschlTeller(-6.0 + 1.0j, 1.0 + 0.2j), SCAN_GRID)
    assert np.all((ham.diagonal + 2.0 * ham.off_diagonal).real >= 0.0)
    spec = verifier_mod._states_below(ham, SCAN_ACCURACY)
    assert spec.eigenvalues.shape == (0,)
    assert spec.eigenvectors.shape == (ham.dimension, 0)


def test_reality_scan_repeats_exactly():
    args = (PoschlTeller(6.0 + 1.0j, 1.0, 1.0),
            ScanAxis("v0", "re", 6.0, 9.0, 3),
            ScanAxis("q", "im", -0.6, 0.6, 3), SCAN_GRID)
    first = reality_scan(*args)
    assert all(r.status == "ok" for r in first)
    assert reality_scan(*args) == first


def test_reality_scan_reports_points_without_bound_states():
    recs = reality_scan(PoschlTeller(5.0, 1.0, 1.0),
                        ScanAxis("v0", "re", 5.0, 5.0, 1),
                        ScanAxis("q", "im", 0.9, 1.08, 4), SCAN_GRID)
    assert len(recs) == 4
    for r in recs:
        assert r.status == "no_bound_state"
        assert r.n_retained == 0
        assert math.isnan(r.max_im_e)
        assert not r.is_real


# ---------------------------------------------------------------------------
# first Arnoldi size, and the tridiagonal LU
# ---------------------------------------------------------------------------

def scan_lattice_models():
    cfg = SCAN_LATTICE
    return [verifier_mod._with_component(verifier_mod._with_component(cfg.model, cfg.scan1, p1),
                                         cfg.scan2, p2)
            for p1 in cfg.scan1.values() for p2 in cfg.scan2.values()]


def recording_eigs(monkeypatch):
    ks = []
    arnoldi = scipy.sparse.linalg.eigs

    def recording(op, k, **kwargs):
        ks.append(k)
        return arnoldi(op, k=k, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", recording)
    return ks


# at tol_imag = 1e3, accuracy / radius exceeds 1, and only ARNOLDI_MAX_TOL lets
# a circle certify: uncapped, every point doubles k to N - 1 and goes dense
@pytest.mark.parametrize("tol_imag", [SCAN_LATTICE.tol_imag, 1e3])
def test_scan_lattice_certifies_every_complex_point_at_the_first_k(monkeypatch, tol_imag):
    # one eigs call per complex point, at k = ARNOLDI_START_K: none doubles
    cfg = SCAN_LATTICE
    ks = recording_eigs(monkeypatch)
    complex_points = sum(not build_hamiltonian(m, cfg.grid).is_real
                         for m in scan_lattice_models())
    records = reality_scan(cfg.model, cfg.scan1, cfg.scan2, cfg.grid, tol_imag, cfg.units)
    assert all(r.status == "ok" for r in records)
    assert complex_points == 90
    assert ks == [verifier_mod.ARNOLDI_START_K] * 90


def test_scan_lattice_solves_no_hermitian_part(monkeypatch):
    # complex points go straight to Arnoldi with no dstebz count of Re H;
    # real points keep scipy's value-window solve, one call each
    cfg = SCAN_LATTICE
    counted, windows = [], []
    monkeypatch.setattr(verifier_mod, "_eigh_tridiagonal",
                        lambda d, e, k: counted.append(k))
    eigh_tridiagonal = scipy.linalg.eigh_tridiagonal

    def recording(d, e, **kwargs):
        windows.append(kwargs["select"])
        return eigh_tridiagonal(d, e, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recording)
    real_points = sum(build_hamiltonian(m, cfg.grid).is_real for m in scan_lattice_models())
    records = reality_scan(cfg.model, cfg.scan1, cfg.scan2, cfg.grid, cfg.tol_imag, cfg.units)
    assert all(r.status == "ok" for r in records)
    assert counted == []
    assert real_points == 10
    assert windows == ["v"] * real_points


def test_targeted_solve_from_a_lower_start_grows_k_and_stays_exact(monkeypatch):
    grid = SCAN_LATTICE.grid
    models = [m for m in scan_lattice_models()
              if not build_hamiltonian(m, grid).is_real]
    sized = [targeted_bound_levels(build_hamiltonian(m, grid)) for m in models]
    ks = recording_eigs(monkeypatch)
    # two pairs leave every lattice point's circle uncertified at first
    monkeypatch.setattr(verifier_mod, "ARNOLDI_START_K", 2)
    grown = []
    for model, reference in zip(models, sized):
        ks.clear()
        levels = targeted_bound_levels(build_hamiltonian(model, grid))
        assert len(levels) == len(reference)
        scale = max(1.0, float(np.abs(reference).max()))
        assert np.allclose(levels, reference, rtol=0.0, atol=1e-10 * scale)
        if len(ks) > 1:
            assert ks[1] == 2 * ks[0]
            grown.append(model)
    assert grown
    # the dense reference costs more than the whole lattice; a few points suffice
    for model in grown[:3]:
        assert_targeted_matches_dense(model, grid)


@settings(max_examples=25, deadline=None)
@given(v0_re=st.floats(12.0, 60.0), v0_im=st.floats(-6.0, 6.0),
       q_re=st.floats(0.05, 2.0), q_im=st.floats(-2.0, 2.0))
def test_targeted_bound_states_match_dense_on_deep_wells(v0_re, v0_im, q_re, q_im):
    model = PoschlTeller(complex(v0_re, v0_im), complex(q_re, q_im))
    assert_targeted_matches_dense(model, Grid(-10.0, 10.0, 129))


def test_targeted_solve_singular_factor_takes_dense_path(monkeypatch):
    # zgttrf reports an exactly zero pivot through info > 0
    def singular(dl, d, du):
        return dl, d, du, None, None, 1

    def no_arnoldi(*args, **kwargs):
        raise AssertionError("shift-invert Arnoldi ran on a singular factor")

    dense_calls = []
    dense_solve = verifier_mod.eigen_spectrum

    def counting_dense(ham, k, vectors=True):
        dense_calls.append(k)
        return dense_solve(ham, k, vectors)

    monkeypatch.setattr(scipy.linalg.lapack, "zgttrf", singular)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_arnoldi)
    monkeypatch.setattr(verifier_mod, "eigen_spectrum", counting_dense)
    model = PoschlTeller(8.0 + 1.5j, 1.0 + 0.4j)
    assert_targeted_matches_dense(model, SCAN_GRID)
    assert dense_calls[0] == build_hamiltonian(model, SCAN_GRID).dimension


# ---------------------------------------------------------------------------
# one BLAS thread for the Arnoldi solve only
# ---------------------------------------------------------------------------

def scipy_openblas_thread_count():
    """A getter for the thread count of scipy's OpenBLAS, or None where absent."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "scipy_openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            getter = ctypes.CDLL(path).scipy_openblas_get_num_threads
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return getter
    return None


def numpy_openblas_thread_count():
    """A getter for the thread count of the OpenBLAS that numpy's wheel
    bundles in `numpy.libs`, or None where absent."""
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter
    return None


def scan_lattice_records():
    cfg = SCAN_LATTICE
    return reality_scan(cfg.model, cfg.scan1, cfg.scan2, cfg.grid, cfg.tol_imag, cfg.units)


@pytest.mark.parametrize("library", ["without-setter", "none"])
def test_scan_records_do_not_depend_on_the_thread_cap(library, replace_openblas):
    capped = scan_lattice_records()
    # scipy's OpenBLAS without its thread-count setter, or no such file at all
    lib = verifier_mod._bundled_openblas()
    stand_in = (types.SimpleNamespace(scipy_dstebz_=getattr(lib, "scipy_dstebz_", None))
                if library == "without-setter" else None)
    replace_openblas(lambda: stand_in)
    uncapped = scan_lattice_records()
    # repr of a float round-trips, so equal reprs mean bitwise-equal max_im_e
    assert repr(capped) == repr(uncapped)
    assert sum(r.status == "ok" for r in capped) == 100


def fake_setter(calls, count=2):
    def setter(n):
        nonlocal count
        calls.append(n)
        count, previous = n, count
        return previous
    return setter


def with_setter(setter):
    """A stand-in for scipy's bundled OpenBLAS that exports only the setter."""
    return lambda: types.SimpleNamespace(openblas_set_num_threads_local=setter)


def test_thread_cap_restored_when_arpack_raises(monkeypatch, replace_openblas):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    calls = []
    replace_openblas(with_setter(fake_setter(calls)))
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
    spec = verifier_mod._states_below(build_hamiltonian(PoschlTeller(8.0 + 1.5j, 1.0 + 0.4j),
                                                        SCAN_GRID), SCAN_ACCURACY)
    assert len(spec.eigenvalues) > 0  # from the dense fallback
    assert calls == [1, 2]


def test_thread_cap_holders_on_two_threads_take_turns(replace_openblas):
    # the second holder's block starts only after the first one restored the count
    calls, starts, errors = [], [], []
    first_in, release, second_in, go = (threading.Event() for _ in range(4))
    go.set()
    replace_openblas(with_setter(fake_setter(calls)))

    def hold(entered, leave):
        try:
            with verifier_mod._one_blas_thread():
                starts.append(list(calls))
                entered.set()
                assert leave.wait(timeout=10.0)
        except Exception as exc:  # asserted empty in the test thread below
            errors.append(exc)

    first = threading.Thread(target=hold, args=(first_in, release))
    second = threading.Thread(target=hold, args=(second_in, go))
    first.start()
    assert first_in.wait(timeout=10.0)
    second.start()
    assert not second_in.wait(timeout=0.2)
    assert calls == [1]
    release.set()
    for thread in (first, second):
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    assert not errors, errors
    assert starts == [[1], [1, 2, 1]]
    assert calls == [1, 2, 1, 2]


def test_thread_cap_admits_one_holder_at_a_time_under_contention(replace_openblas):
    # more threads than cores and a short switch interval, so that holders
    # whose blocks overlapped would show in the count of holders inside
    calls, inside, errors = [], [], []
    setter = fake_setter(calls)
    replace_openblas(with_setter(setter))

    def hold():
        try:
            for _ in range(200):
                with verifier_mod._one_blas_thread():
                    inside.append(None)
                    assert len(inside) == 1 and setter(1) == 1
                    inside.pop()
        except Exception as exc:  # asserted empty in the test thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert calls == [1, 1, 2] * 800


def test_verify_never_caps_blas_threads(monkeypatch):
    def no_cap():
        raise AssertionError("verify entered the BLAS thread cap")

    monkeypatch.setattr(verifier_mod, "_one_blas_thread", no_cap)
    for model, grid in [(MorsePT1(16.0, 12.0), Grid(-20.0, 20.0, 201)),
                        (PoschlTeller(6.0 + 1.0j, 1.0 + 0.2j), Grid(-10.0, 10.0, 201)),
                        (MORSE, Grid(-3.0, 30.0, 401))]:
        verify(model, spectrum_records(model, n_max=3, l_max=0), grid)


def test_scan_leaves_openblas_thread_count_unchanged():
    get_threads = scipy_openblas_thread_count()
    if get_threads is None or not hasattr(verifier_mod._bundled_openblas(),
                                          "openblas_set_num_threads_local"):
        pytest.skip("scipy's OpenBLAS with a thread-count setter is not loaded")
    get_numpy_threads = numpy_openblas_thread_count()
    numpy_before = None if get_numpy_threads is None else get_numpy_threads()
    before = get_threads()
    with verifier_mod._one_blas_thread():
        assert get_threads() == 1
        if get_numpy_threads is not None:
            assert get_numpy_threads() == numpy_before
    assert get_threads() == before
    scan_lattice_records()
    assert get_threads() == before
    if get_numpy_threads is not None:
        assert get_numpy_threads() == numpy_before
