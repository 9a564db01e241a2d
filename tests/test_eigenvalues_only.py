"""Eigenvalue-only solves and the order of tied conjugate pairs."""
import numpy as np
import pytest

from susyhier import (Grid, MorseGeneral, MorsePT1, MorsePT2, build_hamiltonian,
                      converged_spectrum, eigen_spectrum, spectrum_records, symmetric_grid,
                      verify)
from susyhier import verifier as verifier_mod

PT1 = MorsePT1(25.0, 50.0)
PT1_GRID = Grid(-20.0, 20.0, 301)
# the lowest level is a conjugate pair whose real parts tie to roundoff
PT2 = MorsePT2(2.5, 2.0)
PT2_GRID = Grid(-20.0, 20.0, 201)


def _tied_pairs(vals):
    tol = verifier_mod.CONJUGATE_TIE_RTOL
    return [i for i in range(len(vals) - 1)
            if abs(vals[i].imag) > tol
            and abs(vals[i + 1] - np.conj(vals[i])) <= tol * max(1.0, abs(vals[i]))]


def test_dense_matches_the_diagonal_construction_bitwise():
    ham = build_hamiltonian(PT2, Grid(-20.0, 20.0, 41))
    off = np.full(ham.dimension - 1, ham.off_diagonal)
    expected = np.diag(ham.diagonal) + np.diag(off, 1) + np.diag(off, -1)
    d = ham.dense()
    assert d.dtype == complex and d.flags.f_contiguous
    assert np.array_equal(d, expected)


def test_eigen_spectrum_without_vectors_real_well_is_bitwise():
    ham = build_hamiltonian(MorseGeneral(25.0, 50.0, 1.0), Grid(-3.0, 30.0, 801))
    with_vecs = eigen_spectrum(ham, 7)
    values_only = eigen_spectrum(ham, 7, vectors=False)
    assert values_only.eigenvectors is None
    assert np.array_equal(values_only.eigenvalues, with_vecs.eigenvalues)


def test_eigen_spectrum_without_vectors_keeps_the_strict_sort():
    ham = build_hamiltonian(MorsePT2(2.0, 3.0, 1.0), symmetric_grid(8.0, 301))
    spec = eigen_spectrum(ham, ham.dimension, vectors=False)
    assert spec.eigenvectors is None
    keys = [(e.real, e.imag) for e in spec.eigenvalues]
    assert keys == sorted(keys)
    ref = eigen_spectrum(ham, ham.dimension).eigenvalues
    for e in spec.eigenvalues:
        assert np.abs(ref - e).min() <= 1e-9 * max(1.0, abs(e))


def test_converged_spectrum_without_vectors_hermitian_is_bitwise():
    model, grid = MorseGeneral(25.0, 50.0, 1.0), Grid(-3.0, 30.0, 1000)
    a = converged_spectrum(model, grid, 5)
    b = converged_spectrum(model, grid, 5, vectors=False)
    assert b.eigenvectors is None and a.eigenvectors.shape == (1997, 5)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert a.richardson_delta == b.richardson_delta
    assert a.converged == b.converged


@pytest.mark.parametrize("model, grid, k", [(PT1, PT1_GRID, 14), (PT2, PT2_GRID, 10)])
def test_converged_spectrum_without_vectors_complex_agrees(model, grid, k):
    coarse = eigen_spectrum(build_hamiltonian(model, grid), k).eigenvalues
    assert _tied_pairs(coarse), "the window must hold a tied conjugate pair"
    a = converged_spectrum(model, grid, k)
    b = converged_spectrum(model, grid, k, vectors=False)
    assert b.eigenvectors is None and a.eigenvectors.shape[1] == k
    scale = np.abs(a.eigenvalues).max()
    assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-9 * scale
    assert b.richardson_delta == pytest.approx(a.richardson_delta, rel=1e-9)


def test_tied_conjugate_pairs_put_negative_imag_first():
    vals = np.array([-3.0 + 2.0j, -3.0 - 2.0j, -1.0 + 0.0j,
                     0.5 - 1.0j, 0.5 + 1.0j, 2.0 + 1.0j])
    order = verifier_mod._conjugates_first(vals)
    assert list(order) == [1, 0, 2, 3, 4, 5]
    spec = converged_spectrum(PT1, PT1_GRID, 14, vectors=False)
    for i in _tied_pairs(spec.eigenvalues):
        assert spec.eigenvalues[i].imag < 0


@pytest.mark.parametrize("n_points, bound", [(301, 0.66), (401, 0.371)])
def test_richardson_delta_is_not_conjugate_swap_noise(n_points, bound):
    # index-wise pairing without a canonical pair order gave 7.42 and 40.37
    spec = converged_spectrum(PT1, Grid(-20.0, 20.0, n_points), 14)
    assert spec.richardson_delta < 1.0
    assert spec.richardson_delta == pytest.approx(bound, abs=0.01)


def test_verify_solves_for_eigenvalues_only(monkeypatch):
    calls = []
    original = verifier_mod.eigen_spectrum

    def recording(ham, k, vectors=True):
        calls.append(vectors)
        return original(ham, k, vectors)

    monkeypatch.setattr(verifier_mod, "eigen_spectrum", recording)
    verify(PT1, spectrum_records(PT1, 3, 0), Grid(-20.0, 20.0, 101))
    assert calls == [False, False]
