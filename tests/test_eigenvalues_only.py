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
# sorted strictly by (Re, Im), this well's values-only spectrum holds at
# index 281 the Im > 0 member of a tied pair, ahead of its partner
TIED_WELL, TIED_GRID, TIED_AT = MorsePT2(2.0, 3.0), symmetric_grid(8.0, 301), 281


def _tied_pairs(vals):
    tol = verifier_mod.CONJUGATE_TIE_RTOL
    return [i for i in range(len(vals) - 1)
            if abs(vals[i].imag) > tol
            and abs(vals[i + 1] - np.conj(vals[i])) <= tol * max(1.0, abs(vals[i]))]


def _in_the_one_order(vals):
    """(Re, Im) ascending, except that each tied conjugate pair comes Im < 0 first."""
    tied = _tied_pairs(vals)
    return (all(vals[i].imag < 0 for i in tied)
            and all((a.real, a.imag) <= (b.real, b.imag)
                    for i, (a, b) in enumerate(zip(vals, vals[1:])) if i not in tied))


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


def test_eigen_spectrum_without_vectors_keeps_the_one_order():
    ham = build_hamiltonian(TIED_WELL, TIED_GRID)
    spec = eigen_spectrum(ham, ham.dimension, vectors=False)
    assert spec.eigenvectors is None
    assert _tied_pairs(spec.eigenvalues) and _in_the_one_order(spec.eigenvalues)
    ref = eigen_spectrum(ham, ham.dimension).eigenvalues
    for e in spec.eigenvalues:
        assert np.abs(ref - e).min() <= 1e-9 * max(1.0, abs(e))


@pytest.mark.parametrize("vectors", [True, False])
def test_tied_conjugate_pairs_come_negative_imag_first_in_eigen_spectrum(vectors):
    ham = build_hamiltonian(TIED_WELL, TIED_GRID)
    spec = eigen_spectrum(ham, ham.dimension, vectors)
    vals = spec.eigenvalues
    tied = _tied_pairs(vals)
    assert len(tied) == 5 and TIED_AT in tied
    assert all(vals[i].imag < 0 for i in tied)
    if vectors:
        # each eigenvector still solves H v = E v with the value it sits beside
        h, vecs = ham.dense(), spec.eigenvectors
        residual = np.linalg.norm(h @ vecs - vecs * vals, axis=0)
        assert np.all(residual <= 1e-9 * np.maximum(1.0, np.abs(vals)))
    # a cut between the two members of a tied pair keeps the Im < 0 one
    cut = eigen_spectrum(ham, TIED_AT + 1, vectors)
    assert cut.eigenvalues[-1] == vals[TIED_AT] and vals[TIED_AT].imag < 0
    assert np.array_equal(cut.eigenvalues, vals[:TIED_AT + 1])
    if vectors:
        assert np.array_equal(cut.eigenvectors, spec.eigenvectors[:, :TIED_AT + 1])


def test_richardson_grids_without_vectors_hermitian_are_bitwise():
    model, grid = MorseGeneral(25.0, 50.0, 1.0), Grid(-3.0, 30.0, 1000)
    levels = []
    for g in (grid, grid.refined()):
        ham = build_hamiltonian(model, g)
        a = eigen_spectrum(ham, 5)
        b = eigen_spectrum(ham, 5, vectors=False)
        assert b.eigenvectors is None and a.eigenvectors.shape == (g.n_points - 2, 5)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        levels.append(a.eigenvalues)
    spec = converged_spectrum(model, grid, 5)
    assert spec.eigenvectors is None and spec.grid.n_points == 1999
    delta = float(np.abs(levels[0] - levels[1]).max())
    assert spec.richardson_delta == delta
    assert spec.converged == (delta < 1e-3 / 2.0)


@pytest.mark.parametrize("model, grid, k", [(PT1, PT1_GRID, 14), (PT2, PT2_GRID, 10)])
def test_fine_grid_without_vectors_complex_agrees(model, grid, k):
    coarse = eigen_spectrum(build_hamiltonian(model, grid), k, vectors=False).eigenvalues
    assert _tied_pairs(coarse), "the window must hold a tied conjugate pair"
    # the coarse grid is solved values-only in any case; on the fine grid a
    # solve with vectors must give, in the same order, the levels that
    # converged_spectrum combines
    fine = build_hamiltonian(model, grid.refined())
    a = eigen_spectrum(fine, k)
    b = eigen_spectrum(fine, k, vectors=False)
    assert b.eigenvectors is None and a.eigenvectors.shape[1] == k
    for levels in (coarse, a.eigenvalues, b.eigenvalues):
        assert _in_the_one_order(levels)
    spec = converged_spectrum(model, grid, k)
    assert spec.eigenvectors is None
    assert np.array_equal(spec.eigenvalues, (4.0 * b.eigenvalues - coarse) / 3.0)
    a_extrapolated = (4.0 * a.eigenvalues - coarse) / 3.0
    scale = np.abs(a_extrapolated).max()
    assert np.abs(a_extrapolated - spec.eigenvalues).max() <= 1e-9 * scale
    assert spec.richardson_delta == pytest.approx(float(np.abs(coarse - a.eigenvalues).max()),
                                                  rel=1e-9)


def test_tied_conjugate_pairs_put_negative_imag_first():
    vals = np.array([-3.0 + 2.0j, -3.0 - 2.0j, -1.0 + 0.0j,
                     0.5 - 1.0j, 0.5 + 1.0j, 2.0 + 1.0j])
    order = verifier_mod._conjugates_first(vals)
    assert list(order) == [1, 0, 2, 3, 4, 5]
    spec = converged_spectrum(PT1, PT1_GRID, 14)
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
