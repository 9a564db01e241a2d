"""The real-well solve: dstebz and dstein from numpy's bundled OpenBLAS, without scipy.

`_eigh_tridiagonal` must give `scipy.linalg.eigh_tridiagonal`'s values and
vectors bit for bit, through every bundled library that exports the two
routines (numpy's and scipy's) and through the fallback where none does.
"""
import os

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from susyhier import Grid, MorseGeneral, PoschlTeller, build_hamiltonian
from susyhier import verifier as verifier_mod


def _assert_bitwise(d, e, select, select_range, vectors):
    vals, vecs = verifier_mod._eigh_tridiagonal(d, e, select, select_range, vectors)
    expected = eigh_tridiagonal(d, e, eigvals_only=not vectors, select=select,
                                select_range=select_range)
    if vectors:
        assert np.array_equal(vals, expected[0])
        assert np.array_equal(vecs, expected[1])
    else:
        assert np.array_equal(vals, expected)
        assert vecs is None


def _solver_matrices():
    """(d, e, k, window) of the matrices verify and scan solve.

    A real Morse well on verify's default 4000-point grid and its two
    refinements (N = 3998, 7997, 15995), and the Hermitian part of a complex
    scan point at N = 255, with the k verify asks for and the window
    (min V - 1, 0) the scan solves in.
    """
    cases = []
    grid = Grid(-3.0, 30.0, 4000)
    for _ in range(3):
        cases.append((MorseGeneral(25.0, 50.0), grid))
        grid = grid.refined()
    cases.append((PoschlTeller(8.0 + 1.0j, 1.0 + 0.4j), Grid(-10.0, 10.0, 257)))
    out = []
    for model, grid in cases:
        ham = build_hamiltonian(model, grid)
        v = (ham.diagonal + 2.0 * ham.off_diagonal).real
        e = np.full(ham.dimension - 1, ham.off_diagonal)
        out.append((ham.diagonal.real, e, 9, (v.min() - 1.0, 0.0)))
    return out


SOLVER_MATRICES = _solver_matrices()
MATRIX_IDS = [f"N{len(d)}" for d, *_ in SOLVER_MATRICES]


@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
@pytest.mark.parametrize("index", range(len(SOLVER_MATRICES)), ids=MATRIX_IDS)
def test_solver_matrices_bitwise(index, vectors):
    d, e, k, window = SOLVER_MATRICES[index]
    _assert_bitwise(d, e, "i", (0, k - 1), vectors)
    _assert_bitwise(d, e, "v", window, vectors)


@st.composite
def tridiagonals(draw):
    n = draw(st.integers(17, 2000))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, e = scale * rng.standard_normal(n), scale * rng.standard_normal(n - 1)
    k = draw(st.integers(1, min(n, 40)))
    # a window from the lowest diagonal value to the k-th, so that it holds some levels
    low, high = np.sort(d)[[0, k - 1]]
    return d, e, k, (low - scale, high)


@settings(max_examples=40, deadline=None)
@given(case=tridiagonals(), vectors=st.booleans())
def test_random_tridiagonals_bitwise(case, vectors):
    d, e, k, window = case
    _assert_bitwise(d, e, "i", (0, k - 1), vectors)
    _assert_bitwise(d, e, "v", window, vectors)


def _exporting_libraries():
    bundled = verifier_mod._bundled_openblas("numpy") + verifier_mod._bundled_openblas("scipy")
    return [pytest.param(lib, id=os.path.basename(lib._name)) for lib in bundled
            if any(hasattr(lib, name.format("dstebz")) for name, _ in verifier_mod._LAPACK_SYMBOLS)]


@pytest.mark.parametrize("lib", _exporting_libraries())
def test_each_exporting_library_bitwise(lib, monkeypatch):
    # numpy's wheel exports the int64 routines, scipy's the int32 ones
    monkeypatch.setattr(verifier_mod, "_bundled_openblas", lambda package: (lib,))
    assert verifier_mod._stebz_stein() is not None
    d, e, k, window = SOLVER_MATRICES[0]
    for vectors in (False, True):
        _assert_bitwise(d, e, "i", (0, k - 1), vectors)
        _assert_bitwise(d, e, "v", window, vectors)


def _recording_eigh_tridiagonal(monkeypatch):
    calls = []

    def recording(d, e, **kwargs):
        calls.append(len(d))
        return eigh_tridiagonal(d, e, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recording)
    return calls


def test_no_exporting_library_falls_back_bitwise(monkeypatch):
    monkeypatch.setattr(verifier_mod, "_bundled_openblas", lambda package: ())
    assert verifier_mod._stebz_stein() is None
    calls = _recording_eigh_tridiagonal(monkeypatch)
    d, e, k, window = SOLVER_MATRICES[-1]
    for vectors in (False, True):
        _assert_bitwise(d, e, "i", (0, k - 1), vectors)
        _assert_bitwise(d, e, "v", window, vectors)
    assert calls == [len(d)] * 4


def test_lapack_path_does_not_call_scipy(monkeypatch):
    if verifier_mod._stebz_stein() is None:
        pytest.skip("numpy's bundled OpenBLAS does not export dstebz and dstein")
    calls = _recording_eigh_tridiagonal(monkeypatch)
    d, e, k, window = SOLVER_MATRICES[-1]
    verifier_mod._eigh_tridiagonal(d, e, "i", (0, k - 1), True)
    verifier_mod._eigh_tridiagonal(d, e, "v", window, False)
    assert calls == []


def test_empty_window_bitwise():
    d, e, _, _ = SOLVER_MATRICES[-1]
    _assert_bitwise(d, e, "v", (d.min() - 10.0, d.min() - 5.0), True)


def test_non_finite_input_raises_as_eigh_tridiagonal_does():
    d, e, k, _ = SOLVER_MATRICES[-1]
    d = d.copy()
    d[3] = np.nan
    with pytest.raises(ValueError) as expected:
        eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    with pytest.raises(ValueError) as raised:
        verifier_mod._eigh_tridiagonal(d, e, "i", (0, k - 1), True)
    assert str(raised.value) == str(expected.value)
