"""The real-well eigenvalue solve: dstebz from scipy's bundled OpenBLAS, without scipy.

`_eigh_tridiagonal` must give `scipy.linalg.eigh_tridiagonal`'s eigenvalues
bit for bit, through the bundled library where it exports dstebz and through
the fallback where it does not.
"""
import os

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg import LinAlgError, eigh_tridiagonal

from susyhier import (Grid, MorseGeneral, NotConvergedError, PoschlTeller, build_hamiltonian,
                      eigen_spectrum)
from susyhier import verifier as verifier_mod


def _assert_bitwise(d, e, k):
    vals = verifier_mod._eigh_tridiagonal(d, e, k)
    expected = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, k - 1))
    assert np.array_equal(vals, expected)


def _solver_matrices():
    """(d, e, k) of real tridiagonal matrices and the k lowest levels to solve.

    A real Morse well on verify's default 4000-point grid and its two
    refinements (N = 3998, 7997, 15995), as verify solves them, and the
    Hermitian part of a complex scan point at N = 255, a small matrix with
    another spectrum.
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
        out.append((ham.diagonal.real, np.full(ham.dimension - 1, ham.off_diagonal), 9))
    return out


SOLVER_MATRICES = _solver_matrices()
MATRIX_IDS = [f"N{len(d)}" for d, *_ in SOLVER_MATRICES]


@pytest.mark.parametrize("index", range(len(SOLVER_MATRICES)), ids=MATRIX_IDS)
def test_solver_matrices_bitwise(index):
    _assert_bitwise(*SOLVER_MATRICES[index])


@st.composite
def tridiagonals(draw):
    n = draw(st.integers(17, 2000))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, e = scale * rng.standard_normal(n), scale * rng.standard_normal(n - 1)
    return d, e, draw(st.integers(1, min(n, 40)))


@settings(max_examples=40, deadline=None)
@given(case=tridiagonals())
def test_random_tridiagonals_bitwise(case):
    _assert_bitwise(*case)


def _exporting_libraries():
    lib = verifier_mod._bundled_openblas()
    if not hasattr(lib, verifier_mod._LAPACK_SYMBOL.format("dstebz")):
        return []
    return [pytest.param(lib, id=os.path.basename(lib._name))]


@pytest.mark.parametrize("lib", _exporting_libraries())
def test_each_exporting_library_bitwise(lib, replace_openblas):
    replace_openblas(lambda: lib)
    assert verifier_mod._lapack("dstebz", 18) is not None
    _assert_bitwise(*SOLVER_MATRICES[0])


def _recording_eigh_tridiagonal(monkeypatch):
    calls = []

    def recording(d, e, **kwargs):
        calls.append(len(d))
        return eigh_tridiagonal(d, e, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recording)
    return calls


def test_no_exporting_library_falls_back_bitwise(monkeypatch, replace_openblas):
    replace_openblas(lambda: None)
    assert verifier_mod._lapack("dstebz", 18) is None
    calls = _recording_eigh_tridiagonal(monkeypatch)
    d, e, k = SOLVER_MATRICES[-1]
    _assert_bitwise(d, e, k)
    assert calls == [len(d)]


def test_lapack_path_does_not_call_scipy(monkeypatch):
    if verifier_mod._lapack("dstebz", 18) is None:
        pytest.skip("scipy's bundled OpenBLAS does not export dstebz")
    calls = _recording_eigh_tridiagonal(monkeypatch)
    verifier_mod._eigh_tridiagonal(*SOLVER_MATRICES[-1])
    assert calls == []


def test_one_point_bitwise():
    # dstebz reads no off-diagonal at N = 1, where eigh_tridiagonal answers itself
    _assert_bitwise(np.array([2.5]), np.zeros(0), 1)


@pytest.mark.parametrize("k", [1, 2], ids=["lower", "both"])
def test_two_point_bitwise(k):
    # the smallest matrix whose off-diagonal dstebz reads
    _assert_bitwise(np.array([2.5, -1.0]), np.array([0.75]), k)


def test_every_level_bitwise():
    # k = N, the upper end of RANGE 'I'
    d, e, _ = SOLVER_MATRICES[-1]
    _assert_bitwise(d, e, len(d))


def test_stebz_failure_raises_not_converged_error(monkeypatch):
    def failing(*args):
        args[-1]._obj.value = 4  # info

    lapack = verifier_mod._lapack
    monkeypatch.setattr(verifier_mod, "_lapack",
                        lambda name, n_args: failing if name == "dstebz" else lapack(name, n_args))
    calls = _recording_eigh_tridiagonal(monkeypatch)
    ham = build_hamiltonian(MorseGeneral(25.0, 50.0), Grid(-3.0, 30.0, 401))
    with pytest.raises(NotConvergedError, match=r"^stebz did not converge \(LAPACK info = 4\)$") \
            as raised:
        eigen_spectrum(ham, 9, vectors=False)
    assert isinstance(raised.value.__cause__, LinAlgError)
    assert calls == []


def test_non_finite_input_raises_as_eigh_tridiagonal_does():
    d, e, k = SOLVER_MATRICES[-1]
    d = d.copy()
    d[3] = np.nan
    with pytest.raises(ValueError) as expected:
        eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    with pytest.raises(ValueError) as raised:
        verifier_mod._eigh_tridiagonal(d, e, k)
    assert str(raised.value) == str(expected.value)
