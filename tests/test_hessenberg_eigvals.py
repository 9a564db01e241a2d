"""The complex eigenvalue-only solve: zhseqr on H, without zgeev's no-op preprocessing."""
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgError, eigvals
from scipy.linalg.lapack import zgebal, zgeev_lwork, zgehrd, zgehrd_lwork

import susyhier
from susyhier import (DiscretizedHamiltonian, Grid, MorsePT1, MorsePT2, NotConvergedError,
                      PoschlTeller, PoschlTellerPT, UnitSystem, build_hamiltonian,
                      eigen_spectrum)
from susyhier import verifier as verifier_mod

WELLS = {
    "morse_pt1": (MorsePT1(28.4743, 55.2755), (-20.0, 20.0)),
    "morse_pt2": (MorsePT2(2.5, 2.0), (-20.0, 20.0)),
    "poschl_teller": (PoschlTeller(8 + 1j, 1 + 0.3j), (-10.0, 10.0)),
    "poschl_teller_pt": (PoschlTellerPT(6.0, 0.5), (-10.0, 10.0)),
}
# N = 99, 199, 599 interior points; from N = 199 up zhseqr's result depends
# on the workspace size it is given
N_POINTS = (101, 201, 601)
CASES = [pytest.param(name, n, id=f"{name}-{n - 2}") for name in WELLS for n in N_POINTS]


def _hamiltonian(name, n_points):
    model, window = WELLS[name]
    return build_hamiltonian(model, Grid(*window, n_points))


def _no_eigvals(*args, **kwargs):
    raise AssertionError("the direct zhseqr path fell back to eigvals")


@pytest.mark.parametrize("name, n_points", CASES)
def test_direct_zhseqr_is_bitwise_eigvals(name, n_points, monkeypatch):
    ham = _hamiltonian(name, n_points)
    expected = eigvals(ham.dense())
    monkeypatch.setattr(scipy.linalg, "eigvals", _no_eigvals)
    assert np.array_equal(verifier_mod._hessenberg_eigvals(ham), expected)


def test_eigenvalue_only_spectrum_is_bitwise_eigvals(monkeypatch):
    ham = _hamiltonian("morse_pt1", 201)
    vals = eigvals(ham.dense())
    expected = vals[np.lexsort((vals.imag, vals.real))][:20]
    monkeypatch.setattr(scipy.linalg, "eigvals", _no_eigvals)
    spec = eigen_spectrum(ham, 20, vectors=False)
    assert spec.eigenvectors is None
    assert np.array_equal(spec.eigenvalues, expected)


@pytest.mark.parametrize("name, n_points", CASES)
def test_zgeev_preprocessing_leaves_h_unchanged(name, n_points):
    h = _hamiltonian(name, n_points).dense()
    n = h.shape[0]
    balanced, lo, hi, scale, info = zgebal(h, scale=1, permute=1)
    assert info == 0 and (lo, hi) == (0, n - 1)
    assert np.array_equal(scale, np.ones(n))
    assert np.array_equal(balanced, h)
    lwork = int(zgehrd_lwork(n)[0].real)
    _, tau, info = zgehrd(h, lwork=lwork)
    assert info == 0 and np.all(tau == 0)


FRESH_PROBE = f"""
import sys
import numpy as np
from susyhier import Grid, MorsePT1, MorsePT2, PoschlTeller, PoschlTellerPT, build_hamiltonian
from susyhier.verifier import _hessenberg_eigvals
solved = []
for model, window in {list(WELLS.values())!r}:
    ham = build_hamiltonian(model, Grid(*window, 201))
    solved.append((ham, _hessenberg_eigvals(ham)))
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
from scipy.linalg import eigvals
for ham, vals in solved:
    assert np.array_equal(vals, eigvals(ham.dense())), ham
"""


def test_fresh_process_solve_is_bitwise_eigvals_without_scipy():
    # the tests above import scipy.linalg first, so they cannot tell which
    # OpenBLAS zhseqr came from; numpy's differs from eigvals at N = 199
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(susyhier.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", FRESH_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n", [99, 199, 599, 1199])
def test_workspace_query_is_zgeev_lwork(n):
    _, zgeev, int_t = verifier_mod._zhseqr()
    h = np.zeros((n, n), dtype=complex, order="F")
    expected = int(zgeev_lwork(n, compute_vl=0, compute_vr=0)[0].real)
    assert verifier_mod._zgeev_lwork(zgeev, int_t, h) == expected


def test_zhseqr_failure_raises_not_converged_error(monkeypatch):
    def failing(*args):
        args[-1]._obj.value = 1  # info

    _, zgeev, int_t = verifier_mod._zhseqr()
    monkeypatch.setattr(verifier_mod, "_zhseqr", lambda: (failing, zgeev, int_t))
    ham = _hamiltonian("morse_pt2", 101)
    with pytest.raises(NotConvergedError, match="did not converge") as raised:
        eigen_spectrum(ham, 5, vectors=False)
    assert isinstance(raised.value.__cause__, LinAlgError)


def test_non_finite_diagonal_raises_value_error_as_eigvals_does():
    ham = _hamiltonian("morse_pt1", 101)
    diagonal = ham.diagonal.copy()
    diagonal[7] = np.nan
    bad = DiscretizedHamiltonian(grid=ham.grid, diagonal=diagonal,
                                 off_diagonal=ham.off_diagonal)
    with pytest.raises(ValueError) as expected:
        eigvals(bad.dense())
    with pytest.raises(ValueError) as raised:
        eigen_spectrum(bad, 5, vectors=False)
    assert str(raised.value) == str(expected.value)


def _recording_eigvals(monkeypatch):
    calls = []

    def recording(a, **kwargs):
        calls.append(a.shape)
        return eigvals(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvals", recording)
    return calls


@pytest.mark.parametrize("model, hbar", [
    # zgeev scales a matrix this small before its QR iteration
    (MorsePT1(1e-150, 2e-150), 1e-80),
    # hbar^2 underflows, so H is diagonal and zgeev's balancing may permute it
    (MorsePT1(28.4743, 55.2755), 1e-170),
], ids=["max-below-range", "zero-off-diagonal"])
def test_hamiltonian_zgeev_would_preprocess_falls_back_to_eigvals(model, hbar, monkeypatch):
    ham = build_hamiltonian(model, Grid(-20.0, 20.0, 101), UnitSystem(hbar=hbar))
    assert (np.abs(ham.dense()).max() < verifier_mod.ZGEEV_SMLNUM
            or ham.off_diagonal == 0)
    expected = eigvals(ham.dense())
    calls = _recording_eigvals(monkeypatch)
    assert np.array_equal(verifier_mod._hessenberg_eigvals(ham), expected)
    assert calls == [(99, 99)]


def test_missing_zhseqr_falls_back_to_eigvals(monkeypatch):
    ham = _hamiltonian("poschl_teller", 101)
    expected = eigvals(ham.dense())
    monkeypatch.setattr(verifier_mod, "_zhseqr", lambda: None)
    calls = _recording_eigvals(monkeypatch)
    assert np.array_equal(verifier_mod._hessenberg_eigvals(ham), expected)
    assert calls == [(99, 99)]


@pytest.fixture
def fresh_loader():
    """_zhseqr's cache emptied before the test and again after it."""
    verifier_mod._zhseqr.cache_clear()
    yield
    verifier_mod._zhseqr.cache_clear()


@pytest.mark.parametrize("paths", [[], [__file__]], ids=["no-file", "not-a-library"])
def test_scipy_openblas_not_found_falls_back_to_eigvals(paths, fresh_loader, monkeypatch):
    monkeypatch.setattr(verifier_mod, "_scipy_openblas_paths", lambda: paths)
    assert verifier_mod._zhseqr() is None
    ham = _hamiltonian("morse_pt1", 201)
    expected = eigvals(ham.dense())
    calls = _recording_eigvals(monkeypatch)
    assert np.array_equal(verifier_mod._hessenberg_eigvals(ham), expected)
    assert calls == [(199, 199)]
