"""The complex eigenvalue-only solve: zhseqr on H, without zgeev's no-op preprocessing."""
import importlib.util
import os
import pathlib
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgError, eigvals
from scipy.linalg.lapack import zgebal, zgeev_lwork, zgehrd, zgehrd_lwork

import susyhier
import susyhier.cli
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
# (name, number of arguments) of every LAPACK routine the verifier calls through ctypes
ROUTINES = (("zhseqr", 13), ("zgeev", 14), ("dstebz", 18))


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
    zgeev = verifier_mod._lapack("zgeev", 14)
    h = np.zeros((n, n), dtype=complex, order="F")
    expected = int(zgeev_lwork(n, compute_vl=0, compute_vr=0)[0].real)
    assert verifier_mod._zgeev_lwork(zgeev, h) == expected


def test_zhseqr_failure_raises_not_converged_error(monkeypatch):
    def failing(*args):
        args[-1]._obj.value = 1  # info

    lapack = verifier_mod._lapack
    monkeypatch.setattr(verifier_mod, "_lapack",
                        lambda name, n_args: failing if name == "zhseqr" else lapack(name, n_args))
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
    lapack = verifier_mod._lapack
    monkeypatch.setattr(verifier_mod, "_lapack",
                        lambda name, n_args: None if name == "zhseqr" else lapack(name, n_args))
    calls = _recording_eigvals(monkeypatch)
    assert np.array_equal(verifier_mod._hessenberg_eigvals(ham), expected)
    assert calls == [(99, 99)]


def test_scipy_openblas_not_found_falls_back_to_eigvals(monkeypatch, replace_openblas):
    replace_openblas(lambda: None)
    assert [verifier_mod._lapack(*routine) for routine in ROUTINES] == [None] * len(ROUTINES)
    ham = _hamiltonian("morse_pt1", 201)
    expected = eigvals(ham.dense())
    calls = _recording_eigvals(monkeypatch)
    assert np.array_equal(verifier_mod._hessenberg_eigvals(ham), expected)
    assert calls == [(199, 199)]


# the file of scipy's bundled OpenBLAS, looked up before any test fakes the lookup
REAL_OPENBLAS = verifier_mod._bundled_openblas()


def _clear_lookup_caches():
    verifier_mod._bundled_openblas.cache_clear()
    verifier_mod._lapack.cache_clear()


@pytest.fixture
def fake_site(tmp_path, monkeypatch):
    """A directory that the lookup takes for the one holding scipy's package,
    with the caches of _bundled_openblas and _lapack emptied before the test
    and again after it."""
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: types.SimpleNamespace(
        submodule_search_locations=[str(tmp_path / name)]))
    _clear_lookup_caches()
    yield tmp_path
    _clear_lookup_caches()


def test_bundled_openblas_without_libs_directory(fake_site):
    assert verifier_mod._bundled_openblas() is None


def test_bundled_openblas_skips_a_file_that_is_not_a_library(fake_site):
    if REAL_OPENBLAS is None:
        pytest.skip("scipy's wheel bundles no OpenBLAS here")
    libs = fake_site / "scipy.libs"
    libs.mkdir()
    (libs / "libscipy_openblas-x.so").write_bytes(b"not a shared library")
    os.symlink(REAL_OPENBLAS._name, libs / "libscipy_openblas-y.so")
    found = verifier_mod._bundled_openblas()
    assert os.path.basename(found._name) == "libscipy_openblas-y.so"


def test_bundled_openblas_of_a_missing_package(fake_site, monkeypatch):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    assert verifier_mod._bundled_openblas() is None


@pytest.mark.parametrize("user_timeout", [None, "26"], ids=["unset", "user-set"])
def test_bundled_openblas_restores_the_environment_after_a_failed_load(user_timeout, fake_site,
                                                                     monkeypatch):
    libs = fake_site / "scipy.libs"
    libs.mkdir()
    (libs / "libscipy_openblas-x.so").write_bytes(b"not a shared library")
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    if user_timeout is not None:
        monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", user_timeout)
    seen = []

    def failing_load(path):
        seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        raise OSError(f"{path}: invalid ELF header")

    monkeypatch.setattr(verifier_mod.ctypes, "CDLL", failing_load)
    assert verifier_mod._bundled_openblas() is None
    assert seen == [user_timeout or str(verifier_mod.OPENBLAS_THREAD_TIMEOUT)]
    assert os.environ.get("OPENBLAS_THREAD_TIMEOUT") == user_timeout


def test_concurrent_first_lookups_each_load_with_the_short_idle_spin(fake_site, monkeypatch):
    # two uncached lookups: the second starts while the first is loading,
    # and reads the variable after the first one has finished
    libs = fake_site / "scipy.libs"
    libs.mkdir()
    (libs / "libscipy_openblas-x.so").write_bytes(b"")
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    first_loading = threading.Event()
    seen = {}

    def slow_load(path):
        if threading.current_thread() is first:
            first_loading.set()
            time.sleep(0.05)
        else:
            time.sleep(0.2)
        seen[threading.current_thread().name] = os.environ.get("OPENBLAS_THREAD_TIMEOUT")
        raise OSError(f"{path}: invalid ELF header")

    monkeypatch.setattr(verifier_mod.ctypes, "CDLL", slow_load)
    lookup = verifier_mod._bundled_openblas.__wrapped__
    first = threading.Thread(target=lookup, name="first")
    first.start()
    assert first_loading.wait(10)
    assert lookup() is None
    first.join(10)
    assert not first.is_alive()
    spin = str(verifier_mod.OPENBLAS_THREAD_TIMEOUT)
    assert seen == {"first": spin, threading.current_thread().name: spin}
    assert "OPENBLAS_THREAD_TIMEOUT" not in os.environ


def test_repeated_solves_load_once_and_share_each_typed_routine(monkeypatch):
    if REAL_OPENBLAS is None:
        pytest.skip("scipy's wheel bundles no OpenBLAS here")
    loads = []
    load = verifier_mod.ctypes.CDLL

    def counting_load(path):
        loads.append(path)
        return load(path)

    monkeypatch.setattr(verifier_mod.ctypes, "CDLL", counting_load)
    ham = _hamiltonian("morse_pt2", 101)
    d, e = ham.diagonal.real, np.full(ham.dimension - 1, ham.off_diagonal)
    _clear_lookup_caches()
    try:
        looked_up = []
        for _ in range(2):
            verifier_mod._hessenberg_eigvals(ham)
            verifier_mod._eigh_tridiagonal(d, e, 5)
            looked_up.append([verifier_mod._lapack(*routine) for routine in ROUTINES])
    finally:
        _clear_lookup_caches()
    assert loads == [REAL_OPENBLAS._name]
    first, second = looked_up
    assert all(a is b for a, b in zip(first, second))
    assert [len(routine.argtypes) for routine in first] == [n for _, n in ROUTINES]


REAL_WELL = ("[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n\n"
             "[grid]\nx_min = -3\nx_max = 30\nn_points = 400\n\n"
             "[run]\nmode = self-consistent\nn_max = 3\ntol_abs = 0.1\n")
COMPLEX_WELL = ("[model]\nfamily = poschl_teller\nv0 = 8+1i\nq = 1+0.3i\n\n"
                "[grid]\nn_points = 201\n\n[run]\nn_max = 1\n")


@pytest.mark.parametrize("text", [REAL_WELL, COMPLEX_WELL], ids=["real", "complex"])
def test_verify_takes_its_routines_from_scipy_libs(text, tmp_path, capsys, replace_openblas):
    lookup = verifier_mod._bundled_openblas
    if None in [verifier_mod._lapack(*routine) for routine in ROUTINES]:
        pytest.skip("scipy's bundled OpenBLAS does not export dstebz, zhseqr and zgeev")
    seen = []

    def recording():
        lib = lookup()
        seen.append(os.path.basename(os.path.dirname(lib._name)))
        return lib

    replace_openblas(recording)
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    assert susyhier.cli.main(["verify", "--config", str(path)]) == 0
    capsys.readouterr()
    assert seen and set(seen) == {"scipy.libs"}, seen


def test_no_source_file_names_numpy_libs():
    src = pathlib.Path(susyhier.__file__).parent
    naming = [path.name for path in sorted(src.glob("*.py"))
              if "numpy.libs" in path.read_text(encoding="utf-8")]
    assert naming == []


SPIN_PROBE = """
import os, sys
{before}
from susyhier import verifier
from susyhier.cli import main
if sys.argv[1]:
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        fh.write("[model]\\nfamily = morse_pt1\\nv1 = 16\\nv2 = 12\\n\\n[grid]\\nn_points = 201\\n")
    assert main(["verify", "--config", sys.argv[1], "--out", sys.argv[1] + ".csv"]) == 0
lib = verifier._bundled_openblas()
print(lib.openblas_thread_timeout(), lib.scipy_openblas_get_num_threads(),
      os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
"""


def _spin_probe(config, before="", user_timeout=None):
    """(idle-spin exponent, thread count, OPENBLAS_THREAD_TIMEOUT or None) that
    scipy's OpenBLAS reads in a fresh process after `before` and, given a
    config path, a verify of a complex well."""
    if not hasattr(REAL_OPENBLAS, "openblas_thread_timeout"):
        pytest.skip("scipy's wheel bundles no OpenBLAS here")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    if user_timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = user_timeout
    src = os.path.dirname(os.path.dirname(os.path.abspath(susyhier.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", SPIN_PROBE.format(before=before), str(config)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    timeout, threads, variable = proc.stdout.split()
    return int(timeout), int(threads), None if variable == "None" else variable


def test_complex_verify_loads_scipy_openblas_with_the_short_idle_spin(tmp_path):
    timeout, threads, variable = _spin_probe(tmp_path / "complex.ini")
    assert timeout == verifier_mod.OPENBLAS_THREAD_TIMEOUT
    assert variable is None
    # zhseqr's roundoff, and so the box-state levels, follow the thread count
    _, scipy_only_threads, _ = _spin_probe("", before="import scipy.linalg")
    assert threads == scipy_only_threads


def test_user_thread_timeout_wins(tmp_path):
    timeout, _, variable = _spin_probe(tmp_path / "complex.ini", user_timeout="26")
    assert (timeout, variable) == (26, "26")


def test_scipy_imported_first_keeps_the_openblas_default(tmp_path):
    # OpenBLAS reads the variable when the file is first loaded; 0 is its default
    timeout, _, variable = _spin_probe(tmp_path / "complex.ini", before="import scipy.linalg")
    assert (timeout, variable) == (0, None)
