"""Finite-difference cross-check of the closed-form spectra.

Three-point Laplacian on a uniform grid with Dirichlet walls.  Real-valued
wells go through LAPACK's tridiagonal bisection in the OpenBLAS that numpy
has loaded (`_eigh_tridiagonal`), so they never import scipy.
Convergence is certified by comparing spacings h and h/2 and reporting the
Richardson-extrapolated eigenvalues; `verify` asks for eigenvalues only, and
for a complex well it runs LAPACK's Hessenberg QR (`zhseqr`) on H directly
(`_hessenberg_eigvals`): H is already tridiagonal, so the balancing and the
Hessenberg reduction that `zgeev` runs first leave it unchanged, and the
result is bit for bit `zgeev`'s.  `zhseqr` comes from the OpenBLAS file that
scipy's wheel bundles, opened by path, so that solve imports no scipy
either; without that file it falls back to `scipy.linalg.eigvals`.  The
reality scan needs only the states below the continuum and solves for those
alone (`_states_below`) with scipy's dense and Arnoldi solvers, and runs
its Arnoldi solve on one BLAS thread (`_one_blas_thread`).
"""
from __future__ import annotations

import ctypes
import functools
import glob
import importlib.util
import math
import os
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .errors import InvalidModelError, NotConvergedError, PoleOnDomainError
from .grids import Grid, ScanAxis
from .potentials import (PoschlTeller, PotentialModel, ensure_no_pole, eval_potential,
                         reality_condition)
from .spectra import EnergyRecord
from .units import UnitSystem, DEFAULT_UNITS

# an interior eigenvector component at the wall must be this small, relative
# to the peak, for the state to count as bound
EDGE_DECAY_RTOL = 1e-6

# a bound state lies below the continuum edge, the x -> +infinity limit of every well here
CONTINUUM_EDGE = 0.0

# shift-invert Arnoldi asks for at most this many eigenpairs at first and
# doubles the count until the numerical-range certificate holds; a grid with
# N - 1 <= ARNOLDI_START_K interior points goes to the dense solver instead
ARNOLDI_START_K = 16

# the first Arnoldi call asks for this many eigenpairs beyond the number of
# levels that the Hermitian part of H has below the threshold
ARNOLDI_MARGIN = 4

# verify solves for this many levels beyond the admissible ones, so that box
# states or conjugate partners sorted in among them cannot crowd a bound level out
VERIFY_EXTRA_LEVELS = 5

# two levels whose distance from each other's conjugate is within this share
# of max(1, |E|) form a conjugate pair whose real parts tie to roundoff
CONJUGATE_TIE_RTOL = 1e-8

# zgeev scales A first unless ZGEEV_SMLNUM <= max |a_ij| <= 1 / ZGEEV_SMLNUM
# (LAPACK's sqrt(safmin) / eps, with safmin and eps from dlamch('S') and dlamch('P'))
ZGEEV_SMLNUM = math.sqrt(np.finfo(float).tiny) / np.finfo(float).eps


@dataclass(frozen=True)
class DiscretizedHamiltonian:
    """Tridiagonal operator over the interior points of a grid (Dirichlet walls)."""

    grid: Grid
    diagonal: np.ndarray
    off_diagonal: float

    @property
    def dimension(self) -> int:
        return len(self.diagonal)

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.diagonal.imag == 0.0))

    def dense(self) -> np.ndarray:
        """H as one N x N array, in Fortran order so LAPACK can work in place."""
        n = self.dimension
        m = np.zeros((n, n), dtype=complex, order="F")
        np.fill_diagonal(m, self.diagonal)
        i = np.arange(n - 1)
        m[i, i + 1] = m[i + 1, i] = self.off_diagonal
        return m


def build_hamiltonian(model: PotentialModel, grid: Grid,
                      units: UnitSystem = DEFAULT_UNITS) -> DiscretizedHamiltonian:
    """H = -(hbar^2/2m) d^2/dx^2 + V with the 3-point stencil; a diagonal
    that overflows (parameters or units out of range) raises InvalidModelError."""
    ensure_no_pole(model, grid.x_min, grid.x_max)
    x = grid.points()[1:-1]
    t = units.kinetic / grid.h**2
    with np.errstate(all="ignore"):
        diagonal = 2.0 * t + np.asarray(eval_potential(model, x), dtype=complex)
    if not np.isfinite(diagonal).all():
        raise InvalidModelError("V or hbar^2/(2m h^2) is not finite on this grid")
    return DiscretizedHamiltonian(grid=grid, diagonal=diagonal, off_diagonal=-t)


@dataclass(frozen=True)
class NumericSpectrum:
    """Eigenvalues sorted by (Re, Im); eigenvector columns align with them."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    grid: Grid
    converged: bool
    richardson_delta: float


def _ref(value, kind):
    return ctypes.byref(kind(value))


def _scipy_openblas_paths() -> list:
    """The OpenBLAS files that scipy's wheel bundles in `scipy.libs`, beside
    scipy's package directory, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return []
    site = os.path.dirname(os.path.abspath(spec.submodule_search_locations[0]))
    return glob.glob(os.path.join(site, "scipy.libs", "libscipy_openblas*.so"))


@functools.lru_cache(maxsize=None)
def _zhseqr():
    """(zhseqr, zgeev, integer type) from scipy's bundled OpenBLAS, or None
    where that file or its routines are missing.

    scipy.linalg.eigvals runs zgeev in that library.  numpy's OpenBLAS
    exports zhseqr too, but it is another OpenBLAS version, whose roundoff
    differs from eigvals'.
    """
    return _lapack_routines(_open_libraries(_scipy_openblas_paths()),
                            (("zhseqr", 13), ("zgeev", 14)))


def _zgeev_lwork(zgeev, int_t, h: np.ndarray) -> int:
    """The workspace size that eigvals gives zgeev for the eigenvalues of the
    N x N h: zgeev's own workspace query (lwork = -1), which reads no array."""
    n = h.shape[0]
    one = np.zeros(1, dtype=complex)  # every array but h; the query writes the size to work[0]
    info = int_t(0)
    zgeev(b"N", b"N", _ref(n, int_t), h.ctypes, _ref(n, int_t), one.ctypes, one.ctypes,
          _ref(1, int_t), one.ctypes, _ref(1, int_t), one.ctypes, _ref(-1, int_t), one.ctypes,
          ctypes.byref(info))
    return int(one[0].real)


def _hessenberg_eigvals(ham: DiscretizedHamiltonian) -> np.ndarray:
    """Every eigenvalue of H, bit for bit as `scipy.linalg.eigvals` gives them.

    `eigvals` calls zgeev, which balances H (zgebal), reduces it to
    Hessenberg form (zgehrd) and runs the QR iteration zhseqr('E', 'N') on
    rows and columns ilo..ihi.  H is tridiagonal with one nonzero real
    off-diagonal value, so every row has the same off-diagonal norm as its
    column: balancing permutes nothing (ilo = 1, ihi = N) and scales by 1,
    and the reduction finds every Householder tau = 0.  Both steps leave H
    as it is, and zhseqr is called here on H with the same ilo, ihi and
    workspace size as zgeev gives it (`lwork` from zgeev's own workspace
    query, as eigvals asks); the workspace sets zhseqr's number of shifts,
    so zhseqr's own workspace query would change the roundoff.  Where zgeev
    would scale H first (max |H| out of range) or could permute it (a zero
    off-diagonal), where H is not finite (eigvals raises ValueError) and
    where scipy's OpenBLAS is not found (`_zhseqr`), eigvals runs.
    """
    n = ham.dimension
    lapack = _zhseqr()
    # NaN fails the range test too, so a non-finite H reaches eigvals' check
    anrm = np.abs(ham.diagonal).max(initial=abs(ham.off_diagonal))
    if (lapack is None or ham.off_diagonal == 0
            or not ZGEEV_SMLNUM <= anrm <= 1.0 / ZGEEV_SMLNUM):
        from scipy.linalg import eigvals
        return eigvals(ham.dense(), overwrite_a=True)
    zhseqr, zgeev, int_t = lapack
    h = ham.dense()  # Fortran-ordered complex N x N, overwritten by zhseqr
    lwork = _zgeev_lwork(zgeev, int_t, h)
    w = np.empty(n, dtype=complex)
    work = np.empty(lwork, dtype=complex)
    z = np.empty(1, dtype=complex)  # not referenced with compz = 'N'
    info = int_t(0)
    zhseqr(b"E", b"N", _ref(n, int_t), _ref(1, int_t), _ref(n, int_t), h.ctypes,
           _ref(n, int_t), w.ctypes, z.ctypes, _ref(1, int_t), work.ctypes,
           _ref(lwork, int_t), ctypes.byref(info))
    if info.value != 0:
        raise LinAlgError(f"eig algorithm (zhseqr) did not converge (info = {info.value})")
    return w


def _converges(solve):
    """solve, with LAPACK's non-convergence (LinAlgError) raised as NotConvergedError."""
    @functools.wraps(solve)
    def checked(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except LinAlgError as exc:
            raise NotConvergedError(str(exc)) from exc
    return checked


@_converges
def _sorted_eig(ham: DiscretizedHamiltonian, k: int, vectors: bool = True):
    """k lowest eigenvalues by (Re, Im) and, with vectors, their eigenvector
    columns (else None).  Without vectors a complex H goes straight to zhseqr
    (`_hessenberg_eigvals`): zgeev's balancing and Hessenberg reduction leave
    a tridiagonal H unchanged, so the values are eigvals' bit for bit."""
    k = min(k, ham.dimension)
    if ham.is_real:
        d, e = ham.diagonal.real, np.full(ham.dimension - 1, ham.off_diagonal)
        vals, vecs = _eigh_tridiagonal(d, e, "i", (0, k - 1), vectors)
        return vals.astype(complex), None if vecs is None else vecs.astype(complex)
    if not vectors:
        vals = _hessenberg_eigvals(ham)
        return vals[np.lexsort((vals.imag, vals.real))[:k]], None
    from scipy.linalg import eig
    vals, vecs = eig(ham.dense(), right=True, overwrite_a=True)
    order = np.lexsort((vals.imag, vals.real))[:k]
    return vals[order], vecs[:, order]


def _open_libraries(paths) -> list:
    """The files among paths that load, as ctypes libraries in path order."""
    libs = []
    for path in sorted(paths):
        with suppress(OSError):
            libs.append(ctypes.CDLL(path))
    return libs


def _loaded_openblas() -> list:
    """Every OpenBLAS mapped into this process (numpy and scipy may each load
    their own) as ctypes libraries in path order; empty without /proc/self/maps."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {f[5] for f in (line.rstrip("\n").split(maxsplit=5) for line in fh)
                     if len(f) == 6 and "openblas" in os.path.basename(f[5])}
    except OSError:
        return []
    return _open_libraries(paths)


# LAPACK routine names in the OpenBLAS of numpy and scipy wheels, and their integer type
_LAPACK_SYMBOLS = (("scipy_{}_64_", ctypes.c_int64), ("scipy_{}_", ctypes.c_int32))


def _lapack_routines(libs: list, routines: Sequence[tuple[str, int]]):
    """(routine, ..., integer type) from the first library in libs that exports
    every (name, number of arguments) in routines, or None."""
    for lib in libs:
        for name, int_t in _LAPACK_SYMBOLS:
            found = [getattr(lib, name.format(r), None) for r, _ in routines]
            if None not in found:
                for routine, (_, n_args) in zip(found, routines):
                    routine.argtypes, routine.restype = [ctypes.c_void_p] * n_args, None
                return (*found, int_t)
    return None


@functools.lru_cache(maxsize=None)
def _stebz_stein():
    """(dstebz, dstein, integer type) of the first loaded OpenBLAS that exports
    both, or None.  numpy's wheels bundle one with LAPACK, mapped at
    `import numpy`; a library once loaded stays, so the answer is cached."""
    return _lapack_routines(_loaded_openblas(), (("dstebz", 18), ("dstein", 13)))


@_converges
def _eigh_tridiagonal(d: np.ndarray, e: np.ndarray, select: str, select_range,
                      vectors: bool):
    """(values, vectors or None) of the real tridiagonal (d, e), bit for bit as
    `scipy.linalg.eigh_tridiagonal(d, e, not vectors, select, select_range)`.

    That runs LAPACK's bisection dstebz (abstol 0, ORDER 'E' for values only,
    else 'B' followed by inverse iteration dstein and an argsort); the same
    calls go here to a loaded OpenBLAS (`_stebz_stein`), without scipy.
    eigh_tridiagonal itself runs where none exports them, for N = 1, for
    non-finite input and where LAPACK reports an error.
    """
    d, e = np.ascontiguousarray(d, dtype=float), np.ascontiguousarray(e, dtype=float)
    n, lapack = len(d), _stebz_stein()
    if lapack is not None and n > 1 and np.isfinite(d).all() and np.isfinite(e).all():
        stebz, stein, int_t = lapack
        vl, vu = map(float, select_range) if select == "v" else (0.0, 1.0)
        il, iu = (1, 1) if select == "v" else (select_range[0] + 1, select_range[1] + 1)
        m, nsplit, info = int_t(0), int_t(0), int_t(0)
        w, iblock, isplit = np.zeros(n), np.zeros(n, int_t), np.zeros(n, int_t)
        stebz(select.upper().encode(), b"B" if vectors else b"E", _ref(n, int_t),
              _ref(vl, ctypes.c_double), _ref(vu, ctypes.c_double), _ref(il, int_t),
              _ref(iu, int_t), _ref(0.0, ctypes.c_double), d.ctypes, e.ctypes,
              ctypes.byref(m), ctypes.byref(nsplit), w.ctypes, iblock.ctypes, isplit.ctypes,
              np.zeros(4 * n).ctypes, np.zeros(3 * n, int_t).ctypes, ctypes.byref(info))
        w = w[:m.value]
        if info.value == 0 and not vectors:
            return w, None
        if info.value == 0:
            z = np.zeros((n, m.value), order="F")
            stein(_ref(n, int_t), d.ctypes, e.ctypes, ctypes.byref(m), w.ctypes,
                  iblock.ctypes, isplit.ctypes, z.ctypes, _ref(n, int_t),
                  np.zeros(5 * n).ctypes, np.zeros(n, int_t).ctypes,
                  np.zeros(m.value, int_t).ctypes, ctypes.byref(info))
            if info.value == 0:
                order = np.argsort(w)
                return w[order], z[:, order]
    from scipy.linalg import eigh_tridiagonal
    found = eigh_tridiagonal(d, e, eigvals_only=not vectors, select=select,
                             select_range=select_range)
    return found if vectors else (found, None)


@functools.lru_cache(maxsize=None)
def _openblas_setters() -> tuple:
    """`openblas_set_num_threads_local` of every OpenBLAS loaded in this process.

    The cap serves the Arnoldi solve, which runs in scipy's OpenBLAS, so
    scipy.linalg is imported before the list is made and cached.  Empty where
    none exports the symbol (another BLAS, OpenBLAS before 0.3.27) or
    /proc/self/maps is absent.
    """
    import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS)
    setters = [lib.openblas_set_num_threads_local for lib in _loaded_openblas()
               if hasattr(lib, "openblas_set_num_threads_local")]
    for setter in setters:
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
    return tuple(setters)


# the setter changes a thread count the whole process shares, so concurrent
# holders of the cap are counted: the first one in saves the counts and the
# last one out restores them
_blas_cap_lock = threading.Lock()
_blas_cap_holders = 0
_blas_cap_saved: list = []


@contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread.

    ARPACK's reverse-communication loop makes many small BLAS calls, on
    which a second OpenBLAS thread only spins.  The counts are restored on
    exit, also when the block raises; without a setter this does nothing.
    """
    global _blas_cap_holders, _blas_cap_saved
    with _blas_cap_lock:
        if _blas_cap_holders == 0:
            _blas_cap_saved = [(setter, setter(1)) for setter in _openblas_setters()]
        _blas_cap_holders += 1
    try:
        yield
    finally:
        with _blas_cap_lock:
            _blas_cap_holders -= 1
            if _blas_cap_holders == 0:
                for setter, count in _blas_cap_saved:
                    setter(count)


def _certified_nearest(ham: DiscretizedHamiltonian, sigma: complex, radius: float,
                       k: int):
    """Eigenpairs nearest sigma, enough of them that the farthest lies beyond radius.

    Shift-invert Arnoldi on the tridiagonal H, with k pairs at first and k
    doubling from there; H - sigma is factored once by LAPACK's tridiagonal
    LU, and ARPACK runs on one BLAS thread.  None when N - 1 <= ARNOLDI_START_K,
    when k would reach N - 1, when H - sigma is exactly singular, or when
    ARPACK does not converge.
    """
    n = ham.dimension
    if n - 1 <= ARNOLDI_START_K:
        return None
    from scipy.linalg.lapack import zgttrf, zgttrs
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs
    off = np.full(n - 1, ham.off_diagonal, dtype=complex)
    dl, d, du, du2, ipiv, info = zgttrf(off, ham.diagonal - sigma, off)
    if info != 0:
        return None
    op = LinearOperator((n, n), matvec=lambda b: zgttrs(dl, d, du, du2, ipiv, b)[0],
                        dtype=complex)
    # a fixed start vector with no symmetry keeps the output deterministic and
    # overlaps every eigenvector, odd ones in a symmetric well included
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n).astype(complex)
    while k < n - 1:
        try:
            with _one_blas_thread():
                mu, vecs = eigs(op, k=k, which="LM", v0=v0, tol=0)
        except ArpackNoConvergence:
            return None
        vals = sigma + 1.0 / mu
        if np.abs(vals - sigma).max() > radius:
            return vals, vecs
        k *= 2
    return None


def _states_below(ham: DiscretizedHamiltonian) -> NumericSpectrum:
    """Every eigenpair with Re E < CONTINUUM_EDGE, sorted by (Re, Im).

    With V = diagonal + 2 off_diagonal the potential on the interior points,
    the numerical range of H, and so every eigenvalue, lies in
    Re E > min Re V, min Im V <= Im E <= max Im V: the Laplacian part is
    positive definite and real.  Real wells take the window
    (min V - 1, CONTINUUM_EDGE] of the tridiagonal solver.  Complex wells
    take the eigenvalues nearest the centre of the box
    [min Re V, CONTINUUM_EDGE] x [min Im V, max Im V] until the farthest of
    them lies outside the circle around the box, which proves that none
    inside it is missing; the dense solver takes over where shift-invert
    Arnoldi cannot give that proof.  The first Arnoldi call asks for as many
    pairs as the Hermitian part Re H has levels in the same window, plus
    ARNOLDI_MARGIN, at most ARNOLDI_START_K: that count follows the depth of
    the well, and the certificate corrects a guess that falls short.
    """
    n = ham.dimension
    v = ham.diagonal + 2.0 * ham.off_diagonal
    vals = np.zeros(0, dtype=complex)
    vecs = np.zeros((n, 0), dtype=complex)
    if v.real.min() < CONTINUUM_EDGE:
        d, e = ham.diagonal.real, np.full(n - 1, ham.off_diagonal)
        window = (v.real.min() - 1.0, CONTINUUM_EDGE)
        if ham.is_real:
            vals, vecs = _eigh_tridiagonal(d, e, "v", window, True)
        else:
            m = len(_eigh_tridiagonal(d, e, "v", window, False)[0])
            sigma = complex(0.5 * (v.real.min() + CONTINUUM_EDGE),
                            0.5 * (v.imag.min() + v.imag.max()))
            found = _certified_nearest(ham, sigma,
                                       abs(complex(CONTINUUM_EDGE, v.imag.max()) - sigma),
                                       min(ARNOLDI_START_K, m + ARNOLDI_MARGIN))
            vals, vecs = found if found is not None else _sorted_eig(ham, n)
        below = vals.real < CONTINUUM_EDGE
        vals, vecs = vals[below], vecs[:, below]
        order = np.lexsort((vals.imag, vals.real))
        vals, vecs = vals[order].astype(complex), vecs[:, order].astype(complex)
    return NumericSpectrum(eigenvalues=vals, eigenvectors=vecs, grid=ham.grid,
                           converged=False, richardson_delta=float("nan"))


def eigen_spectrum(ham: DiscretizedHamiltonian, k: int,
                   vectors: bool = True) -> NumericSpectrum:
    """k lowest-by-real-part eigenpairs of a single discretization.

    With vectors=False only the eigenvalues are computed and `eigenvectors`
    is None.
    """
    if k < 1:
        raise InvalidModelError("k must be positive")
    vals, vecs = _sorted_eig(ham, k, vectors)
    return NumericSpectrum(eigenvalues=vals, eigenvectors=vecs, grid=ham.grid,
                           converged=False, richardson_delta=float("nan"))


def _conjugates_first(vals: np.ndarray) -> np.ndarray:
    """Index order of (Re, Im)-sorted levels that puts the Im < 0 partner first
    in every adjacent conjugate pair whose real parts tie to roundoff."""
    order = np.arange(len(vals))
    i = 0
    while i + 1 < len(vals):
        a, b = vals[i], vals[i + 1]
        if abs(b - np.conj(a)) <= CONJUGATE_TIE_RTOL * max(1.0, abs(a)):
            if a.imag > 0:
                order[i], order[i + 1] = i + 1, i
            i += 2
        else:
            i += 1
    return order


def _richardson_levels(ham: DiscretizedHamiltonian, k: int) -> np.ndarray:
    """The k lowest eigenvalues of one grid, tied conjugate pairs Im < 0 first.

    A complex well's solve looks one level past k, so that a pair which the
    cut splits is ordered too; the dense solver computes every level anyway.
    """
    vals = eigen_spectrum(ham, k if ham.is_real else k + 1, vectors=False).eigenvalues
    return vals[_conjugates_first(vals)[:k]]


def converged_spectrum(model: PotentialModel, grid: Grid, k: int,
                       units: UnitSystem = DEFAULT_UNITS,
                       tol_abs: float = 1e-3) -> NumericSpectrum:
    """Solve at h and h/2, certify |E(h) - E(h/2)| < tol_abs/2, extrapolate.

    The returned eigenvalues are the O(h^4) Richardson combination
    (4 E_{h/2} - E_h)/3 of the levels with the same index on both grids.
    Within a conjugate pair whose real parts tie to roundoff, the (Re, Im)
    order is roundoff too, so on each grid such a pair is put with its
    Im < 0 partner first, and E is never combined with the other grid's E*.
    Neither grid computes eigenvectors, so `eigenvectors` is None.
    """
    coarse = _richardson_levels(build_hamiltonian(model, grid, units), k)
    fine_grid = grid.refined()
    fine = _richardson_levels(build_hamiltonian(model, fine_grid, units), k)
    n = min(len(coarse), len(fine))
    deltas = np.abs(coarse[:n] - fine[:n])
    delta = float(deltas.max()) if n else float("nan")
    extrapolated = (4.0 * fine[:n] - coarse[:n]) / 3.0
    return NumericSpectrum(eigenvalues=extrapolated, eigenvectors=None, grid=fine_grid,
                           converged=bool(delta < tol_abs / 2.0), richardson_delta=delta)


def bound_states(spectrum: NumericSpectrum) -> NumericSpectrum:
    """Keep the eigenpairs with Re E below CONTINUUM_EDGE and decaying tails:
    both wall components of the eigenvector under EDGE_DECAY_RTOL of its peak."""
    if spectrum.eigenvectors is None:
        raise InvalidModelError("bound-state filtering needs eigenvectors")
    keep = []
    for j, e in enumerate(spectrum.eigenvalues):
        if e.real >= CONTINUUM_EDGE:
            continue
        v = spectrum.eigenvectors[:, j]
        peak = np.abs(v).max()
        if max(abs(v[0]), abs(v[-1])) < EDGE_DECAY_RTOL * peak:
            keep.append(j)
    idx = np.array(keep, dtype=int)
    return replace(spectrum,
                   eigenvalues=spectrum.eigenvalues[idx],
                   eigenvectors=spectrum.eigenvectors[:, idx])


def conjugate_pairing_ok(eigenvalues: Sequence[complex], tol: Optional[float] = None) -> bool:
    """Every eigenvalue with nonzero imaginary part must have a conjugate partner."""
    vals = np.asarray(eigenvalues, dtype=complex)
    if len(vals) == 0:
        return True
    if tol is None:
        tol = 1e-8 * max(1.0, float(np.abs(vals).max()))
    for e in vals:
        if abs(e.imag) <= tol:
            continue
        if np.abs(vals - np.conjugate(e)).min() > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# comparison against closed forms
# ---------------------------------------------------------------------------

class Verdict(Enum):
    MATCH = "match"
    PARTIAL_MATCH = "partial_match"
    MISMATCH = "mismatch"


@dataclass(frozen=True)
class MatchedPair:
    record: EnergyRecord
    numeric: complex
    abs_err: float
    rel_err: float


@dataclass(frozen=True)
class ComparisonReport:
    pairs: tuple[MatchedPair, ...]
    unmatched_analytic: tuple[EnergyRecord, ...]
    unmatched_numeric: tuple[complex, ...]
    verdict: Verdict
    converged: bool
    richardson_delta: float
    tol_abs: float


def _greedy_pairs(records: Sequence[EnergyRecord], numeric: np.ndarray):
    """Globally greedy nearest-neighbor assignment; independent of input order."""
    candidates = []
    for i, r in enumerate(records):
        for j, e in enumerate(numeric):
            d = abs(r.energy - e)
            candidates.append((d, r.energy.real, r.energy.imag, r.nq.l, r.nq.n,
                               e.real, e.imag, i, j))
    candidates.sort()
    taken_r, taken_n = set(), set()
    assignment = {}
    for cand in candidates:
        i, j = cand[7], cand[8]
        if i in taken_r or j in taken_n:
            continue
        taken_r.add(i)
        taken_n.add(j)
        assignment[i] = j
    return assignment


def verify(model: PotentialModel, analytic: Sequence[EnergyRecord], grid: Grid,
           tol_abs: float = 1e-3, units: UnitSystem = DEFAULT_UNITS) -> ComparisonReport:
    """Match admissible closed-form levels against the certified FD spectrum.

    Each hierarchy depth l is paired on its own: H_l has V's levels from
    index l upward, so the depths share FD levels rather than compete for
    them, and a numeric level is unmatched only if no depth took it.
    """
    admissible = [r for r in analytic if r.admissible]
    if not admissible:
        raise InvalidModelError("no admissible analytic levels to verify")
    admissible.sort(key=lambda r: (r.nq.l, r.nq.n))
    k = len(admissible) + VERIFY_EXTRA_LEVELS
    num = converged_spectrum(model, grid, k, units, tol_abs)
    assignment = {}
    for l in {r.nq.l for r in admissible}:
        depth = [i for i, r in enumerate(admissible) if r.nq.l == l]
        found = _greedy_pairs([admissible[i] for i in depth], num.eigenvalues)
        assignment.update((depth[i], j) for i, j in found.items())
    pairs = []
    matched_n = set()
    unmatched_a = []
    for i, r in enumerate(admissible):
        if i in assignment:
            e = complex(num.eigenvalues[assignment[i]])
            err = abs(r.energy - e)
            rel = err / abs(r.energy) if r.energy != 0 else float("nan")
            pairs.append(MatchedPair(record=r, numeric=e, abs_err=err, rel_err=rel))
            matched_n.add(assignment[i])
        else:
            unmatched_a.append(r)
    unmatched_n = tuple(complex(e) for j, e in enumerate(num.eigenvalues)
                        if j not in matched_n)
    ok = sum(1 for p in pairs if p.abs_err <= tol_abs)
    if ok == len(admissible):
        verdict = Verdict.MATCH
    elif ok == 0:
        verdict = Verdict.MISMATCH
    else:
        verdict = Verdict.PARTIAL_MATCH
    return ComparisonReport(pairs=tuple(pairs), unmatched_analytic=tuple(unmatched_a),
                            unmatched_numeric=unmatched_n, verdict=verdict,
                            converged=num.converged,
                            richardson_delta=num.richardson_delta, tol_abs=tol_abs)


# ---------------------------------------------------------------------------
# parameter-plane reality scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRecord:
    param1: float
    param2: float
    max_im_e: float
    n_retained: int
    is_real: bool
    condition_holds: bool
    status: str


def _with_component(model: PoschlTeller, axis: ScanAxis, value: float) -> PoschlTeller:
    current = getattr(model, axis.param)
    new = (complex(value, current.imag) if axis.component == "re"
           else complex(current.real, value))
    return replace(model, **{axis.param: new})


def reality_scan(model: PoschlTeller, axis1: ScanAxis, axis2: ScanAxis, grid: Grid,
                 tol_imag: float = 1e-6, units: UnitSystem = DEFAULT_UNITS
                 ) -> list[ScanRecord]:
    """Lattice scan of the rational well's spectrum-reality diagnostic.

    At each lattice point the bound part of the FD spectrum is extracted and
    max |Im E| is compared against tol_imag; the parameter condition
    Im(V0) Re(q) = Re(V0) Im(q) is recorded alongside.  Per-point failures
    (a pole crossing the domain, or no bound state to judge) land in the
    status column rather than aborting the scan.  Results come back in
    lattice order (axis1 outer).  The two axes must sweep different components.
    """
    if not isinstance(model, PoschlTeller):
        raise InvalidModelError("reality scan is defined for the rational well")
    if (axis1.param, axis1.component) == (axis2.param, axis2.component):
        raise InvalidModelError(f"scan axes must differ, both sweep {axis1.param} {axis1.component}")

    def one(p1, p2):
        m = _with_component(_with_component(model, axis1, p1), axis2, p2)
        try:
            eigs = bound_states(_states_below(build_hamiltonian(m, grid, units))).eigenvalues
            status = "ok" if len(eigs) else "no_bound_state"
        except PoleOnDomainError:
            eigs, status = np.empty(0, complex), "pole_on_domain"
        max_im = float(np.abs(eigs.imag).max()) if len(eigs) else float("nan")
        return ScanRecord(param1=float(p1), param2=float(p2), max_im_e=max_im,
                          n_retained=len(eigs), is_real=bool(max_im < tol_imag),
                          condition_holds=reality_condition(m.v0, m.q), status=status)

    return [one(p1, p2) for p1 in axis1.values() for p2 in axis2.values()]
