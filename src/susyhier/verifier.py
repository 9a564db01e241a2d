"""Finite-difference cross-check of the closed-form spectra.

Three-point Laplacian on a uniform grid with Dirichlet walls.  Convergence
is certified by comparing spacings h and h/2 and reporting the
Richardson-extrapolated eigenvalues; `verify` asks for eigenvalues only.
Those come from LAPACK through ctypes, from the OpenBLAS file that scipy's
wheel bundles, opened once by path beside scipy's package directory
(`_bundled_openblas`); each routine is looked up and typed once (`_lapack`),
so `verify` imports no scipy.  A real well runs the tridiagonal bisection `dstebz`
(`_eigh_tridiagonal`), bit for bit `scipy.linalg.eigh_tridiagonal`'s.  A
complex well runs the Hessenberg QR `zhseqr` on H directly
(`_hessenberg_eigvals`): H is already tridiagonal, so the balancing and the
Hessenberg reduction that `zgeev` runs first leave it unchanged, and the
result is bit for bit `zgeev`'s.  Without that file both solves fall back
to scipy; eigenvectors always come from scipy.  Where the lookup is the
first to load the file (a `verify` before any `import scipy`), the file's
idle worker threads spin 2**OPENBLAS_THREAD_TIMEOUT cycles before they
sleep, not OpenBLAS's 2**28, on the same thread count; a value of that
variable the user set wins.  Every full or index-cut solve goes through
`eigen_spectrum`, which alone orders an FD spectrum; the reality scan's
targeted solve `_states_below` does not.  It finds a superset of the
states below the continuum in a value window of the tridiagonal solver,
with scipy's Arnoldi solver, or with `eigen_spectrum` where Arnoldi cannot
certify the set, and `bound_states` alone applies the continuum rule.  The
Arnoldi solve runs with scipy's OpenBLAS on one thread and numpy's at its
own count, and Arnoldi solves on other threads wait their turn
(`_one_blas_thread`).  It stops at the accuracy the scan's verdict needs:
ARPACK's tolerance is tol_imag / 100 over the radius of the certification
circle (at most ARNOLDI_MAX_TOL), which bounds the error of every
eigenvalue inside the circle by tol_imag / 100 times its condition number,
so the hundredfold margin covers condition numbers up to 100; for k pairs
its Krylov basis holds 2k + 1 vectors.
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

# shift-invert Arnoldi asks for this many eigenpairs at first and doubles the
# count until the numerical-range certificate holds; every point of the scan
# lattices certifies at 8, and PoschlTeller(300+2i, 1+0.3i) at 16
ARNOLDI_START_K = 8

# ARPACK's relative tolerance is at most this: at tol >= 1 no value can lie beyond
# the circle by more than its error bound tol |E - sigma|, so k would double to
# N - 1; the cap only tightens, where accuracy / radius exceeds it
ARNOLDI_MAX_TOL = 0.01

# a complex well's verify solves for this many levels beyond the admissible
# ones, so that box states or conjugate partners sorted by (Re, Im) in among
# them cannot crowd a bound level out; a real well's levels come ascending and
# verify solves exactly the ones its records index
VERIFY_EXTRA_LEVELS = 5

# two levels whose distance from each other's conjugate is within this share
# of max(1, |E|) form a conjugate pair whose real parts tie to roundoff
CONJUGATE_TIE_RTOL = 1e-8

# zgeev scales A first unless ZGEEV_SMLNUM <= max |a_ij| <= 1 / ZGEEV_SMLNUM
# (LAPACK's sqrt(safmin) / eps, with safmin and eps from dlamch('S') and dlamch('P'))
ZGEEV_SMLNUM = math.sqrt(np.finfo(float).tiny) / np.finfo(float).eps

# an idle OpenBLAS worker spins 2**OPENBLAS_THREAD_TIMEOUT cycles (2**28 by
# default) before it sleeps, and zhseqr leaves such gaps between its parallel
# calls; only the spin is shortened, since the thread count sets zhseqr's roundoff
OPENBLAS_THREAD_TIMEOUT = 20
_openblas_load_lock = threading.Lock()


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
    """Eigenvalues sorted by (Re, Im), each conjugate pair whose real parts tie
    to roundoff Im < 0 first, except `_states_below`'s; eigenvectors align."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    grid: Grid
    converged: bool = False
    richardson_delta: float = float("nan")


# scipy's wheels export LAPACK routine <name> as scipy_<name>_, with 32-bit integers
_LAPACK_SYMBOL = "scipy_{}_"
_LAPACK_INT = ctypes.c_int32


def _ref(value, kind=_LAPACK_INT):
    return ctypes.byref(kind(value))


@functools.lru_cache(maxsize=None)
def _bundled_openblas():
    """The OpenBLAS file that scipy's wheel bundles in `scipy.libs`, beside
    scipy's package directory, as a ctypes library: the first in path order
    that loads, found without importing scipy; None where none loads."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    site = os.path.dirname(os.path.abspath(spec.submodule_search_locations[0]))
    paths = sorted(glob.glob(os.path.join(site, "scipy.libs", "libscipy_openblas*.so")))
    # the file loads with the short idle spin unless the user set one, or it was
    # loaded before; first calls on two threads take turns with the variable
    with _openblas_load_lock:
        preset = "OPENBLAS_THREAD_TIMEOUT" in os.environ
        os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", str(OPENBLAS_THREAD_TIMEOUT))
        try:
            for path in paths:
                with suppress(OSError):
                    return ctypes.CDLL(path)
        finally:
            if not preset:
                os.environ.pop("OPENBLAS_THREAD_TIMEOUT", None)
    return None


@functools.lru_cache(maxsize=None)
def _lapack(name: str, n_args: int):
    """LAPACK routine `name` of scipy's bundled OpenBLAS, typed for its n_args
    pointer arguments, or None where that file or the routine is missing.

    scipy.linalg runs its LAPACK calls in that library.  numpy's OpenBLAS
    exports the routines too, but it is another OpenBLAS version, whose
    roundoff differs from scipy's.
    """
    routine = getattr(_bundled_openblas(), _LAPACK_SYMBOL.format(name), None)
    if routine is not None:
        routine.argtypes, routine.restype = [ctypes.c_void_p] * n_args, None
    return routine


def _zgeev_lwork(zgeev, h: np.ndarray) -> int:
    """The workspace size that eigvals gives zgeev for the eigenvalues of the
    N x N h: zgeev's own workspace query (lwork = -1), which reads no array."""
    n = h.shape[0]
    one = np.zeros(1, dtype=complex)  # every array but h; the query writes the size to work[0]
    info = _LAPACK_INT(0)
    zgeev(b"N", b"N", _ref(n), h.ctypes, _ref(n), one.ctypes, one.ctypes, _ref(1), one.ctypes,
          _ref(1), one.ctypes, _ref(-1), one.ctypes, ctypes.byref(info))
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
    where scipy's OpenBLAS does not export zhseqr and zgeev, eigvals runs.
    """
    n = ham.dimension
    zhseqr, zgeev = _lapack("zhseqr", 13), _lapack("zgeev", 14)
    # NaN fails the range test too, so a non-finite H reaches eigvals' check
    anrm = np.abs(ham.diagonal).max(initial=abs(ham.off_diagonal))
    if (zhseqr is None or zgeev is None or ham.off_diagonal == 0
            or not ZGEEV_SMLNUM <= anrm <= 1.0 / ZGEEV_SMLNUM):
        from scipy.linalg import eigvals
        return eigvals(ham.dense(), overwrite_a=True)
    h = ham.dense()  # Fortran-ordered complex N x N, overwritten by zhseqr
    lwork = _zgeev_lwork(zgeev, h)
    w = np.empty(n, dtype=complex)
    work = np.empty(lwork, dtype=complex)
    z = np.empty(1, dtype=complex)  # not referenced with compz = 'N'
    info = _LAPACK_INT(0)
    zhseqr(b"E", b"N", _ref(n), _ref(1), _ref(n), h.ctypes, _ref(n), w.ctypes, z.ctypes,
           _ref(1), work.ctypes, _ref(lwork), ctypes.byref(info))
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


def _eigh_tridiagonal(d: np.ndarray, e: np.ndarray, k: int) -> np.ndarray:
    """The k lowest eigenvalues of the real tridiagonal (d, e), ascending, bit
    for bit as `scipy.linalg.eigh_tridiagonal(d, e, True, "i", (0, k - 1))`.

    That runs LAPACK's bisection dstebz (RANGE 'I', abstol 0, ORDER 'E'); the
    same call goes here to scipy's bundled OpenBLAS, without importing scipy.
    eigh_tridiagonal itself runs where that file does not export it and for
    non-finite input; dstebz's error (info != 0) raises LinAlgError.
    """
    d, e = np.ascontiguousarray(d, dtype=float), np.ascontiguousarray(e, dtype=float)
    stebz = _lapack("dstebz", 18)
    if stebz is None or not (np.isfinite(d).all() and np.isfinite(e).all()):
        from scipy.linalg import eigh_tridiagonal
        return eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, k - 1))
    n = len(d)
    m, nsplit, info = _LAPACK_INT(0), _LAPACK_INT(0), _LAPACK_INT(0)
    w, iblock, isplit = np.zeros(n), np.zeros(n, _LAPACK_INT), np.zeros(n, _LAPACK_INT)
    # vl and vu are not referenced with RANGE 'I'
    stebz(b"I", b"E", _ref(n), _ref(0.0, ctypes.c_double), _ref(1.0, ctypes.c_double),
          _ref(1), _ref(k), _ref(0.0, ctypes.c_double),
          d.ctypes, e.ctypes, ctypes.byref(m), ctypes.byref(nsplit), w.ctypes, iblock.ctypes,
          isplit.ctypes, np.zeros(4 * n).ctypes, np.zeros(3 * n, _LAPACK_INT).ctypes,
          ctypes.byref(info))
    if info.value != 0:
        raise LinAlgError(f"stebz did not converge (LAPACK info = {info.value})")
    return w[:m.value]


# the setter changes a thread count the whole process shares, so holders of
# the cap on different threads take turns
_blas_cap_lock = threading.Lock()


@contextmanager
def _one_blas_thread():
    """Run the block with scipy's bundled OpenBLAS on one thread.

    ARPACK's reverse-communication loop makes many small BLAS calls, on
    which a second OpenBLAS thread only spins; numpy's OpenBLAS keeps its
    count.  The count is restored on exit, also when the block raises, and
    a block on another thread starts only after that; where that file does
    not export `openblas_set_num_threads_local` (another BLAS, OpenBLAS
    before 0.3.27) this does nothing.  ctypes passes and returns C ints by
    default, which is the setter's signature.
    """
    setter = getattr(_bundled_openblas(), "openblas_set_num_threads_local", None)
    with _blas_cap_lock:
        saved = None if setter is None else setter(1)
        try:
            yield
        finally:
            if setter is not None:
                setter(saved)


@_converges
def _states_below(ham: DiscretizedHamiltonian, accuracy: float) -> NumericSpectrum:
    """A superset of the eigenpairs with Re E < CONTINUUM_EDGE, in no set order
    (`bound_states` drops the rest); complex wells' eigenvalues within accuracy.

    With V = diagonal + 2 off_diagonal the potential on the interior points,
    the numerical range of H, and so every eigenvalue, lies in
    Re E > min Re V, min Im V <= Im E <= max Im V: the Laplacian part is
    positive definite and real.  Real wells take the window
    (min V - 1, CONTINUUM_EDGE] of the tridiagonal solver.  Complex wells
    take the k eigenpairs nearest the centre sigma of the box
    [min Re V, CONTINUUM_EDGE] x [min Im V, max Im V] by shift-invert
    Arnoldi: H - sigma is factored once by LAPACK's tridiagonal LU, and
    ARPACK runs on one BLAS thread with a Krylov basis of 2k + 1 vectors,
    k = ARNOLDI_START_K at first and doubling, until the farthest value lies
    outside the circle around the box by more than its own error bound,
    which proves that none inside it is missing.  ARPACK accepts a Ritz
    value mu of (H - sigma)^-1 once its residual is below tol |mu|, and
    E = sigma + 1/mu then errs by about tol |E - sigma|, so tol = accuracy /
    radius (at most ARNOLDI_MAX_TOL) bounds that error by accuracy inside
    the circle.  The dense solver takes over where H - sigma is exactly
    singular, where k would reach N - 1 (ARPACK's limit; a grid too small
    for the first k included) and where ARPACK does not converge.
    """
    n = ham.dimension
    v = ham.diagonal + 2.0 * ham.off_diagonal
    if v.real.min() >= CONTINUUM_EDGE:
        return NumericSpectrum(eigenvalues=np.zeros(0, dtype=complex),
                               eigenvectors=np.zeros((n, 0), dtype=complex), grid=ham.grid)
    if ham.is_real:
        from scipy.linalg import eigh_tridiagonal
        d, e = ham.diagonal.real, np.full(n - 1, ham.off_diagonal)
        vals, vecs = eigh_tridiagonal(d, e, select="v",
                                      select_range=(v.real.min() - 1.0, CONTINUUM_EDGE))
        return NumericSpectrum(eigenvalues=vals, eigenvectors=vecs, grid=ham.grid)
    from scipy.linalg.lapack import zgttrf, zgttrs
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs
    sigma = complex(0.5 * (v.real.min() + CONTINUUM_EDGE), 0.5 * (v.imag.min() + v.imag.max()))
    radius = abs(complex(CONTINUUM_EDGE, v.imag.max()) - sigma)
    off = np.full(n - 1, ham.off_diagonal, dtype=complex)
    dl, d, du, du2, ipiv, info = zgttrf(off, ham.diagonal - sigma, off)
    if info == 0:
        op = LinearOperator((n, n), matvec=lambda b: zgttrs(dl, d, du, du2, ipiv, b)[0],
                            dtype=complex)
        # a fixed start vector with no symmetry keeps the output deterministic and
        # overlaps every eigenvector, odd ones in a symmetric well included
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n).astype(complex)
        tol, k = min(accuracy / radius, ARNOLDI_MAX_TOL), ARNOLDI_START_K
        with suppress(ArpackNoConvergence), _one_blas_thread():
            while k < n - 1:
                # ARPACK needs k + 1 < ncv <= N, which 2k + 1 capped at N meets for k < N - 1
                mu, vecs = eigs(op, k=k, which="LM", v0=v0, tol=tol, ncv=min(n, 2 * k + 1))
                vals = sigma + 1.0 / mu
                far = np.abs(vals - sigma).max()
                if far - tol * far > radius:
                    return NumericSpectrum(eigenvalues=vals, eigenvectors=vecs, grid=ham.grid)
                k *= 2
    return eigen_spectrum(ham, n)


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


@_converges
def eigen_spectrum(ham: DiscretizedHamiltonian, k: int,
                   vectors: bool = True) -> NumericSpectrum:
    """The k lowest eigenpairs by (Re, Im) of a single discretization.

    A complex H puts each conjugate pair whose real parts tie to roundoff
    (CONJUGATE_TIE_RTOL) Im < 0 first, ordered over one level past k so
    that a pair the cut splits gives its Im < 0 member; each eigenvector
    moves with its value.  With vectors=False only the eigenvalues are
    computed and `eigenvectors` is None; a complex H then goes straight to
    zhseqr (`_hessenberg_eigvals`): zgeev's balancing and Hessenberg
    reduction leave a tridiagonal H unchanged, so the values are eigvals'
    bit for bit.
    """
    if k < 1:
        raise InvalidModelError("k must be positive")
    k = min(k, ham.dimension)
    if ham.is_real:
        d, e = ham.diagonal.real, np.full(ham.dimension - 1, ham.off_diagonal)
        if vectors:
            from scipy.linalg import eigh_tridiagonal
            vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
        else:
            vals, vecs = _eigh_tridiagonal(d, e, k), None
    elif vectors:
        from scipy.linalg import eig
        vals, vecs = eig(ham.dense(), right=True, overwrite_a=True)
    else:
        vals, vecs = _hessenberg_eigvals(ham), None
    if ham.is_real:
        order = slice(k)  # the tridiagonal solvers return their k values ascending
    else:
        order = np.lexsort((vals.imag, vals.real))[:k + 1]
        order = order[_conjugates_first(vals[order])][:k]
    vecs = None if vecs is None else vecs[:, order].astype(complex, copy=False)
    return NumericSpectrum(eigenvalues=vals[order].astype(complex, copy=False),
                           eigenvectors=vecs, grid=ham.grid)


def converged_spectrum(model: PotentialModel, grid: Grid, k: int,
                       units: UnitSystem = DEFAULT_UNITS,
                       tol_abs: float = 1e-3) -> NumericSpectrum:
    """Solve at h and h/2, certify |E(h) - E(h/2)| < tol_abs/2, extrapolate.

    The returned eigenvalues are the O(h^4) Richardson combination
    (4 E_{h/2} - E_h)/3 of the levels with the same index on both grids,
    each grid's k levels in `eigen_spectrum`'s order, so E is never combined
    with the other grid's E*.  Neither grid computes eigenvectors, so
    `eigenvectors` is None.
    """
    fine_grid = grid.refined()
    hams = (build_hamiltonian(model, g, units) for g in (grid, fine_grid))
    coarse, fine = (eigen_spectrum(ham, k, vectors=False).eigenvalues for ham in hams)
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
    index l upward, so level n of H_l is V's level n + l, the depths share
    FD levels rather than compete for them, and a numeric level is
    unmatched only if no depth took it.  A structurally Hermitian well
    solves V's levels 0..max(n + l) of the admissible records, which its
    real H gives in ascending order; any other well solves
    VERIFY_EXTRA_LEVELS more levels than it has admissible records.
    """
    admissible = [r for r in analytic if r.admissible]
    if not admissible:
        raise InvalidModelError("no admissible analytic levels to verify")
    admissible.sort(key=lambda r: (r.nq.l, r.nq.n))
    if model.structurally_hermitian():
        k = max(r.nq.n + r.nq.l for r in admissible) + 1
    else:
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

    # the verdict compares max |Im E| with tol_imag, so a hundredth of it is
    # accuracy enough for eigenvalue condition numbers up to 100
    accuracy = tol_imag / 100

    def one(p1, p2):
        m = _with_component(_with_component(model, axis1, p1), axis2, p2)
        try:
            eigs = bound_states(_states_below(build_hamiltonian(m, grid, units),
                                              accuracy)).eigenvalues
            status = "ok" if len(eigs) else "no_bound_state"
        except PoleOnDomainError:
            eigs, status = np.empty(0, complex), "pole_on_domain"
        max_im = float(np.abs(eigs.imag).max()) if len(eigs) else float("nan")
        return ScanRecord(param1=float(p1), param2=float(p2), max_im_e=max_im,
                          n_retained=len(eigs), is_real=bool(max_im < tol_imag),
                          condition_holds=reality_condition(m.v0, m.q), status=status)

    return [one(p1, p2) for p1 in axis1.values() for p2 in axis2.values()]
