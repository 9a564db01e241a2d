"""Closed-form energy levels and ground-state wavefunctions.

Each family carries one closed-form level formula; levels are indexed by the
oscillator number n and the hierarchy depth l.  Admissibility marks which
(n, l) pairs correspond to genuine bound states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (InvalidModelError, NotNormalizableError, UnsupportedFamilyError,
                     ZeroOmegaError)
from .grids import Grid
from .potentials import (MorseGeneral, MorseNonPT, MorsePT1, MorsePT2, PoschlTeller,
                         PoschlTellerPT, PotentialModel, ensure_no_pole,
                         is_structurally_hermitian, lambda_for, morse_exponential_coefficients)
from .units import UnitSystem, DEFAULT_UNITS


class SpectrumFormula(Enum):
    """Which closed form produced an energy record."""

    MORSE_GENERAL = "morse_general"
    MORSE_COMPLEX = "morse_complex"
    MORSE_SHIFTED = "morse_shifted"
    POSCHL_TELLER = "poschl_teller"
    SELF_CONSISTENT = "self_consistent"


@dataclass(frozen=True)
class QuantumNumbers:
    n: int
    l: int

    def __post_init__(self):
        if self.n < 0 or self.l < 0:
            raise InvalidModelError("quantum numbers must be nonnegative")


@dataclass(frozen=True)
class EnergyRecord:
    nq: QuantumNumbers
    energy: complex
    formula: SpectrumFormula
    admissible: bool


# ---------------------------------------------------------------------------
# level formulas
# ---------------------------------------------------------------------------

def energy_morse_general(lam: complex, q: complex, n: int, l: int) -> complex:
    """E = -(lam q - (2l + n + 1)/2)^2."""
    b = lam * q - (2 * l + n + 1) / 2.0
    return -b * b


def energy_morse_complex(lam: complex, n: int, l: int) -> complex:
    """E = -(lam - (n + 2l + 1)/2)^2."""
    b = lam - (n + 2 * l + 1) / 2.0
    return -b * b


def energy_morse_shifted(d: float, omega: float, n: int, l: int) -> complex:
    """E = -(2l + n + 1 + d/(2 omega))^2."""
    if omega == 0.0:
        raise ZeroOmegaError("omega must be nonzero")
    b = 2 * l + n + 1 + d / (2.0 * omega)
    return complex(-b * b)


def _pt_bracket(n: int, l: int, beta: float) -> float:
    m = n + l + 1
    return 1.0 / m - m * beta / 2.0


def energy_poschl_teller(q: complex, units: UnitSystem, n: int, l: int) -> complex:
    """E = -(q^2 m e^4 / (2 hbar^2)) [1/(n+l+1) - (n+l+1) beta/2]^2."""
    scale = units.mass * units.e_sq**2 / (2.0 * units.hbar**2)
    b = _pt_bracket(n, l, units.beta)
    return -(q * q) * scale * b * b


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def admissible_morse_general(lam: complex, q: complex, n: int, l: int) -> bool:
    """Bound state iff Re(lam q) - (2l + n + 1)/2 > 0."""
    return (lam * q).real - (2 * l + n + 1) / 2.0 > 0.0


def admissible_morse_complex(lam: complex, n: int, l: int) -> bool:
    return lam.real - (n + 2 * l + 1) / 2.0 > 0.0


def admissible_morse_shifted(d: float, omega: float, n: int, l: int) -> bool:
    if omega == 0.0:
        raise ZeroOmegaError("omega must be nonzero")
    return 2 * l + n + 1 + d / (2.0 * omega) > 0.0


def admissible_poschl_teller(units: UnitSystem, n: int, l: int) -> bool:
    """Monotone-energy prefix rule: |bracket| must strictly decrease step by step up to n.

    The bracket is symmetric under (n+l+1) <-> 2/(beta (n+l+1)); the mirror
    level duplicates an energy and is flagged inadmissible here.
    """
    beta = units.beta
    prev = abs(_pt_bracket(0, l, beta))
    for m in range(1, n + 1):
        cur = abs(_pt_bracket(m, l, beta))
        if not cur < prev:
            return False
        prev = cur
    return True


def bound_state_admissible(formula: SpectrumFormula, n: int, l: int, *,
                           lam: Optional[complex] = None, q: Optional[complex] = None,
                           d: Optional[float] = None, omega: Optional[float] = None,
                           units: Optional[UnitSystem] = None,
                           a0: Optional[complex] = None, rate: Optional[complex] = None) -> bool:
    if formula is SpectrumFormula.MORSE_GENERAL:
        return admissible_morse_general(lam, q, n, l)
    if formula is SpectrumFormula.MORSE_COMPLEX:
        return admissible_morse_complex(lam, n, l)
    if formula is SpectrumFormula.MORSE_SHIFTED:
        return admissible_morse_shifted(d, omega, n, l)
    if formula is SpectrumFormula.POSCHL_TELLER:
        return admissible_poschl_teller(units or DEFAULT_UNITS, n, l)
    if formula is SpectrumFormula.SELF_CONSISTENT:
        return (a0 - (n + l) * rate).real > 0.0
    raise UnsupportedFamilyError(f"unknown formula {formula!r}")


# ---------------------------------------------------------------------------
# record builders
# ---------------------------------------------------------------------------

def formula_for(model: PotentialModel) -> SpectrumFormula:
    if isinstance(model, MorseGeneral):
        return SpectrumFormula.MORSE_GENERAL
    if isinstance(model, (MorseNonPT, MorsePT1)):
        return SpectrumFormula.MORSE_COMPLEX
    if isinstance(model, MorsePT2):
        return SpectrumFormula.MORSE_SHIFTED
    if isinstance(model, (PoschlTeller, PoschlTellerPT)):
        return SpectrumFormula.POSCHL_TELLER
    raise UnsupportedFamilyError(f"no level formula for {type(model).__name__}")


def _general_q(model: MorseGeneral) -> complex:
    if model.v1 == 0:
        raise InvalidModelError("v1 must be nonzero for the two-term exponential ansatz")
    return model.v2 / model.v1


def energy_record(model: PotentialModel, n: int, l: int,
                  units: UnitSystem = DEFAULT_UNITS) -> EnergyRecord:
    """Closed-form level of the family's published formula, with admissibility flag."""
    formula = formula_for(model)
    if formula is SpectrumFormula.MORSE_GENERAL:
        lam, q = lambda_for(model, units), _general_q(model)
        e = energy_morse_general(lam, q, n, l)
        ok = admissible_morse_general(lam, q, n, l)
    elif formula is SpectrumFormula.MORSE_COMPLEX:
        lam = lambda_for(model, units)
        e = energy_morse_complex(lam, n, l)
        ok = admissible_morse_complex(lam, n, l)
    elif formula is SpectrumFormula.MORSE_SHIFTED:
        e = energy_morse_shifted(model.d, model.omega, n, l)
        ok = admissible_morse_shifted(model.d, model.omega, n, l)
    else:
        e = energy_poschl_teller(model.q, units, n, l)
        ok = admissible_poschl_teller(units, n, l)
    return EnergyRecord(QuantumNumbers(n, l), complex(e), formula, ok)


def selfconsistent_record(a0: complex, rate: complex, n: int, l: int) -> EnergyRecord:
    """Level of the coefficient-matched ladder: E = -(a0 - (n + l) rate)^2."""
    a = a0 - (n + l) * rate
    return EnergyRecord(QuantumNumbers(n, l), -a * a, SpectrumFormula.SELF_CONSISTENT,
                        a.real > 0.0)


def spectrum_records(model: PotentialModel, n_max: int, l_max: int,
                     units: UnitSystem = DEFAULT_UNITS,
                     self_consistent: bool = False) -> list[EnergyRecord]:
    """Records for l = 0..l_max, n = 0..n_max, ordered by (l, n)."""
    if self_consistent:
        from .hierarchy import solve_selfconsistent_morse
        c2, c1, rate = morse_exponential_coefficients(model)
        sol = solve_selfconsistent_morse(c2, c1, rate)
        return [selfconsistent_record(sol.a, sol.rate, n, l)
                for l in range(l_max + 1) for n in range(n_max + 1)]
    return [energy_record(model, n, l, units)
            for l in range(l_max + 1) for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# ground-state wavefunctions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WavefunctionSample:
    grid: Grid
    values: np.ndarray
    norm_constant: float
    level: QuantumNumbers
    normalized: bool


def _groundstate_values(model: PotentialModel, l: int, x: np.ndarray,
                        units: UnitSystem) -> np.ndarray:
    """Unnormalized closed-form ground-state samples for hierarchy depth l."""
    if isinstance(model, MorseGeneral):
        lam, q = lambda_for(model, units), _general_q(model)
        a = model.alpha
        # psi = exp[-(lam/alpha) e^{-alpha x} - (lam q - (2l+1)/2) x]
        return np.exp(-(lam / a) * np.exp(-a * x) - (lam * q - (2 * l + 1) / 2.0) * x)
    if isinstance(model, MorseNonPT):
        lam = lambda_for(model, units)
        # psi = exp[-i lam e^{-x} - (lam - (2l+1)/2) x]
        return np.exp(-1j * lam * np.exp(-x) - (lam - (2 * l + 1) / 2.0) * x)
    if isinstance(model, MorsePT1):
        lam = lambda_for(model, units)
        # exp(-int W) for W = -lam e^{-ix} + (lam - (2l+1)/2)
        return np.exp(1j * lam * np.exp(-1j * x) - (lam - (2 * l + 1) / 2.0) * x)
    if isinstance(model, MorsePT2):
        a = model.alpha
        c = 2 * l + 1 + model.d / (2.0 * model.omega)
        # exp(-int W) for W = -e^{-i alpha x} + c
        return np.exp((1j / a) * np.exp(-1j * a * x) - c * x)
    if isinstance(model, (PoschlTeller, PoschlTellerPT)):
        c = (units.mass * units.e_sq / units.hbar**2) * _pt_bracket(0, l, units.beta)
        if isinstance(model, PoschlTellerPT):
            base = 1.0 + model.q**2 * np.exp(-4j * model.alpha * x)
        elif model.v0.real == 0.0 and model.q.real == 0.0 and model.q.imag != 0.0:
            base = 1.0 + model.q.imag**2 * np.exp(-4.0 * model.alpha * x)
        else:
            base = 1.0 + model.q * np.exp(-2.0 * model.alpha * x)
        return base ** (l + 1) * np.exp(-c * x)
    raise UnsupportedFamilyError(f"no ground-state form for {type(model).__name__}")


def _groundstate_admissible(model: PotentialModel, l: int, units: UnitSystem) -> bool:
    formula = formula_for(model)
    if formula is SpectrumFormula.MORSE_GENERAL:
        return admissible_morse_general(lambda_for(model, units), _general_q(model), 0, l)
    if formula is SpectrumFormula.MORSE_COMPLEX:
        return admissible_morse_complex(lambda_for(model, units), 0, l)
    if formula is SpectrumFormula.MORSE_SHIFTED:
        return admissible_morse_shifted(model.d, model.omega, 0, l)
    return admissible_poschl_teller(units, 0, l)


def groundstate_wavefunction(model: PotentialModel, l: int, grid: Grid,
                             units: UnitSystem = DEFAULT_UNITS) -> WavefunctionSample:
    """Sample the closed-form ground state at hierarchy depth l on the grid.

    Real-valued (Hermitian) instances are normalized by trapezoid quadrature
    of |psi|^2 over the grid; complex-valued instances are returned raw with
    norm_constant = 1.
    """
    if not _groundstate_admissible(model, l, units):
        raise NotNormalizableError(f"level (n=0, l={l}) fails the bound-state condition")
    ensure_no_pole(model, grid.x_min, grid.x_max)
    x = grid.points()
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        values = np.asarray(_groundstate_values(model, l, x, units), dtype=complex)
    if not is_structurally_hermitian(model):
        return WavefunctionSample(grid, values, 1.0, QuantumNumbers(0, l), False)
    if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
        raise NotNormalizableError("samples overflow on this grid; shrink the domain")
    dens = np.abs(values) ** 2
    # trapezoid rule, in the same operation order as scipy.integrate.trapezoid
    norm_sq = float(np.add.reduce(np.diff(x) * (dens[1:] + dens[:-1]) / 2.0))
    if not (math.isfinite(norm_sq) and norm_sq > 0.0):
        raise NotNormalizableError("quadrature of |psi|^2 is not finite and positive")
    c = 1.0 / math.sqrt(norm_sq)
    return WavefunctionSample(grid, values * c, c, QuantumNumbers(0, l), True)
