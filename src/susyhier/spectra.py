"""Closed-form energy records and ground-state wavefunctions.

Each family's model class carries its one closed-form level formula and
ground state, and the self-consistent solution answers the same `level` and
`groundstate`; levels are indexed by the oscillator number n and the
hierarchy depth l.
Admissibility marks which (n, l) pairs correspond to genuine bound states.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidModelError, NotNormalizableError
from .grids import Grid
from .hierarchy import Ladder, Mode, ladder
from .potentials import PotentialModel, SpectrumFormula, ensure_no_pole
from .units import UnitSystem, DEFAULT_UNITS

if TYPE_CHECKING:
    import numpy as np


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
# record builders
# ---------------------------------------------------------------------------

def energy_record(model: Ladder, n: int, l: int,
                  units: UnitSystem = DEFAULT_UNITS) -> EnergyRecord:
    """Closed-form level of the ladder's formula, with admissibility flag; a
    level that is not finite (parameters or units out of range) raises
    InvalidModelError."""
    e, ok = model.level(n, l, units)
    if not cmath.isfinite(e):
        raise InvalidModelError(f"level (n={n}, l={l}) is not finite: E = {complex(e)}")
    return EnergyRecord(QuantumNumbers(n, l), complex(e), model.formula, ok)


def spectrum_records(model: PotentialModel, n_max: int, l_max: int,
                     units: UnitSystem = DEFAULT_UNITS,
                     mode: Mode = Mode.PAPER_LITERAL) -> list[EnergyRecord]:
    """Records of the mode's ladder for l = 0..l_max, n = 0..n_max, ordered by (l, n)."""
    lad = ladder(model, mode, units)
    return [energy_record(lad, n, l, units)
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


def groundstate_wavefunction(model: PotentialModel, l: int, grid: Grid,
                             units: UnitSystem = DEFAULT_UNITS,
                             mode: Mode = Mode.PAPER_LITERAL) -> WavefunctionSample:
    """Sample the ground state of the mode's ladder at hierarchy depth l on the grid.

    The pole check and the normalization follow the model: real-valued
    (Hermitian) instances are normalized by trapezoid quadrature of |psi|^2
    over the grid; complex-valued instances are returned raw with
    norm_constant = 1.
    """
    import numpy as np
    lad = ladder(model, mode, units)
    if not energy_record(lad, 0, l, units).admissible:
        raise NotNormalizableError(f"level (n=0, l={l}) fails the bound-state condition")
    ensure_no_pole(model, grid.x_min, grid.x_max)
    x = grid.points()
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        values = np.asarray(lad.groundstate(l, x, units), dtype=complex)
    if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
        raise NotNormalizableError("samples overflow on this grid; shrink the domain")
    if not model.structurally_hermitian():
        return WavefunctionSample(grid, values, 1.0, QuantumNumbers(0, l), False)
    # trapezoid rule, in the same operation order as scipy.integrate.trapezoid;
    # finite samples whose square overflows give inf, which the check below refuses
    with np.errstate(over="ignore"):
        dens = np.abs(values) ** 2
        norm_sq = float(np.add.reduce(np.diff(x) * (dens[1:] + dens[:-1]) / 2.0))
    if not (math.isfinite(norm_sq) and norm_sq > 0.0):
        raise NotNormalizableError("quadrature of |psi|^2 is not finite and positive")
    c = 1.0 / math.sqrt(norm_sq)
    return WavefunctionSample(grid, values * c, c, QuantumNumbers(0, l), True)
