"""Factorization hierarchy: superpotentials, partner potentials, residuals.

Two modes exist side by side and are never mixed:

* literal mode reproduces each family's published ansatz and partner exactly
  as printed, and the residual of the factorization identity is a measured
  diagnostic (it is genuinely nonzero for some families);
* self-consistent mode determines the two-term exponential superpotential by
  coefficient matching, which satisfies the identity by construction.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import DegenerateQuadraticError, InvalidModelError
from .expressions import (DerivativeScale, RationalPartner, SuperpotentialExpr, exp_sum,
                          scale_value)
from .grids import Grid
from .potentials import PotentialModel
from .units import UnitSystem, DEFAULT_UNITS


class Mode(Enum):
    PAPER_LITERAL = "paper_literal"
    SELF_CONSISTENT = "self_consistent"


# ---------------------------------------------------------------------------
# literal ansatz
# ---------------------------------------------------------------------------

def superpotential(model: PotentialModel, l: int, units: UnitSystem = DEFAULT_UNITS
                   ) -> SuperpotentialExpr:
    """The published ansatz W for hierarchy depth l."""
    if l < 0:
        raise InvalidModelError("l must be nonnegative")
    return model.superpotential(l, units)


def partner_potential(model: PotentialModel, l: int, units: UnitSystem = DEFAULT_UNITS
                      ) -> Union[SuperpotentialExpr, RationalPartner]:
    """The published partner potential at hierarchy depth l, taken verbatim."""
    if l < 0:
        raise InvalidModelError("l must be nonnegative")
    return model.partner(l, units)


# ---------------------------------------------------------------------------
# self-consistent solution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfConsistentSolution:
    """Superpotential -b e^{-r x} + a matched to c2 e^{-2 r x} + c1 e^{-r x}."""

    b: complex
    a: complex
    rate: complex

    @property
    def e0(self) -> complex:
        return -self.a * self.a

    def a_level(self, l: int) -> complex:
        """Level shift a_l = a - l * rate."""
        return self.a - l * self.rate

    def e0_level(self, l: int) -> complex:
        a_l = self.a_level(l)
        return -a_l * a_l

    def superpotential_level(self, l: int) -> SuperpotentialExpr:
        return exp_sum(self.rate, (-self.b, 1), (self.a_level(l), 0))

    def partner_level(self, l: int) -> SuperpotentialExpr:
        """W_l^2 - W_l' + E0_l expanded in closed form (constants cancel)."""
        a_l = self.a_level(l)
        return exp_sum(self.rate,
                       (self.b * self.b, 2), (-self.b * (2.0 * a_l + self.rate), 1))


def solve_selfconsistent_morse(c2: complex, c1: complex,
                               rate: complex = 1.0) -> SelfConsistentSolution:
    """Match -b e^{-r x} + a to the well c2 e^{-2 r x} + c1 e^{-r x}.

    From W^2 - W' = V - E0: b = sqrt(c2) (principal branch),
    a = -c1/(2b) - r/2, E0 = -a^2.
    """
    c2 = complex(c2)
    c1 = complex(c1)
    rate = complex(rate)
    if rate == 0:
        raise InvalidModelError("rate must be nonzero")
    if c2 == 0:
        raise DegenerateQuadraticError("leading coefficient c2 vanishes; no exponential ansatz")
    b = cmath.sqrt(c2)
    a = -c1 / (2.0 * b) - rate / 2.0
    return SelfConsistentSolution(b=b, a=a, rate=rate)


def selfconsistent_for_model(model: PotentialModel) -> SelfConsistentSolution:
    """The matched solution; UnsupportedFamilyError unless the well is two-term exponential."""
    c2, c1, rate = model.exponential_coefficients()
    return solve_selfconsistent_morse(c2, c1, rate)


# ---------------------------------------------------------------------------
# residual diagnostic and hierarchy assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiccatiResidualReport:
    mode: Mode
    derivative_scale: DerivativeScale
    l: int
    e0: complex
    max_abs_residual: float
    argmax_x: float


def riccati_residual(model: PotentialModel, l: int, grid: Grid,
                     mode: Mode = Mode.SELF_CONSISTENT,
                     scale: DerivativeScale = DerivativeScale.UNIT,
                     e0: Optional[complex] = None,
                     units: UnitSystem = DEFAULT_UNITS) -> RiccatiResidualReport:
    """max over the grid of |W^2 - s W' - (V_partner - E0)|, all analytic.

    e0 defaults to the mode's own ground energy at depth l.
    """
    if mode is Mode.SELF_CONSISTENT:
        sol = selfconsistent_for_model(model)
        w = sol.superpotential_level(l)
        v = sol.partner_level(l)
        if e0 is None:
            e0 = sol.e0_level(l)
    else:
        w = superpotential(model, l, units)
        v = partner_potential(model, l, units)
        if e0 is None:
            e0 = complex(model.level(0, l, units)[0])
    s = scale_value(scale, w.rate)
    x = grid.points()
    wx = w.evaluate(x)
    resid = wx * wx - s * w.derivative(x) - (v.evaluate(x) - e0)
    mags = np.abs(resid)
    i = int(np.argmax(mags))
    return RiccatiResidualReport(mode=mode, derivative_scale=scale, l=l, e0=complex(e0),
                                 max_abs_residual=float(mags[i]), argmax_x=float(x[i]))


@dataclass(frozen=True)
class HierarchyLevel:
    l: int
    partner: Union[SuperpotentialExpr, RationalPartner]
    e0: complex


def hierarchy(model: PotentialModel, l_max: int, mode: Mode = Mode.SELF_CONSISTENT,
              units: UnitSystem = DEFAULT_UNITS) -> list[HierarchyLevel]:
    """Partner potentials and ground energies for l = 0..l_max, in order."""
    if l_max < 0:
        raise InvalidModelError("l_max must be nonnegative")
    if mode is Mode.SELF_CONSISTENT:
        sol = selfconsistent_for_model(model)
        return [HierarchyLevel(l, sol.partner_level(l), sol.e0_level(l))
                for l in range(l_max + 1)]
    return [HierarchyLevel(l, partner_potential(model, l, units),
                           complex(model.level(0, l, units)[0]))
            for l in range(l_max + 1)]
