"""Closed-form expressions for superpotentials and partner potentials.

Two term shapes cover every family here: exponentials c e^{-k r x} with
integer k >= 0, and the rational kernel c u / (1 + q u)^2 with u = e^{-p r x}
(p = 2 or 4).  The rate r may be complex (complexified-rate families).
Derivatives are exact; no finite differencing happens in this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import InvalidModelError


@dataclass(frozen=True)
class ExpTerm:
    coeff: complex
    k: int

    def __post_init__(self):
        if self.k < 0 or self.k != int(self.k):
            raise InvalidModelError(f"exponent index must be a nonnegative integer, got {self.k!r}")
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True)
class RationalTerm:
    """c u / (1 + q u)^2 with u = e^{-power * rate * x}."""

    coeff: complex
    q: complex
    power: int = 2

    def __post_init__(self):
        if self.power not in (2, 4):
            raise InvalidModelError(f"rational kernel power must be 2 or 4, got {self.power!r}")
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "q", complex(self.q))


@dataclass(frozen=True)
class SuperpotentialExpr:
    """Finite sum of exponential and rational terms sharing one rate."""

    rate: complex
    exp_terms: tuple[ExpTerm, ...] = ()
    rational_terms: tuple[RationalTerm, ...] = ()

    def __post_init__(self):
        rate = complex(self.rate)
        if rate == 0:
            raise InvalidModelError("rate must be nonzero")
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "exp_terms", _canonical(self.exp_terms))
        object.__setattr__(self, "rational_terms", tuple(self.rational_terms))

    # -- structure ---------------------------------------------------------

    @property
    def is_exponential(self) -> bool:
        return not self.rational_terms

    @property
    def constant(self) -> complex:
        for t in self.exp_terms:
            if t.k == 0:
                return t.coeff
        return 0j

    def coefficient(self, k: int) -> complex:
        for t in self.exp_terms:
            if t.k == k:
                return t.coeff
        return 0j

    # -- evaluation --------------------------------------------------------

    def _u(self, x, power):
        import numpy as np
        return np.exp(-power * self.rate * np.asarray(x, dtype=float))

    def evaluate(self, x):
        import numpy as np
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for t in self.exp_terms:
            out = out + t.coeff * self._u(x, t.k)
        for t in self.rational_terms:
            u = self._u(x, t.power)
            denom = 1.0 + t.q * u
            out = out + t.coeff * u / (denom * denom)
        return out

    def derivative(self, x):
        """Exact dW/dx from the term structure."""
        import numpy as np
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for t in self.exp_terms:
            if t.k:
                out = out - t.k * self.rate * t.coeff * self._u(x, t.k)
        for t in self.rational_terms:
            u = self._u(x, t.power)
            denom = 1.0 + t.q * u
            # d/dx [u/(1+qu)^2] = -p r u (1 - q u) / (1 + q u)^3
            out = out - t.power * self.rate * t.coeff * u * (1.0 - t.q * u) / denom**3
        return out


def _canonical(terms: Iterable[ExpTerm]) -> tuple[ExpTerm, ...]:
    acc: dict[int, complex] = {}
    for t in terms:
        acc[t.k] = acc.get(t.k, 0j) + t.coeff
    return tuple(ExpTerm(c, k) for k, c in sorted(acc.items()) if c != 0)


def exp_sum(rate: complex, *pairs: tuple[complex, int]) -> SuperpotentialExpr:
    """Build a pure exponential expression from (coeff, k) pairs."""
    return SuperpotentialExpr(rate, tuple(ExpTerm(c, k) for c, k in pairs))


class DerivativeScale(Enum):
    """Scale s multiplying W' in the factorization identity W^2 - s W'."""

    UNIT = "unit"
    INVERSE_ALPHA = "inverse_alpha"


def scale_value(scale: DerivativeScale, rate: complex) -> complex:
    if scale is DerivativeScale.UNIT:
        return 1.0 + 0j
    return 1.0 / rate


def riccati_apply(w: SuperpotentialExpr, scale: DerivativeScale = DerivativeScale.UNIT
                  ) -> tuple[SuperpotentialExpr, complex]:
    """Expand W^2 - s W' term by term; returns (nonconstant part, constant).

    The products t1 t2 and then the terms of -s W' go to SuperpotentialExpr,
    which sums the like terms in that order.  Defined for pure exponential
    expressions only; the rational kernel leaves this basis under squaring
    and is handled on grids instead.
    """
    if not w.is_exponential:
        raise InvalidModelError("symbolic expansion is only available for exponential sums")
    s = scale_value(scale, w.rate)
    terms = [ExpTerm(t1.coeff * t2.coeff, t1.k + t2.k) for t1 in w.exp_terms for t2 in w.exp_terms]
    terms += [ExpTerm(s * t.k * w.rate * t.coeff, t.k) for t in w.exp_terms if t.k]
    full = SuperpotentialExpr(w.rate, tuple(terms))
    return SuperpotentialExpr(w.rate, tuple(t for t in full.exp_terms if t.k)), full.constant


@dataclass(frozen=True)
class RationalPartner:
    """Partner potential of rational-kernel form: sq * R(x)^2 + lin * R(x).

    R is the unit-strength rational kernel of the family's superpotential.
    """

    kernel: SuperpotentialExpr
    lin: complex
    sq: complex

    def evaluate(self, x):
        r = self.kernel.evaluate(x)
        return self.sq * r * r + self.lin * r
