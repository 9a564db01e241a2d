"""One-dimensional potential families with exponential and rational profiles.

Six families are supported: the two-term exponential (Morse-type) well with
real decay rate, its complex-coefficient variant, two complexified-rate
variants, and the rational (Poschl-Teller-type) well with real or
complexified rate.  All evaluation is complex-valued; symmetry is a property
of the instance, not the family.

Each family is one frozen class that holds every fact about it: config
token, parameter kinds (the field annotations; a field with a default is
optional), unit window and rate, formulas, admissibility, pole check and
ground state.  Callers ask the instance for those facts through its methods.
`_Family` states the alpha scaling once: rate = rate_unit * alpha, with
rate_unit 1 or 1j, and the default window is window_unit / alpha.
The exponential wells state V and their literal ansatz once each, and
`TwoTermAnsatz` and `_Exponential` derive V, W, the ground state and the
levels E_{n,l} = -A_{l+n/2}^2 (bound while Re A > 0) from them.  The rational
wells state V and their kernel term once each, and `_Rational` derives W, the
partner and the ground state from the term; a rational level
E_{n,l} ~ -f(n+l+1)^2 with f(M) = 1/M - M beta/2 is bound iff n = 0 or
f(n+l+1) + f(n+l) > 0.  The `energy_*` functions state the printed formulas
on their own, as the reference the levels are tested against.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import TYPE_CHECKING, Union, get_args

from .errors import InvalidModelError, PoleOnDomainError, ZeroOmegaError, UnsupportedFamilyError
from .expressions import ExpTerm, RationalPartner, RationalTerm, SuperpotentialExpr, exp_sum
from .grids import Grid, symmetric_points
from .units import UnitSystem

if TYPE_CHECKING:
    import numpy as np

# Relative tolerance used to declare a rational denominator "on a pole".
POLE_RTOL = 1e-12
# Relative tolerance for the spectral-reality parameter condition.
REALITY_RTOL = 1e-12


def _finite_complex(value, name: str) -> complex:
    try:
        z = complex(value)
    except (TypeError, ValueError):
        raise InvalidModelError(f"{name} must be a complex number, got {value!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidModelError(f"{name} must have finite components, got {z!r}")
    return z


def _finite_real(value, name: str) -> float:
    z = _finite_complex(value, name)
    if z.imag != 0.0:
        raise InvalidModelError(f"{name} must be real, got {z!r}")
    return z.real


def _positive_real(value, name: str) -> float:
    v = _finite_real(value, name)
    if v <= 0.0:
        raise InvalidModelError(f"{name} must be > 0, got {v!r}")
    return v


# field annotation -> constructor check; the decay rate alpha must also be positive
_FIELD_CHECKS = {"complex": _finite_complex, "float": _finite_real}


def _two_m_over_h2(units: UnitSystem) -> float:
    return 2.0 * units.mass / units.hbar**2


def _scaled(z: complex, s: float) -> complex:
    """z times the positive real s, part by part, so s = 1 returns z bit for bit."""
    return complex(z.real * s, z.imag * s)


class SpectrumFormula(Enum):
    """Which closed form produced an energy record."""

    MORSE_GENERAL = "morse_general"
    MORSE_COMPLEX = "morse_complex"
    MORSE_SHIFTED = "morse_shifted"
    POSCHL_TELLER = "poschl_teller"
    SELF_CONSISTENT = "self_consistent"


# ---------------------------------------------------------------------------
# model variants
# ---------------------------------------------------------------------------

class TwoTermAnsatz:
    """Superpotential W_l = w_scale (-B e^{-rate x} + A_l) with (B, A_l) = ansatz(l, units).

    A subclass has `rate` (`_Family` derives it, a Python float when real, so
    e^{-rate x} is numpy's real exp), `ansatz` and `level_step`; the families
    keep kinetic = 1.  The ground state solves (w_scale d/dx + W_l) psi = 0:
    psi = exp[-(B/rate) e^{-rate x} - A_l x].  Level n of depth l is the ground
    level of depth l + level_step n further down the ladder.
    """

    kinetic = 1.0

    @property
    def w_scale(self) -> float:
        return math.sqrt(self.kinetic)

    def level(self, n: int, l: int, units: UnitSystem) -> tuple[complex, bool]:
        """E = -kinetic A^2 for A = A_{l + level_step n}, a bound state iff Re A > 0."""
        a = self.ansatz(l + self.level_step * n, units)[1]
        return _scaled(-a * a, self.kinetic), a.real > 0.0

    def superpotential(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        b, a_l = self.ansatz(l, units)
        s = self.w_scale
        return exp_sum(self.rate, (_scaled(-b, s), 1), (_scaled(a_l, s), 0))

    def groundstate(self, l: int, x: np.ndarray, units: UnitSystem) -> np.ndarray:
        import numpy as np
        b, a_l = self.ansatz(l, units)
        r = self.rate
        return np.exp(-(b / r) * np.exp(-r * x) - a_l * x)


class _Family:
    """Base of the model classes, each a frozen dataclass.

    A family class sets `token` (its config `family` value), `formula` and
    `window_unit`, and defines `evaluate`, `level` -> (E, admissible),
    `superpotential`, `partner` and `groundstate`; the members here serve the
    families that lack the fact.  The rate is `rate_unit * alpha` (a Python
    float for the default `rate_unit = 1`; 1j complexifies it) and the default
    x window is `window_unit / alpha`; a family with no `alpha` field takes 1.
    """

    alpha = 1.0
    rate_unit = 1

    @property
    def rate(self) -> float | complex:
        return self.rate_unit * self.alpha

    @property
    def window(self) -> tuple[float, float]:
        return tuple(w / self.alpha for w in self.window_unit)

    def __post_init__(self):
        for f in fields(self):
            check = _positive_real if f.name == "alpha" else _FIELD_CHECKS[f.type]
            object.__setattr__(self, f.name, check(getattr(self, f.name), f.name))

    def lam(self, units: UnitSystem) -> complex:
        """Superpotential strength lam of the family's literal exponential ansatz."""
        raise UnsupportedFamilyError(
            f"no superpotential strength defined for {type(self).__name__}")

    def exponential_coefficients(self) -> tuple[complex, complex, complex]:
        """(c2, c1, r) of V = c2 e^{-2 r x} + c1 e^{-r x}; r is complex for complexified rates."""
        raise UnsupportedFamilyError(f"{type(self).__name__} is not a two-term exponential well")

    def check_pole(self, x_min: float, x_max: float) -> None:
        """Only the rational wells have a denominator that can vanish."""

    def structurally_hermitian(self) -> bool:
        return False


class _Exponential(TwoTermAnsatz, _Family):
    """A two-term exponential well V = c2 u^2 + c1 u with u = e^{-rate x}."""

    # the printed spectra reach level n at depth l + n/2: E(n, l) = E(n - 2, l + 1)
    level_step = 0.5

    def evaluate(self, x):
        import numpy as np
        c2, c1, rate = self.exponential_coefficients()
        u = np.exp(-rate * np.asarray(x, dtype=float))
        return c2 * u * u + c1 * u


@dataclass(frozen=True)
class MorseGeneral(_Exponential):
    """V(x) = V1 e^{-2 alpha x} - V2 e^{-alpha x}, real decay rate alpha."""

    v1: complex
    v2: complex
    alpha: float = 1.0

    token = "morse_general"
    formula = SpectrumFormula.MORSE_GENERAL
    window_unit = (-3.0, 30.0)

    def structurally_hermitian(self) -> bool:
        return self.v1.imag == 0.0 and self.v2.imag == 0.0

    def lam(self, units: UnitSystem) -> complex:
        return cmath.sqrt(_two_m_over_h2(units) * self.v1 / self.alpha**2)

    def exponential_coefficients(self) -> tuple[complex, complex, complex]:
        return self.v1, -self.v2, self.rate

    def _lam_q(self, units: UnitSystem) -> tuple[complex, complex]:
        lam = self.lam(units)
        if self.v1 == 0:
            raise InvalidModelError("v1 must be nonzero for the two-term exponential ansatz")
        return lam, self.v2 / self.v1

    def ansatz(self, l: int, units: UnitSystem) -> tuple[complex, complex]:
        lam, q = self._lam_q(units)
        return lam, lam * q - (2 * l + 1) / 2.0

    def partner(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        lam, q = self._lam_q(units)
        return exp_sum(self.rate,
                       (lam * lam, 2), (-lam * lam * q + 2 * l * lam, 1))


@dataclass(frozen=True)
class MorseNonPT(_Exponential):
    """V(x) = -d [e^{-2x} + i p e^{-x}]; complex-valued, not PT-symmetric.

    From the paper's (a, b, c) with a + i b = i omega: d = omega^2 and
    p = (2c + 1) / omega, both real exactly when a = 0.
    """

    d: float
    p: float

    token = "morse_nonpt"
    formula = SpectrumFormula.MORSE_COMPLEX
    window_unit = (-3.0, 30.0)

    def lam(self, units: UnitSystem) -> complex:
        return cmath.sqrt(_two_m_over_h2(units) * self.d)

    def exponential_coefficients(self) -> tuple[complex, complex, complex]:
        return complex(-self.d), -1j * self.d * self.p, self.rate

    def ansatz(self, l: int, units: UnitSystem) -> tuple[complex, complex]:
        lam = self.lam(units)
        return 1j * lam, lam - (2 * l + 1) / 2.0

    def partner(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        lam = self.lam(units)
        return exp_sum(self.rate,
                       (-lam * lam, 2), (-2j * lam * lam + 2j * l * lam, 1))


@dataclass(frozen=True)
class MorsePT1(_Exponential):
    """Two-term exponential with unit imaginary rate: V = V1 e^{-2ix} - V2 e^{-ix}."""

    v1: complex
    v2: complex

    token = "morse_pt1"
    formula = SpectrumFormula.MORSE_COMPLEX
    window_unit = (-20.0, 20.0)
    rate_unit = 1j

    def lam(self, units: UnitSystem) -> complex:
        # v1 enters as a square (v1 = (A+iB)^2 with lam = A+iB): the alpha^2 = -1
        # factor cancels against the sign hidden in the derived-chain coefficient,
        # leaving lam^2 = +2m v1 / hbar^2.  This is the branch that reproduces the
        # printed partner (its e^{-2ix} coefficient equals v1) and keeps the
        # spectrum real for real parameters.
        return cmath.sqrt(_two_m_over_h2(units) * self.v1)

    def exponential_coefficients(self) -> tuple[complex, complex, complex]:
        return self.v1, -self.v2, self.rate

    def ansatz(self, l: int, units: UnitSystem) -> tuple[complex, complex]:
        lam = self.lam(units)
        return lam, lam - (2 * l + 1) / 2.0

    def partner(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        lam = self.lam(units)
        return exp_sum(self.rate, (lam * lam, 2), (-lam * lam + 2 * l * lam, 1))


@dataclass(frozen=True)
class MorsePT2(_Exponential):
    """V(x) = -omega^2 e^{-2 i alpha x} - d e^{-i alpha x}; rejects omega = 0."""

    omega: float
    d: float
    alpha: float = 1.0

    token = "morse_pt2"
    formula = SpectrumFormula.MORSE_SHIFTED
    window_unit = (-20.0, 20.0)
    rate_unit = 1j

    def __post_init__(self):
        super().__post_init__()
        if self.omega == 0.0:
            raise ZeroOmegaError("omega must be nonzero")

    def exponential_coefficients(self) -> tuple[complex, complex, complex]:
        return complex(-(self.omega**2)), complex(-self.d), self.rate

    def ansatz(self, l: int, units: UnitSystem) -> tuple[complex, complex]:
        return 1.0, 2 * l + 1 + self.d / (2.0 * self.omega)

    def partner(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        c = 2 * l + 1 + self.d / (2.0 * self.omega) + self.rate / 2.0
        return exp_sum(self.rate, (1.0, 2), (-2.0 * c, 1))


class _Rational(_Family):
    """The two rational wells, V = -4 V0 u / (1 + q u)^2 with u = e^{-2 rate x}.

    Each states `_term()` -> (c, k, p): W_l is a constant plus a multiple of
    the unit-strength kernel c u_p / (1 + k u_p)^2 with u_p = e^{-p rate x},
    and the ground state raises the kernel's base 1 + k u_p to the power l + 1.
    """

    formula = SpectrumFormula.POSCHL_TELLER
    window_unit = (-10.0, 10.0)

    def evaluate(self, x):
        import numpy as np
        u = np.exp(-2.0 * self.rate * np.asarray(x, dtype=float))
        denom = 1.0 + self.q * u
        _check_denominator(denom, self.q)
        return -4.0 * self.v0 * u / (denom * denom)

    def level(self, n: int, l: int, units: UnitSystem) -> tuple[complex, bool]:
        """A bound state iff |bracket| strictly decreases step by step up to n.

        f(M) = 1/M - M beta/2 decreases, so the step |f(M)| < |f(M-1)| is
        f(M) + f(M-1) > 0, a sum that decreases too: the last step decides
        (and near a tie the float sum is exact).  The mirror level of
        M <-> 2/(beta M) duplicates an energy and is flagged inadmissible.
        """
        beta = units.beta
        return (energy_poschl_teller(self.q, units, n, l),
                n == 0 or _pt_bracket(n, l, beta) + _pt_bracket(n - 1, l, beta) > 0.0)

    def superpotential(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        c, k, p = self._term()
        strength = -units.hbar / math.sqrt(2.0 * units.mass) * (l + 1)
        # sqrt(m/2) (e^2/hbar) [1/(l+1) - (l+1) beta/2]
        const = ExpTerm(math.sqrt(units.mass / 2.0) * units.e_sq / units.hbar
                        * _pt_bracket(0, l, units.beta), 0)
        return SuperpotentialExpr(self.rate, (const,), (RationalTerm(strength * c, k, p),))

    def partner(self, l: int, units: UnitSystem) -> RationalPartner:
        ll1 = l * (l + 1)
        sq = units.kinetic * ll1
        lin = -units.e_sq * (1.0 - ll1 * units.beta / 2.0)
        kernel = SuperpotentialExpr(self.rate, (), (RationalTerm(*self._term()),))
        return RationalPartner(kernel=kernel, lin=lin, sq=sq)

    def groundstate(self, l: int, x: np.ndarray, units: UnitSystem) -> np.ndarray:
        import numpy as np
        _, k, p = self._term()  # plain numbers: a real k keeps the base real
        c = (units.mass * units.e_sq / units.hbar**2) * _pt_bracket(0, l, units.beta)
        return (1.0 + k * np.exp(-p * self.rate * x)) ** (l + 1) * np.exp(-c * x)


@dataclass(frozen=True)
class PoschlTeller(_Rational):
    """V(x) = -4 V0 e^{-2 alpha x} / (1 + q e^{-2 alpha x})^2 with complex V0, q."""

    v0: complex
    q: complex
    alpha: float = 1.0

    token = "poschl_teller"

    def structurally_hermitian(self) -> bool:
        return self.v0.imag == 0.0 and self.q.imag == 0.0

    def check_pole(self, x_min: float, x_max: float) -> None:
        q = self.q
        if q.imag == 0.0 and q.real < 0.0:
            x_pole = math.log(-q.real) / (2.0 * self.alpha)
            if x_min <= x_pole <= x_max:
                raise PoleOnDomainError(f"denominator zero at x = {x_pole:.6g} inside the domain")

    def _term(self) -> tuple[complex, complex, int]:
        if self.v0.real == 0.0 and self.q.real == 0.0 and self.q.imag != 0.0:
            # pure-imaginary V0 and q: the compact literal kernel in e^{-4 alpha x}
            qi = self.q.imag
            return qi, qi * qi, 4
        return 1.0, self.q, 2


@dataclass(frozen=True)
class PoschlTellerPT(_Rational):
    """Rational well with complexified rate: V = -4 V0 e^{-2 i alpha x} / (1 + q e^{-2 i alpha x})^2.

    V0 and q are real; the instance is PT-symmetric but complex-valued.
    """

    v0: float
    q: float
    alpha: float = 1.0

    token = "poschl_teller_pt"
    rate_unit = 1j

    def check_pole(self, x_min: float, x_max: float) -> None:
        q = self.q
        if abs(abs(q) - 1.0) <= POLE_RTOL * (1.0 + abs(q)):
            # q = +1: poles at (2k+1) pi / (2 alpha); q = -1: poles at k pi / alpha
            period = math.pi / self.alpha
            offset = period / 2.0 if q > 0 else 0.0
            k_min = math.ceil((x_min - offset) / period - 1e-12)
            if offset + k_min * period <= x_max + 1e-12:
                raise PoleOnDomainError("unit-modulus q places denominator zeros inside the domain")

    def _term(self) -> tuple[float, float, int]:
        return self.q, self.q**2, 4


PotentialModel = Union[MorseGeneral, MorseNonPT, MorsePT1, MorsePT2, PoschlTeller, PoschlTellerPT]

# config token -> model class
FAMILIES = {cls.token: cls for cls in get_args(PotentialModel)}


def _check_denominator(denom, q) -> None:
    import numpy as np
    tol = POLE_RTOL * (1.0 + abs(q))
    mag = np.abs(np.asarray(denom))
    if np.any(mag < tol):
        raise PoleOnDomainError(f"rational denominator vanishes on the domain (|1+qu| < {tol:g})")


def ensure_no_pole(model: PotentialModel, x_min: float, x_max: float) -> None:
    """Reject rational models whose real-axis pole lies inside [x_min, x_max].

    The pole position is located analytically, so poles falling between grid
    samples are still caught.  Any other object with an `evaluate` method,
    which `eval_potential` accepts too, has no pole to check.
    """
    check = getattr(model, "check_pole", None)
    if check is not None:
        check(x_min, x_max)


# ---------------------------------------------------------------------------
# closed-form levels, as functions of numbers only
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
# evaluation and symmetry operations
# ---------------------------------------------------------------------------

def eval_potential(model: PotentialModel, x):
    """Evaluate V(x); complex-valued, vectorized over x."""
    if not hasattr(model, "evaluate"):
        raise InvalidModelError(f"not a potential model: {model!r}")
    return model.evaluate(x)


class SymmetryClass(Enum):
    HERMITIAN = "hermitian"
    PT_SYMMETRIC = "pt_symmetric"
    NON_PT_NON_HERMITIAN = "non_pt_non_hermitian"


def classify_symmetry(model: PotentialModel, grid: Grid, tol: float = 1e-10) -> SymmetryClass:
    """Classify by sampling on a symmetric grid.

    Hermitian (max |Im V| < tol) takes precedence over PT-symmetric
    (max |V(x) - conj(V(-x))| < tol).
    """
    import numpy as np
    x = symmetric_points(grid)
    v = np.asarray(eval_potential(model, x), dtype=complex)
    if np.max(np.abs(v.imag)) < tol:
        return SymmetryClass.HERMITIAN
    # grid antisymmetry makes V(-x_i) a pure reindexing
    if np.max(np.abs(v - np.conjugate(v[::-1]))) < tol:
        return SymmetryClass.PT_SYMMETRIC
    return SymmetryClass.NON_PT_NON_HERMITIAN


def reality_condition(v0: complex, q: complex) -> bool:
    """Parameter test for real spectra of the rational well: Im(V0) Re(q) == Re(V0) Im(q)."""
    v0 = _finite_complex(v0, "v0")
    q = _finite_complex(q, "q")
    lhs = v0.imag * q.real
    rhs = v0.real * q.imag
    return math.isclose(lhs, rhs, rel_tol=REALITY_RTOL, abs_tol=0.0)
