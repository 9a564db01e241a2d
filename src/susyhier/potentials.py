"""One-dimensional potential families with exponential and rational profiles.

Six families are supported: the two-term exponential (Morse-type) well with
real decay rate, its complex-coefficient variant, two complexified-rate
variants, and the rational (Poschl-Teller-type) well with real or
complexified rate.  All evaluation is complex-valued; symmetry is a property
of the instance, not the family.

Each family is one frozen class that holds every fact about it: config
token, parameter kinds (the field annotations; a field with a default is
optional), default window, formulas, admissibility, pole check and ground
state.  Callers ask the instance for those facts through its methods.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Optional, Union, get_args

import numpy as np

from .errors import InvalidModelError, PoleOnDomainError, ZeroOmegaError, UnsupportedFamilyError
from .expressions import ExpTerm, RationalPartner, RationalTerm, SuperpotentialExpr, exp_sum
from .grids import Grid, symmetric_points
from .units import UnitSystem, DEFAULT_UNITS

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

class _Family:
    """Base of the model classes, each a frozen dataclass.

    A family class sets `token` (its config `family` value), `formula` and
    `window` (the default x interval), and defines `evaluate`, `level` ->
    (E, admissible), `superpotential`, `partner` and `groundstate`; the
    methods here serve the families that lack the fact.
    """

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


@dataclass(frozen=True)
class MorseGeneral(_Family):
    """V(x) = V1 e^{-2 alpha x} - V2 e^{-alpha x}, real decay rate alpha."""

    v1: complex
    v2: complex
    alpha: float = 1.0

    token = "morse_general"
    formula = SpectrumFormula.MORSE_GENERAL

    @property
    def window(self) -> tuple[float, float]:
        return -3.0 / self.alpha, 30.0 / self.alpha

    def evaluate(self, x):
        u = np.exp(-self.alpha * np.asarray(x, dtype=float))
        return self.v1 * u * u - self.v2 * u

    def structurally_hermitian(self) -> bool:
        return self.v1.imag == 0.0 and self.v2.imag == 0.0

    def lam(self, units: UnitSystem) -> complex:
        return cmath.sqrt(_two_m_over_h2(units) * self.v1 / self.alpha**2)

    def exponential_coefficients(self) -> tuple[complex, complex, complex]:
        return self.v1, -self.v2, complex(self.alpha)

    def _lam_q(self, units: UnitSystem) -> tuple[complex, complex]:
        lam = self.lam(units)
        if self.v1 == 0:
            raise InvalidModelError("v1 must be nonzero for the two-term exponential ansatz")
        return lam, self.v2 / self.v1

    def level(self, n: int, l: int, units: UnitSystem) -> tuple[complex, bool]:
        lam, q = self._lam_q(units)
        return energy_morse_general(lam, q, n, l), admissible_morse_general(lam, q, n, l)

    def superpotential(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        lam, q = self._lam_q(units)
        return exp_sum(complex(self.alpha), (-lam, 1), (lam * q - (2 * l + 1) / 2.0, 0))

    def partner(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        lam, q = self._lam_q(units)
        return exp_sum(complex(self.alpha),
                       (lam * lam, 2), (-lam * lam * q + 2 * l * lam, 1))

    def groundstate(self, l: int, x: np.ndarray, units: UnitSystem) -> np.ndarray:
        lam, q = self._lam_q(units)
        a = self.alpha
        # psi = exp[-(lam/alpha) e^{-alpha x} - (lam q - (2l+1)/2) x]
        return np.exp(-(lam / a) * np.exp(-a * x) - (lam * q - (2 * l + 1) / 2.0) * x)


class _MorseComplex(_Family):
    """Level and admissibility shared by the two families on E = -(lam - (n+2l+1)/2)^2."""

    formula = SpectrumFormula.MORSE_COMPLEX

    def level(self, n: int, l: int, units: UnitSystem) -> tuple[complex, bool]:
        lam = self.lam(units)
        return energy_morse_complex(lam, n, l), admissible_morse_complex(lam, n, l)


@dataclass(frozen=True)
class MorseNonPT(_MorseComplex):
    """V(x) = -d [e^{-2x} + i p e^{-x}]; complex-valued, not PT-symmetric."""

    d: float
    p: float

    token = "morse_nonpt"
    window = (-3.0, 30.0)

    def evaluate(self, x):
        u = np.exp(-np.asarray(x, dtype=float))
        return -self.d * (u * u + 1j * self.p * u)

    def lam(self, units: UnitSystem) -> complex:
        return cmath.sqrt(_two_m_over_h2(units) * self.d)

    def exponential_coefficients(self) -> tuple[complex, complex, complex]:
        return complex(-self.d), -1j * self.d * self.p, 1.0 + 0j

    def superpotential(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        lam = self.lam(units)
        return exp_sum(1.0 + 0j, (-1j * lam, 1), (lam - (2 * l + 1) / 2.0, 0))

    def partner(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        lam = self.lam(units)
        return exp_sum(1.0 + 0j,
                       (-lam * lam, 2), (-2j * lam * lam + 2j * l * lam, 1))

    def groundstate(self, l: int, x: np.ndarray, units: UnitSystem) -> np.ndarray:
        lam = self.lam(units)
        # psi = exp[-i lam e^{-x} - (lam - (2l+1)/2) x]
        return np.exp(-1j * lam * np.exp(-x) - (lam - (2 * l + 1) / 2.0) * x)


@dataclass(frozen=True)
class MorsePT1(_MorseComplex):
    """Two-term exponential with unit imaginary rate: V = V1 e^{-2ix} - V2 e^{-ix}."""

    v1: complex
    v2: complex

    token = "morse_pt1"
    window = (-20.0, 20.0)

    def evaluate(self, x):
        u = np.exp(-1j * np.asarray(x, dtype=float))
        return self.v1 * u * u - self.v2 * u

    def lam(self, units: UnitSystem) -> complex:
        # v1 enters as a square (v1 = (A+iB)^2 with lam = A+iB): the alpha^2 = -1
        # factor cancels against the sign hidden in the derived-chain coefficient,
        # leaving lam^2 = +2m v1 / hbar^2.  This is the branch that reproduces the
        # printed partner (its e^{-2ix} coefficient equals v1) and keeps the
        # spectrum real for real parameters.
        return cmath.sqrt(_two_m_over_h2(units) * self.v1)

    def exponential_coefficients(self) -> tuple[complex, complex, complex]:
        return self.v1, -self.v2, 1j

    def superpotential(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        lam = self.lam(units)
        return exp_sum(1j, (-lam, 1), (lam - (2 * l + 1) / 2.0, 0))

    def partner(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        lam = self.lam(units)
        return exp_sum(1j, (lam * lam, 2), (-lam * lam + 2 * l * lam, 1))

    def groundstate(self, l: int, x: np.ndarray, units: UnitSystem) -> np.ndarray:
        lam = self.lam(units)
        # exp(-int W) for W = -lam e^{-ix} + (lam - (2l+1)/2)
        return np.exp(1j * lam * np.exp(-1j * x) - (lam - (2 * l + 1) / 2.0) * x)


@dataclass(frozen=True)
class MorsePT2(_Family):
    """V(x) = -omega^2 e^{-2 i alpha x} - d e^{-i alpha x}; rejects omega = 0."""

    omega: float
    d: float
    alpha: float = 1.0

    token = "morse_pt2"
    formula = SpectrumFormula.MORSE_SHIFTED

    def __post_init__(self):
        super().__post_init__()
        if self.omega == 0.0:
            raise ZeroOmegaError("omega must be nonzero")

    @property
    def window(self) -> tuple[float, float]:
        return -20.0 / self.alpha, 20.0 / self.alpha

    def evaluate(self, x):
        u = np.exp(-1j * self.alpha * np.asarray(x, dtype=float))
        return -(self.omega**2) * u * u - self.d * u

    def exponential_coefficients(self) -> tuple[complex, complex, complex]:
        return complex(-(self.omega**2)), complex(-self.d), 1j * self.alpha

    def level(self, n: int, l: int, units: UnitSystem) -> tuple[complex, bool]:
        return (energy_morse_shifted(self.d, self.omega, n, l),
                admissible_morse_shifted(self.d, self.omega, n, l))

    def superpotential(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        c = 2 * l + 1 + self.d / (2.0 * self.omega)
        return exp_sum(1j * self.alpha, (-1.0, 1), (c, 0))

    def partner(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        c = 2 * l + 1 + self.d / (2.0 * self.omega) + 0.5j * self.alpha
        return exp_sum(1j * self.alpha, (1.0, 2), (-2.0 * c, 1))

    def groundstate(self, l: int, x: np.ndarray, units: UnitSystem) -> np.ndarray:
        a = self.alpha
        c = 2 * l + 1 + self.d / (2.0 * self.omega)
        # exp(-int W) for W = -e^{-i alpha x} + c
        return np.exp((1j / a) * np.exp(-1j * a * x) - c * x)


class _Rational(_Family):
    """The two rational wells.

    Each supplies `_kernel()`, the unit-strength rational factor of W, and
    `_base(x)`, which its ground state raises to the power l + 1.
    """

    formula = SpectrumFormula.POSCHL_TELLER

    @property
    def window(self) -> tuple[float, float]:
        return -10.0 / self.alpha, 10.0 / self.alpha

    def level(self, n: int, l: int, units: UnitSystem) -> tuple[complex, bool]:
        return energy_poschl_teller(self.q, units, n, l), admissible_poschl_teller(units, n, l)

    def superpotential(self, l: int, units: UnitSystem) -> SuperpotentialExpr:
        kernel = self._kernel()
        strength = -units.hbar / math.sqrt(2.0 * units.mass) * (l + 1)
        term = kernel.rational_terms[0]
        scaled = RationalTerm(strength * term.coeff, term.q, term.power)
        # sqrt(m/2) (e^2/hbar) [1/(l+1) - (l+1) beta/2]
        const = ExpTerm(math.sqrt(units.mass / 2.0) * units.e_sq / units.hbar
                        * _pt_bracket(0, l, units.beta), 0)
        return SuperpotentialExpr(kernel.rate, (const,), (scaled,))

    def partner(self, l: int, units: UnitSystem) -> RationalPartner:
        ll1 = l * (l + 1)
        sq = units.kinetic * ll1
        lin = -units.e_sq * (1.0 - ll1 * units.beta / 2.0)
        return RationalPartner(kernel=self._kernel(), lin=lin, sq=sq)

    def groundstate(self, l: int, x: np.ndarray, units: UnitSystem) -> np.ndarray:
        c = (units.mass * units.e_sq / units.hbar**2) * _pt_bracket(0, l, units.beta)
        return self._base(x) ** (l + 1) * np.exp(-c * x)


@dataclass(frozen=True)
class PoschlTeller(_Rational):
    """V(x) = -4 V0 e^{-2 alpha x} / (1 + q e^{-2 alpha x})^2 with complex V0, q."""

    v0: complex
    q: complex
    alpha: float = 1.0

    token = "poschl_teller"

    def evaluate(self, x):
        u = np.exp(-2.0 * self.alpha * np.asarray(x, dtype=float))
        denom = 1.0 + self.q * u
        _check_denominator(denom, self.q)
        return -4.0 * self.v0 * u / (denom * denom)

    def structurally_hermitian(self) -> bool:
        return self.v0.imag == 0.0 and self.q.imag == 0.0

    def check_pole(self, x_min: float, x_max: float) -> None:
        q = self.q
        if q.imag == 0.0 and q.real < 0.0:
            x_pole = math.log(-q.real) / (2.0 * self.alpha)
            if x_min <= x_pole <= x_max:
                raise PoleOnDomainError(f"denominator zero at x = {x_pole:.6g} inside the domain")

    @property
    def _imag_form(self) -> bool:
        """Pure-imaginary V0 and q take the compact form of `poschl_teller_imag_form`."""
        return self.v0.real == 0.0 and self.q.real == 0.0 and self.q.imag != 0.0

    def _kernel(self) -> SuperpotentialExpr:
        if self._imag_form:
            qi = self.q.imag
            term = RationalTerm(qi, qi * qi, power=4)
            return SuperpotentialExpr(complex(self.alpha), (), (term,))
        return SuperpotentialExpr(complex(self.alpha), (), (RationalTerm(1.0, self.q, power=2),))

    def _base(self, x: np.ndarray) -> np.ndarray:
        if self._imag_form:
            return 1.0 + self.q.imag**2 * np.exp(-4.0 * self.alpha * x)
        return 1.0 + self.q * np.exp(-2.0 * self.alpha * x)


@dataclass(frozen=True)
class PoschlTellerPT(_Rational):
    """Rational well with complexified rate: V = -4 V0 e^{-2 i alpha x} / (1 + q e^{-2 i alpha x})^2.

    V0 and q are real; the instance is PT-symmetric but complex-valued.
    """

    v0: float
    q: float
    alpha: float = 1.0

    token = "poschl_teller_pt"

    def evaluate(self, x):
        u = np.exp(-2j * self.alpha * np.asarray(x, dtype=float))
        denom = 1.0 + self.q * u
        _check_denominator(denom, self.q)
        return -4.0 * self.v0 * u / (denom * denom)

    def check_pole(self, x_min: float, x_max: float) -> None:
        q = self.q
        if abs(abs(q) - 1.0) <= POLE_RTOL * (1.0 + abs(q)):
            # q = +1: poles at (2k+1) pi / (2 alpha); q = -1: poles at k pi / alpha
            period = math.pi / self.alpha
            offset = period / 2.0 if q > 0 else 0.0
            k_min = math.ceil((x_min - offset) / period - 1e-12)
            if offset + k_min * period <= x_max + 1e-12:
                raise PoleOnDomainError("unit-modulus q places denominator zeros inside the domain")

    def _kernel(self) -> SuperpotentialExpr:
        term = RationalTerm(self.q, self.q**2, power=4)
        return SuperpotentialExpr(1j * self.alpha, (), (term,))

    def _base(self, x: np.ndarray) -> np.ndarray:
        return 1.0 + self.q**2 * np.exp(-4j * self.alpha * x)


PotentialModel = Union[MorseGeneral, MorseNonPT, MorsePT1, MorsePT2, PoschlTeller, PoschlTellerPT]

# config token -> model class
FAMILIES = {cls.token: cls for cls in get_args(PotentialModel)}


def _check_denominator(denom, q) -> None:
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
# closed-form levels and admissibility, as functions of numbers only
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


# ---------------------------------------------------------------------------
# evaluation and symmetry operations
# ---------------------------------------------------------------------------

def eval_potential(model: PotentialModel, x):
    """Evaluate V(x); complex-valued, vectorized over x."""
    if not hasattr(model, "evaluate"):
        raise InvalidModelError(f"not a potential model: {model!r}")
    return model.evaluate(x)


def pt_reflect(model: PotentialModel, x):
    """The PT image conj(V(-x)), evaluated operationally."""
    return np.conjugate(eval_potential(model, -np.asarray(x, dtype=float)))


class SymmetryClass(Enum):
    HERMITIAN = "hermitian"
    PT_SYMMETRIC = "pt_symmetric"
    NON_PT_NON_HERMITIAN = "non_pt_non_hermitian"


def classify_symmetry(model: PotentialModel, grid: Grid, tol: float = 1e-10) -> SymmetryClass:
    """Classify by sampling on a symmetric grid.

    Hermitian (max |Im V| < tol) takes precedence over PT-symmetric
    (max |V(x) - conj(V(-x))| < tol).
    """
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


def poschl_teller_imag_form(v0_im: float, q_im: float, alpha: float, x):
    """Compact closed form of the rational well with pure-imaginary V0 = i v0_im, q = i q_im.

    Algebraically identical to evaluating the standard rational form with the
    imaginary parameters:

        V(x) = -4 v0_im [2 q_im u^2 + i u (1 - q_im^2 u^2)] / (1 + q_im^2 u^2)^2,
        u = e^{-2 alpha x}.
    """
    u = np.exp(-2.0 * alpha * np.asarray(x, dtype=float))
    denom = 1.0 + q_im**2 * u * u
    num = 2.0 * q_im * u * u + 1j * u * (1.0 - q_im**2 * u * u)
    return -4.0 * v0_im * num / (denom * denom)


# ---------------------------------------------------------------------------
# derived parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivedParams:
    """Derived quantities carried alongside a model instance.

    `lam` is the family's superpotential strength; the chain fields
    (omega, k_odd, g, t, d, p) are populated for models built from the
    (a, b, c) parametrization and satisfy

        omega^2 = -(a + i b)^2,  k_odd = 2c + 1,  g = omega^2 / k_odd,
        t = k_odd^2 / omega,     d = g k_odd,     p = t / k_odd.
    """

    lam: Optional[complex] = None
    omega: Optional[complex] = None
    k_odd: Optional[complex] = None
    g: Optional[complex] = None
    t: Optional[complex] = None
    d: Optional[complex] = None
    p: Optional[complex] = None


def chain_from_abc(a: float, b: float, c: float) -> DerivedParams:
    """Populate the derived chain from the (a, b, c) parametrization.

    omega is defined through a + i b = i omega.
    """
    a = _finite_real(a, "a")
    b = _finite_real(b, "b")
    c = _finite_real(c, "c")
    s = complex(a, b)
    omega = -1j * s            # a + i b = i omega
    if omega == 0:
        raise ZeroOmegaError("a + i b must be nonzero")
    k_odd = complex(2.0 * c + 1.0)
    if k_odd == 0:
        raise InvalidModelError("2c + 1 must be nonzero")
    g = omega * omega / k_odd
    t = k_odd * k_odd / omega
    d = g * k_odd
    p = t / k_odd
    return DerivedParams(lam=None, omega=omega, k_odd=k_odd, g=g, t=t, d=d, p=p)


def morse_nonpt_from_abc(a: float, b: float, c: float,
                         units: UnitSystem = DEFAULT_UNITS) -> tuple[MorseNonPT, DerivedParams]:
    """Build the complex-coefficient Morse model from (a, b, c).

    Requires the chain to land on real (d, p), which happens exactly when
    a = 0; otherwise the compact two-parameter form does not exist.
    """
    chain = chain_from_abc(a, b, c)
    d, p = chain.d, chain.p
    if abs(d.imag) > 1e-12 * max(1.0, abs(d)) or abs(p.imag) > 1e-12 * max(1.0, abs(p)):
        raise InvalidModelError("chain produces complex (d, p); the compact form needs a = 0")
    model = MorseNonPT(d=d.real, p=p.real)
    return model, replace(chain, lam=model.lam(units))

