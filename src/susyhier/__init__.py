"""Closed-form spectra for exponential and rational wells via superpotential
hierarchies, plus a finite-difference verifier and a small CLI.

The closed-form modules import numpy inside the functions that build or
evaluate arrays, and the finite-difference verifier loads on first use
(PEP 562), so `import susyhier` and the closed-form commands load neither
numpy nor the verifier; the verifier imports scipy for the reality scan
and for a complex well's eigenvectors, so `verify` runs without scipy (it
calls LAPACK in the OpenBLAS files bundled with numpy and scipy).
"""
import importlib

from .errors import (ConfigError, DegenerateQuadraticError, GridTooCoarseError,
                     InvalidModelError, NotConvergedError, NotNormalizableError,
                     PoleOnDomainError, SusyhierError, UnsupportedFamilyError, ZeroOmegaError)
from .units import DEFAULT_UNITS, UnitSystem
from .grids import Grid, ScanAxis, symmetric_grid
from .potentials import (MorseGeneral, MorseNonPT, MorsePT1, MorsePT2, PoschlTeller,
                         PoschlTellerPT, PotentialModel, SpectrumFormula, SymmetryClass,
                         classify_symmetry, energy_morse_complex, energy_morse_general,
                         energy_morse_shifted, energy_poschl_teller, ensure_no_pole,
                         eval_potential, reality_condition)
from .expressions import (DerivativeScale, ExpTerm, RationalPartner, RationalTerm,
                          SuperpotentialExpr, exp_sum, riccati_apply)
from .hierarchy import (HierarchyLevel, Mode, RiccatiResidualReport,
                        SelfConsistentSolution, hierarchy, ladder, partner_potential,
                        riccati_residual, solve_selfconsistent_morse, superpotential)
from .spectra import (EnergyRecord, QuantumNumbers, WavefunctionSample, energy_record,
                      groundstate_wavefunction, spectrum_records)
from .config import (RunConfig, default_grid, load_config, parse_config,
                     parse_complex_literal)

__version__ = "0.1.0"

# every name in __all__ that is not bound at import comes from the verifier
def __getattr__(name):
    if name == "verifier":
        return importlib.import_module(".verifier", __name__)
    if name in __all__:
        value = getattr(importlib.import_module(".verifier", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

__all__ = [
    "SusyhierError", "InvalidModelError", "PoleOnDomainError", "ZeroOmegaError",
    "UnsupportedFamilyError", "DegenerateQuadraticError", "NotNormalizableError",
    "NotConvergedError", "GridTooCoarseError", "ConfigError",
    "UnitSystem", "DEFAULT_UNITS", "Grid", "symmetric_grid",
    "MorseGeneral", "MorseNonPT", "MorsePT1", "MorsePT2", "PoschlTeller",
    "PoschlTellerPT", "PotentialModel", "SymmetryClass", "classify_symmetry",
    "ensure_no_pole", "eval_potential", "reality_condition",
    "ExpTerm", "RationalTerm", "RationalPartner", "SuperpotentialExpr", "exp_sum",
    "DerivativeScale", "riccati_apply",
    "Mode", "HierarchyLevel", "SelfConsistentSolution", "RiccatiResidualReport",
    "hierarchy", "ladder", "partner_potential", "riccati_residual",
    "solve_selfconsistent_morse", "superpotential",
    "SpectrumFormula", "QuantumNumbers", "EnergyRecord", "WavefunctionSample",
    "energy_record", "energy_morse_complex",
    "energy_morse_general", "energy_morse_shifted", "energy_poschl_teller",
    "groundstate_wavefunction", "spectrum_records",
    "DiscretizedHamiltonian", "NumericSpectrum", "ComparisonReport", "MatchedPair",
    "Verdict", "ScanAxis", "ScanRecord", "bound_states", "build_hamiltonian",
    "conjugate_pairing_ok", "converged_spectrum", "eigen_spectrum", "reality_scan",
    "verify",
    "RunConfig", "default_grid", "load_config", "parse_config",
    "parse_complex_literal",
]
