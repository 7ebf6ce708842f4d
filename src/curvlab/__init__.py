"""Numerical verification of curvature-driven functional inequalities
for diffusion semigroups.

The package checks local (pointwise-in-x, for each t) and integrated
inequalities of the form M(P_t f, c Gamma(P_t f)) <= P_t M(f, c' Gamma(f))
over a catalog of concave two-variable M-functions, using exact Gaussian
(Mehler) evaluation, grid PDE evolution, or Monte Carlo paths, plus
spectral identities for the Ornstein-Uhlenbeck generator and Feynman-Kac
style probabilistic bounds.  Every check reports margins (rhs - lhs);
nothing estimates curvature, a claimed lower bound rho is always an input
so false claims fail visibly.
"""

from .errors import (CertificationError, CurvlabError, DomainError,
                     NumericalError, ParameterError, QuadratureError,
                     SimulationError)
from .feynman_kac import (commutation_check, gradient_bound,
                          supermartingale_check)
from .mfunctions import (MFUNCTION_NAMES, MFunction, PsdReport, catalog,
                         certify_psd, condition_matrix)
from .potentials import (POTENTIAL_KINDS, LyapunovCertificate, Potential,
                         as_points, constant_certificate,
                         local_eigenvalue_margin, make_example_potential,
                         make_lyapunov, parse_potential_id, rho_min,
                         scan_certificate, scan_points)
from .semigroup import (ENGINE_KINDS, GridEngine, MehlerEngine,
                        MonteCarloEngine, TestFunction, gamma, gamma2,
                        make_engine, mehler_apply)
from .verify import (InequalityReport, Record, Schedule,
                     default_schedule, exp_integrability_bound_check,
                     g_alpha, h_alpha, verify_H_monotone,
                     verify_integrated_condition, verify_integrated_limit,
                     verify_local)

__version__ = "0.1.0"

# spectral's names load with their module on first access, so that
# `import curvlab` does not import numpy.polynomial
_SPECTRAL = ("HermiteSeries", "HoudreKagan", "MultiM", "PolySeries",
             "Q_iterate", "apply_L", "apply_Lk", "apply_Pt", "expand",
             "generalized_local_check", "houdre_kagan", "to_poly",
             "variance_bracket_check")

__all__ = [
    "CurvlabError", "DomainError", "ParameterError", "NumericalError",
    "QuadratureError", "CertificationError", "SimulationError",
    "Potential", "LyapunovCertificate", "POTENTIAL_KINDS",
    "make_example_potential", "parse_potential_id", "make_lyapunov",
    "constant_certificate", "local_eigenvalue_margin", "scan_certificate",
    "scan_points", "rho_min", "as_points",
    "TestFunction", "MehlerEngine", "GridEngine", "MonteCarloEngine",
    "ENGINE_KINDS", "make_engine", "mehler_apply", "gamma", "gamma2",
    "MFunction", "MFUNCTION_NAMES", "catalog", "condition_matrix",
    "certify_psd", "PsdReport",
    "Schedule", "Record", "InequalityReport",
    "default_schedule", "g_alpha", "h_alpha",
    "verify_local", "verify_H_monotone",
    "verify_integrated_limit", "verify_integrated_condition",
    "exp_integrability_bound_check",
    "supermartingale_check", "gradient_bound", "commutation_check",
    "PolySeries", "HermiteSeries", "expand", "to_poly",
    "apply_L", "apply_Pt", "apply_Lk", "houdre_kagan", "HoudreKagan",
    "Q_iterate", "MultiM", "generalized_local_check",
    "variance_bracket_check",
    "__version__",
]


def __getattr__(name):
    if name != "spectral" and name not in _SPECTRAL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    # import_module, not `from . import`: that would ask this hook for
    # "spectral" again before importing it
    spectral = importlib.import_module(".spectral", __name__)
    globals().update({k: getattr(spectral, k) for k in _SPECTRAL})
    return globals()[name]


def __dir__():
    # the names of an eager import of spectral, without this hook's own
    hooks = {"_SPECTRAL", "__getattr__", "__dir__"}
    return sorted(set(globals()) - hooks | set(_SPECTRAL) | {"spectral"})
