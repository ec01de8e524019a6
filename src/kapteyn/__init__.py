"""Kapteyn series toolkit.

Evaluates F(z,t) = sum_{n>=1} t^n J_n(nz) by two independent routes,
computes the exact rational coefficients of its power series in z, and
solves for the two convergence radii: the Kapteyn domain radius r(t)
(solve_r) and the power-series radius R(t) (solve_R_true).  solve_R solves
the implicit model equation for R(t), which is exact for t >= 1 and a
leading-order model, off by up to 6%, for 0 < t < 1.
"""

from .bessel import SeriesEvalReport, sqrt1mz2
from .coeffs import (
    APoly,
    CoefficientTable,
    a_eval_exact,
    a_eval_logabs,
    a_poly,
    coeff_closed_form,
    coeff_table_recurrence,
)
from .domain import (
    RadiusResult,
    coeff_radius_estimate,
    kapteyn_converges,
    omega,
    psi_large_t,
    psi_small_t,
    solve_R,
    solve_R_true,
    solve_r,
)
from .errors import ConvergenceError, DomainError, KapteynError, ZeroCoefficientError
from .series import (
    CoeffSequence,
    ThetaPoly,
    eval_direct,
    eval_power,
    fundamental_residual,
    kapteyn_to_taylor,
    kapteyn_to_taylor_exact,
    taylor_to_kapteyn,
    taylor_to_kapteyn_exact,
    theta_poly,
)

__version__ = "0.3.0"

__all__ = [
    "APoly",
    "CoeffSequence",
    "CoefficientTable",
    "ConvergenceError",
    "DomainError",
    "KapteynError",
    "RadiusResult",
    "SeriesEvalReport",
    "ThetaPoly",
    "ZeroCoefficientError",
    "a_eval_exact",
    "a_eval_logabs",
    "a_poly",
    "coeff_closed_form",
    "coeff_radius_estimate",
    "coeff_table_recurrence",
    "eval_direct",
    "eval_power",
    "fundamental_residual",
    "kapteyn_converges",
    "kapteyn_to_taylor",
    "kapteyn_to_taylor_exact",
    "omega",
    "psi_large_t",
    "psi_small_t",
    "solve_R",
    "solve_R_true",
    "solve_r",
    "sqrt1mz2",
    "taylor_to_kapteyn",
    "taylor_to_kapteyn_exact",
    "theta_poly",
]
