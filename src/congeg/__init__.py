"""Conformable Gegenbauer polynomial family.

Exact constructors for ultraspherical-type polynomials in the conformable
setting (polynomials in x^a with rational coefficients), three agreeing
construction routes, identity verification sweeps, weighted-quadrature
inner products, and a CLI.

Convention used throughout: x^a means sign(x) |x|^a, so every family member
is defined on [-1, 1] and keeps its parity; at a = 1 everything reduces to
the classical Gegenbauer family.
"""
from .alphapoly import (AlphaPoly, DomainError, GammaRatio, ParameterError,
                        gamma_quotient, pochhammer)
from .gegenbauer import (GegenbauerSpec, UltrasphericalSpec, chebyshev_t,
                         chebyshev_t_rodrigues, classical_oracle, from_recurrence,
                         from_rodrigues, from_series, legendre, ultraspherical,
                         ultraspherical_rodrigues)
from .quadrature import (AccuracyError, AuditRow, QuadratureConfig,
                         QuadratureResult, audit_rows_to_csv, classical_norm,
                         conformable_inner_product,
                         conformable_inner_product_direct, normalization_audit,
                         normalization_closed_form, normalization_gamma_product,
                         orthogonality_check)
from .verify import (ParamGrid, VerificationReport, ode_residual,
                     reports_to_json, reports_to_text, run_asserted_checks,
                     run_recorded_audits)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "AlphaPoly",
    "AuditRow",
    "DomainError",
    "GammaRatio",
    "GegenbauerSpec",
    "ParamGrid",
    "ParameterError",
    "QuadratureConfig",
    "QuadratureResult",
    "UltrasphericalSpec",
    "VerificationReport",
    "audit_rows_to_csv",
    "chebyshev_t",
    "chebyshev_t_rodrigues",
    "classical_norm",
    "classical_oracle",
    "conformable_inner_product",
    "conformable_inner_product_direct",
    "from_recurrence",
    "from_rodrigues",
    "from_series",
    "gamma_quotient",
    "legendre",
    "normalization_audit",
    "normalization_closed_form",
    "normalization_gamma_product",
    "ode_residual",
    "orthogonality_check",
    "pochhammer",
    "reports_to_json",
    "reports_to_text",
    "run_asserted_checks",
    "run_recorded_audits",
    "ultraspherical",
    "ultraspherical_rodrigues",
    "__version__",
]
