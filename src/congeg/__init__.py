"""Conformable Gegenbauer polynomial family.

Exact constructors for ultraspherical-type polynomials in the conformable
setting (polynomials in x^a with rational coefficients), three agreeing
construction routes, identity verification sweeps, exact weighted inner
products, and a CLI.

Convention used throughout: x^a means sign(x) |x|^a, so every family member
is defined on [-1, 1] and keeps its parity; at a = 1 everything reduces to
the classical Gegenbauer family.

The names below resolve on first access: `import congeg` loads none of the
layers, and `congeg.AlphaPoly` or `from congeg import AlphaPoly` imports
only the module that defines it.  So a command of the CLI pays for the
layers it runs and no others.
"""
import importlib

__version__ = "0.1.0"

# Each public name by the module that defines it.
_HOMES = {
    "alphapoly": ("AccuracyError", "AlphaPoly", "DomainError", "ParameterError",
                  "pochhammer"),
    "gegenbauer": ("GegenbauerSpec", "UltrasphericalSpec", "chebyshev_t",
                   "chebyshev_t_rodrigues", "classical_oracle", "from_recurrence",
                   "from_rodrigues", "from_series", "legendre", "ultraspherical",
                   "ultraspherical_rodrigues"),
    "quadrature": ("AuditRow", "QuadratureResult", "audit_rows_to_csv", "classical_norm",
                   "conformable_inner_product", "conformable_inner_product_direct",
                   "normalization_audit", "normalization_closed_form",
                   "normalization_gamma_product", "orthogonality_check"),
    "report": ("VerificationReport", "reports_to_json", "reports_to_text"),
    "verify": ("ode_residual", "run_asserted_checks", "run_recorded_audits"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted({*globals(), *_HOME})


__all__ = [*sorted(_HOME), "__version__"]
