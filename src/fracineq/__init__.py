"""fracineq: numerical verification of fractional trapezoid-defect inequalities.

A small library plus CLI that evaluates left/right Riemann-Liouville
fractional integrals, certifies s-convexity/s-concavity in the second
sense on grids, and checks at desk scale the exact defect identity and
the family of closed-form defect bounds for functions whose second
derivatives (or their q-th powers) are s-convex or s-concave.

``import fracineq`` loads none of the submodules: each public name is
imported from its module on first access (PEP 562), so a CLI command pays
only for the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "AccuracyError", "ConfigError", "DomainError", "FracineqError",
        "IntegrandError", "PreconditionError"), "errors"),
    **dict.fromkeys(("left_rl", "right_rl"), "fracint"),
    **dict.fromkeys((
        "CertificationResult", "ConvexityClass", "TestFunction", "Witness",
        "builtin_catalog", "catalog_names", "certify_s_concave",
        "certify_s_convex", "get_function", "root_power", "s_power",
        "shifted_square"), "funclib"),
    **dict.fromkeys((
        "BoundParams", "DefectResult", "SandwichResult",
        "classical_concave_bound", "classical_convex_bound",
        "classical_holder_bound", "classical_power_mean_bound",
        "defect_bound_holder", "defect_bound_power_mean",
        "defect_bound_s_concave", "defect_bound_s_convex",
        "defect_identity_rhs", "s_convex_sandwich", "trapezoid_defect",
        "weight_integral_report"), "hhbounds"),
    **dict.fromkeys(("Interval", "QuadResult", "integrate"), "quadrature"),
    **dict.fromkeys(("beta", "gamma", "log_beta", "log_gamma"), "specfun"),
    **dict.fromkeys((
        "SweepConfig", "SweepReport", "SweepRow", "load_config",
        "parse_config_text", "render_report", "run_sweep"), "sweep"),
}
_SUBMODULES = frozenset(("cli", "errors", "fracint", "funclib", "hhbounds",
                         "quadrature", "specfun", "sweep"))

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # later lookups find the name here and no longer reach __getattr__
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
