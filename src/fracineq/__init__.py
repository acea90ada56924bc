"""fracineq: numerical verification of fractional trapezoid-defect inequalities.

A small library plus CLI that evaluates left/right Riemann-Liouville
fractional integrals, certifies s-convexity/s-concavity in the second
sense on grids, and checks at desk scale the exact defect identity and
the family of closed-form defect bounds for functions whose second
derivatives (or their q-th powers) are s-convex or s-concave.
"""

from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    FracineqError,
    IntegrandError,
    PreconditionError,
)
from .fracint import left_rl, right_rl
from .funclib import (
    CertificationResult,
    ConvexityClass,
    TestFunction,
    Witness,
    builtin_catalog,
    catalog_names,
    certify_s_concave,
    certify_s_convex,
    get_function,
    root_power,
    s_power,
    shifted_square,
)
from .hhbounds import (
    BoundParams,
    DefectResult,
    SandwichResult,
    classical_concave_bound,
    classical_convex_bound,
    classical_holder_bound,
    classical_power_mean_bound,
    defect_bound_holder,
    defect_bound_power_mean,
    defect_bound_s_concave,
    defect_bound_s_convex,
    defect_identity_rhs,
    s_convex_sandwich,
    trapezoid_defect,
    weight_integral_report,
)
from .quadrature import (
    EndpointSingularity,
    Integrand,
    Interval,
    QuadResult,
    integrate,
)
from .specfun import beta, gamma, log_beta, log_gamma
from .sweep import (
    SweepConfig,
    SweepReport,
    SweepRow,
    load_config,
    parse_config_text,
    render_report,
    run_sweep,
)

__version__ = "0.1.0"
