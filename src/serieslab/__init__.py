"""serieslab: time-power-series solutions of three classic nonlinear ODE
models, their radii of convergence, and quantitative demonstrations of
where truncated series fail and how piecewise restarts repair them."""

from .convergence import (
    MULTISTAGE_RADIUS_FLOOR,
    NotEstimableError,
    RadiusReport,
    estimate_radius,
    riccati_radii,
    riccati_radius,
)
from .exact import (
    BlowUpError,
    BracketError,
    NearSingularError,
    QuadratureError,
    SirEndpoints,
    find_root_bracketed,
    lv_conserved,
    riccati_exact,
    sir_curves,
    sir_endpoints,
    sir_t_of_x,
    sir_y_of_x,
    sir_z_of_x,
)
from .figures import polyline_self_intersects, reproduce_figure
from .integrators import (
    DivergenceError,
    IntegrationError,
    Trajectory,
    lv_closed_orbit,
    multistage_taylor,
    reference_integrate,
    sample_series,
)
from .models import (
    MODELS,
    RICCATI_STATIONARY,
    RICCATI_UNSTABLE,
    ModelInstance,
    ModelSpec,
    Monomial,
    PolynomialVectorField,
    build_riccati,
    make_model,
)
from .report import ComparisonReport, ReportRow
from .scenario import (
    ScenarioConfig,
    load_preset,
    preset_names,
    run_scenario,
    validate_config,
)
from .series import (
    SeriesSolution,
    TruncatedSeries,
    eval_series,
    generate_taylor_solution,
    taylor_coefficients,
)

__version__ = "0.1.0"
