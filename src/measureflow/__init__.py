"""measureflow: finite atomic measure dynamics with exact transport metrics.

Evolves atomic measures under probability vector fields and mass sources by
an explicit Euler lattice scheme.  Computes the Wasserstein and generalized
Wasserstein (flat) distances exactly, by a network simplex with an
optimality certificate, and the fiber velocity-matching costs as HiGHS
linear programs.  The fiber LPs relax "the base coupling is optimal" to a
base cost within 1e-9 (1 + W*) of the optimum, so their values can sit up to
about 5e-4 relative below the two-stage optimum.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    LipschitzViolation,
    MassMismatch,
    MeasureflowError,
    ProfileRangeError,
    SolverError,
    SupportOverflow,
)
from .fiber import FiberPlan, check_ww_inequalities, fiber_w, fiber_wg
from .fields import (
    Ball,
    PiecewiseLinear,
    PvfSpec,
    SourceSpec,
    probe_s1_lipschitz,
    probe_v2_lipschitz,
)
from .flat import GwSolution, generalized_wasserstein, gw_dual_probe, integral_bound_check
from .lattice import (
    LatticeGrid,
    Trajectory,
    av_discretize,
    ax_discretize,
    interpolate,
    las_step,
    run_semigroup,
)
from .measures import DiscreteMeasure, LiftedMeasure, SignedDecomposition
from .problems import ProblemSpec, builtin_problem
from .wasserstein import (
    TransportPlan,
    dual_lower_bound,
    wasserstein1,
    wasserstein1_1d,
    wasserstein1_1d_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "ConfigError",
    "DimensionMismatch",
    "DiscreteMeasure",
    "FiberPlan",
    "GwSolution",
    "LatticeGrid",
    "LiftedMeasure",
    "LipschitzViolation",
    "MassMismatch",
    "MeasureflowError",
    "PiecewiseLinear",
    "ProblemSpec",
    "ProfileRangeError",
    "PvfSpec",
    "SignedDecomposition",
    "SolverError",
    "SourceSpec",
    "SupportOverflow",
    "Trajectory",
    "TransportPlan",
    "av_discretize",
    "ax_discretize",
    "builtin_problem",
    "check_ww_inequalities",
    "dual_lower_bound",
    "fiber_w",
    "fiber_wg",
    "generalized_wasserstein",
    "gw_dual_probe",
    "integral_bound_check",
    "interpolate",
    "las_step",
    "probe_s1_lipschitz",
    "probe_v2_lipschitz",
    "run_semigroup",
    "wasserstein1",
    "wasserstein1_1d",
    "wasserstein1_1d_uniform",
]
