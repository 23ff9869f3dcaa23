"""Sharp growth bounds for harmonic mappings between real unit balls.

The package solves the Lagrange moment system attached to a prescribed
center value, builds the extremal boundary map, evaluates its harmonic
extension, and exposes the resulting sharp directional bounds together
with the convex envelope of the image of a closed ball.  A discretized
convex program and mean-value probes provide independent verification.
"""

from .bounds import (
    BoundResult,
    RegionEnvelope,
    axis_bound,
    classical_bound,
    direction_family,
    directional_bound,
    envelope_to_json,
    region_envelope,
)
from .errors import OracleError, QuadratureError, SolverError
from .linalg import bordered_det, rotation_to_pole
from .mapping import (
    BoundaryMap,
    MapEvaluation,
    axis_values,
    boundary_map,
    boundary_maps,
    constant_map,
    constraint_residuals,
    eval_batch,
    eval_general,
    eval_on_axis,
)
from .oracle import (
    AdmissibleMixture,
    DiscretizedProgram,
    admissible_mixture,
    build_program,
    discretized_max,
    discretized_max_sphere,
    jacobian_fd_check,
    mean_value_residual,
)
from .solver import (
    LagrangeSolution,
    ProblemSpec,
    jacobian_RI,
    kernel_inverse,
    kernel_profile,
    moments_RI,
    solve_batch,
    solve_positive_b,
    solve_zero_b,
)
from .sphere import (
    BiaxialRule,
    QuadratureRule,
    biaxial_rule,
    poisson_kernel,
    sample_sphere,
    zonal_integrate,
    zonal_rule,
)

__version__ = "0.1.0"

_ACCEPTANCE = ("CRITERIA", "CriterionResult", "run_suite")


def __getattr__(name: str):
    # the acceptance suite loads on first use: only `verify` needs it (PEP 562)
    if name in _ACCEPTANCE:
        from . import acceptance

        return getattr(acceptance, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdmissibleMixture",
    "BiaxialRule",
    "BoundResult",
    "BoundaryMap",
    "CRITERIA",
    "CriterionResult",
    "DiscretizedProgram",
    "LagrangeSolution",
    "MapEvaluation",
    "OracleError",
    "ProblemSpec",
    "QuadratureError",
    "QuadratureRule",
    "RegionEnvelope",
    "SolverError",
    "admissible_mixture",
    "axis_bound",
    "axis_values",
    "biaxial_rule",
    "bordered_det",
    "boundary_map",
    "boundary_maps",
    "build_program",
    "classical_bound",
    "constant_map",
    "constraint_residuals",
    "direction_family",
    "directional_bound",
    "discretized_max",
    "discretized_max_sphere",
    "envelope_to_json",
    "eval_batch",
    "eval_general",
    "eval_on_axis",
    "jacobian_RI",
    "jacobian_fd_check",
    "kernel_inverse",
    "kernel_profile",
    "mean_value_residual",
    "moments_RI",
    "poisson_kernel",
    "region_envelope",
    "rotation_to_pole",
    "run_suite",
    "sample_sphere",
    "solve_batch",
    "solve_positive_b",
    "solve_zero_b",
    "zonal_integrate",
    "zonal_rule",
]
