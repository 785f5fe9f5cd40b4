"""Numerics for affine-tensor mechanics on classical space-time.

Subpackages cover the Galilei-group transformation algebra, Galilean
connections and covariant divergence of torsor fields, media field bundles
for dimensions 0 to 3, balance-equation residuals, dimensional reduction by
cross-section and thickness quadrature, pointwise dynamics integration, and
a scenario-driven command line interface.
"""

from .affine import (
    GalileanFrameChange,
    PointwiseTorsor,
    Torsor,
    compose,
    transform_point,
    transform_stress_mass,
    transform_torsor,
)
from .balance import (
    BalanceResidual,
    residual_1d,
    residual_2d,
    residual_3d_cosserat,
    residual_cauchy,
    residual_pointwise,
)
from .connection import (
    GalileanConnection,
    PullbackChristoffels,
    divergence,
)
from .errors import (
    DegenerateTangent,
    DifferentiationFailure,
    EmptySection,
    NonMonotoneError,
    NonpositiveMass,
    ScenarioError,
    SingularMetric,
    TorsorError,
)
from .fields import (
    CauchyMedium,
    Cosserat1DField,
    Cosserat3DState,
    Curve1D,
    ShellField,
    ShellLoads,
    assemble_cauchy_T,
)
from .reduction import (
    CrossSection,
    ThicknessRule,
    projector_matrix,
    reduce_3d_to_1d_J,
    reduce_3d_to_1d_T,
    reduce_3d_to_1d_force_mass,
    reduce_3d_to_2d,
)
from .simulate import (
    IntegratorConfig,
    PointwiseState,
    Trajectory,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "GalileanFrameChange",
    "PointwiseTorsor",
    "Torsor",
    "compose",
    "transform_point",
    "transform_stress_mass",
    "transform_torsor",
    "BalanceResidual",
    "residual_pointwise",
    "residual_cauchy",
    "residual_1d",
    "residual_2d",
    "residual_3d_cosserat",
    "GalileanConnection",
    "PullbackChristoffels",
    "divergence",
    "CauchyMedium",
    "Cosserat1DField",
    "Cosserat3DState",
    "Curve1D",
    "ShellField",
    "ShellLoads",
    "assemble_cauchy_T",
    "CrossSection",
    "ThicknessRule",
    "projector_matrix",
    "reduce_3d_to_1d_T",
    "reduce_3d_to_1d_J",
    "reduce_3d_to_1d_force_mass",
    "reduce_3d_to_2d",
    "IntegratorConfig",
    "PointwiseState",
    "Trajectory",
    "run_scenario",
    "TorsorError",
    "DifferentiationFailure",
    "DegenerateTangent",
    "SingularMetric",
    "EmptySection",
    "NonpositiveMass",
    "NonMonotoneError",
    "ScenarioError",
    "__version__",
]
