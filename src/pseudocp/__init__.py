"""Numerical geometry engine for the indefinite complex projective space.

Core layers: indefinite linear algebra and pseudo-sphere calculus, the
circle-quotient model with horizontal lifts and closed-form geodesics,
frame-built holomorphic isometries, Frenet machinery for curves, ruled
hypersurface parametrizations with numeric shape operators, and four
closed-form hypersurface families used as oracles. The leaf through a base
point alpha(s) is the complex hyperplane P(alpha'(s)^perp); the transported
frame spans it, which ``verify`` checks as ``transport_orth_velocity`` and
``transport_orth_j_velocity``.
"""

from .config import RunConfig
from .curves import (
    ClosedFormCurve,
    FrenetResult,
    MinimalCase,
    SampledCurve,
    case_c1_curve,
    case_c2_curve,
    case_c_verify,
    frenet_apparatus,
    horizontal_lift,
    is_totally_real_circle,
    model_circle_curve,
    sampled_curve_from_fn,
)
from .errors import GeometryError
from .examples import (
    ExampleSpec,
    example_cross_check,
    example_fields,
    example_integral_curve,
    example_map,
    example_spec,
    gamma_seed,
)
from .isometries import IndefiniteUnitaryMatrix, frame_to_isometry
from .linalg import (
    CausalCharacter,
    Signature,
    causal_character,
    hermitian_product,
    jmul,
    real_metric,
)
from .projective import (
    ProjectivePoint,
    canonicalize,
    curvature_tensor,
    sphere_geodesic,
)
from .ruled import (
    AlmostContactFrame,
    ClassificationReport,
    GeodesicSpherePatch,
    RHSParametrization,
    ShapeReport,
    classify_generating_curve,
    classify_minimal_ruled,
    rhs_evaluate,
    shape_operator_at,
    shape_operators,
    transport_basis,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
