"""Exception hierarchy for the geometry engine."""


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(GeometryError):
    """Vector or matrix does not match the ambient dimension n+1."""


class SpherePointError(GeometryError):
    """Point is not on the unit pseudo-sphere within tolerance."""


class NotProjectablePoint(GeometryError):
    """Ambient vector has non-positive squared norm, so it has no point class."""


class CausalCharacterError(GeometryError):
    """A vector has the wrong causal character for the requested operation."""


class FrameError(GeometryError):
    """Orthonormal frame construction or validation failed."""


class SamplingError(GeometryError):
    """Sampled curve has too few samples for the requested stencil."""


class SpeedError(GeometryError):
    """Curve is not unit speed within tolerance."""


class LiftError(GeometryError):
    """Horizontal lift construction failed."""


class ChartError(GeometryError):
    """Leaf coordinates fall outside the fixed chart radius."""


class ImmersionError(GeometryError):
    """Numerical Jacobian of the parametrization is rank deficient."""


class DegenerateHypersurfaceError(GeometryError):
    """Unit normal cannot be normalized: the hypersurface is lightlike here."""


class ClassificationError(GeometryError):
    """Base curve matches none of the three minimal cases."""


class DomainError(GeometryError):
    """Seed point violates the domain condition of the chosen family."""
