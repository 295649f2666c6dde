"""Exception hierarchy for the geometry engine.

Numerical singularities (a transform passing through infinity, a quaternion
inverse at a near-zero value) are reported through these exceptions rather
than propagated as NaNs.  Errors raised at a grid node carry the node index.
"""


class GeometryError(Exception):
    """Base class; optionally records the grid node where the error occurred."""

    def __init__(self, message, node=None):
        if node is not None:
            message = f"{message} (at node {node})"
        super().__init__(message)
        self.node = node


class NearZeroQuaternion(GeometryError):
    """Quaternion inverse requested for |q| below the inversion threshold."""


class PNotImaginary(GeometryError):
    """A point of Euclidean 3-space was expected (real part must vanish)."""


class SingularMatrix(GeometryError):
    """2x2 quaternionic matrix is not invertible."""


class DegenerateQuadruple(GeometryError):
    """Cross-ratio of four points with near-coincident members."""


class GridMismatch(GeometryError):
    """Operation on fields living on different grids."""


class MaskedNeighbor(GeometryError):
    """A finite-difference stencil has no unmasked neighborhood."""


class MaskedRegion(GeometryError):
    """An integration path from the base node crosses masked nodes."""


class NotClosed(GeometryError):
    """1-form failed the discrete closedness precondition."""


class NotIntegrable(GeometryError):
    """Connection form failed the discrete Maurer-Cartan precondition."""


class StepBlowup(GeometryError):
    """ODE integration left the trusted range (entry norm too large)."""


class DegenerateTangent(GeometryError):
    """Immersion condition violated (a tangent vector is near zero)."""


class SingularityHit(GeometryError):
    """A Darboux transform touched the base surface (difference near zero)."""


class NotAdapted(GeometryError):
    """Frame field is not adapted to the given surface."""


class InitialOnBoundary(GeometryError):
    """Initial value for a cmc construction lies on the boundary plane."""


class BoundaryContact(GeometryError):
    """Surface touches the boundary plane of the half-space model."""


class UmbilicRegion(GeometryError):
    """Operation requires a patch free of umbilic points."""


class PatternMismatch(GeometryError):
    """Connection form does not match the expected structure."""


class FrameUnavailable(GeometryError):
    """A frame-based check was requested without the required frame."""


class PoleProximity(GeometryError):
    """Closed-form evaluation too close to a pole of tanh/cosh."""


class ClosedFormOverflow(GeometryError):
    """Closed-form evaluation would overflow (cosh of a large argument)."""


class ConfigInvalid(GeometryError):
    """Pipeline configuration failed validation."""


class IoError(GeometryError):
    """Output directory or artifact could not be written."""
