"""Exception hierarchy for the pantslam package.

Every error raised by the package derives from PantsError so callers can
catch one base class at API boundaries.
"""


class PantsError(Exception):
    """Base class for all package errors."""


class MalformedRotation(PantsError):
    """Rotation data does not partition the dart set 0..2E-1."""


class Disconnected(PantsError):
    """The underlying graph is not connected."""


class NonSpherical(PantsError):
    """Euler characteristic is not 2, so the map is not on the sphere."""


class UnknownVertex(PantsError):
    """Vertex index out of range."""


class DuplicateMarkedFace(PantsError):
    """The three marked faces are not pairwise distinct."""


class BadFaceIndex(PantsError):
    """Face index out of range."""


class EmptyLayer(PantsError):
    """Requested a boundary layer deeper than the face set allows."""


class NotSimple(PantsError):
    """A walk expected to be vertex-simple revisits a vertex."""


class NotClosed(PantsError):
    """A face complex does not close up into a surface without boundary."""


class OutOfRange(PantsError):
    """A loop-family index exceeds its defined range."""


class NegativeParameter(PantsError):
    """A size parameter that must be nonnegative is negative."""


class InvariantViolated(PantsError):
    """An internal consistency check failed; indicates a bug upstream."""


class OverlappingCrossings(PantsError):
    """Requested circle families cannot be drawn without illegal overlaps."""


class NotRealizable(PantsError):
    """The target signature fails a necessary realizability condition."""


class ConstructionFailed(PantsError):
    """A constructed graph did not verify against its target signature."""


class LimitExceeded(PantsError):
    """Brute-force enumeration exceeded its configured work limits."""


class NonPositiveDelta(NotRealizable):
    """A pairwise marked-face distance of zero or less can never occur."""
