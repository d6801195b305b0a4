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


class DuplicateMarkedFace(PantsError):
    """The three marked faces are not pairwise distinct."""


class BadFaceIndex(PantsError):
    """A marked face is not an int or not a face index of the map."""


class EmptyLayer(PantsError):
    """Requested a boundary layer deeper than the face set allows."""


class NotSimple(PantsError):
    """A loop passed to `classify` revisits a vertex; boundary walks never
    do (see `exploration`)."""


class NotClosed(PantsError):
    """A dart walk or a face complex does not close up.

    A walk fails when it is empty, a dart lies outside the map's 0..2E-1
    or does not end where the next one starts; a face complex when an
    edge id is not used exactly twice, so it has boundary.
    """


class OutOfRange(PantsError):
    """A parameter is not an int or lies outside its range.

    Every int parameter of a signature, a family drawing, a block or a
    random map, every dart of a loop, every marked index and every level
    raises it when given a non-int (a bool included); so do a marked
    index or loop type outside 1..3, a level, face count or command-line
    limit below its minimum, and a block web larger than its neighboring
    ladders.
    """


class NegativeParameter(PantsError):
    """A size parameter that must be nonnegative is negative."""


class InvariantViolated(PantsError):
    """An internal consistency check failed, a bug upstream: only the chord
    drawing's check that each axis arc is a cut edge raises it."""


class OverlappingCrossings(PantsError):
    """Requested circle families cannot be drawn without illegal overlaps."""


class NotRealizable(PantsError):
    """The target signature fails a necessary realizability condition."""


class ConstructionFailed(PantsError):
    """A constructed graph did not verify against its target signature."""


class LimitExceeded(PantsError):
    """A computation would pass a documented limit: the brute-force search's
    cycle or step limit, a witness's dart cap or a drawing's vertex cap."""


class NonPositiveDelta(NotRealizable):
    """A pairwise marked-face distance of zero or less can never occur."""
