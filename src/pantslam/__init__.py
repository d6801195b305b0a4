"""Marked planar maps: distance signatures, laminations, realizability.

A marked map is a combinatorial map on the sphere with three chosen
faces.  The package measures distance signatures through layered
boundary loops, enumerates the integral points of the associated
lamination polytope, decides realizability of a prospective signature,
and constructs witness maps for the realizable ones.
"""

from .combmap import CombinatorialMap
from .chords import family_graph
from .constructor import ConstructionResult, construct, construct_detailed
from .errors import (
    BadFaceIndex,
    ConstructionFailed,
    Disconnected,
    DuplicateMarkedFace,
    EmptyLayer,
    InvariantViolated,
    LimitExceeded,
    MalformedRotation,
    NegativeParameter,
    NonPositiveDelta,
    NonSpherical,
    NotClosed,
    NotRealizable,
    NotSimple,
    OutOfRange,
    OverlappingCrossings,
    PantsError,
)
from .exploration import Loop, SigmaGraph
from .oracle import (
    CycleCatalog,
    all_simple_cycles,
    candidate_cycles,
    lamination_space_bruteforce,
    max_disjoint_type,
)
from .polytope import (
    LaminationPolytope,
    RealizabilityVerdict,
    check_realizable,
    enumerate_points,
    lamination_space,
    nu_transform,
)
from .randmaps import random_map, random_sigma_graph
from .render import render_svg
from .special_loops import (
    NuVector,
    SigmaVector,
    sigma_of,
    special_family,
)

__version__ = "0.1.0"

__all__ = [
    "BadFaceIndex",
    "CombinatorialMap",
    "ConstructionFailed",
    "ConstructionResult",
    "CycleCatalog",
    "Disconnected",
    "DuplicateMarkedFace",
    "EmptyLayer",
    "InvariantViolated",
    "LaminationPolytope",
    "LimitExceeded",
    "Loop",
    "MalformedRotation",
    "NegativeParameter",
    "NonPositiveDelta",
    "NonSpherical",
    "NotClosed",
    "NotRealizable",
    "NotSimple",
    "NuVector",
    "OutOfRange",
    "OverlappingCrossings",
    "PantsError",
    "RealizabilityVerdict",
    "SigmaGraph",
    "SigmaVector",
    "all_simple_cycles",
    "candidate_cycles",
    "check_realizable",
    "construct",
    "construct_detailed",
    "enumerate_points",
    "family_graph",
    "lamination_space",
    "lamination_space_bruteforce",
    "max_disjoint_type",
    "nu_transform",
    "random_map",
    "random_sigma_graph",
    "render_svg",
    "sigma_of",
    "special_family",
]
