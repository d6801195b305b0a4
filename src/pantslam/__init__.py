"""Marked planar maps: distance signatures, laminations, realizability.

A marked map is a combinatorial map on the sphere with three chosen
faces.  The package measures distance signatures through layered
boundary loops, enumerates the integral points of the associated
lamination polytope, decides realizability of a prospective signature,
and constructs witness maps for the realizable ones.
"""

from .combmap import CombinatorialMap, build_map
from .constructor import (
    ConstructionResult,
    FamilySpec,
    construct,
    construct_detailed,
    family_graph,
    search,
)
from .errors import (
    BadFaceIndex,
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
    SearchExhausted,
    UnknownVertex,
)
from .exploration import (
    Loop,
    SigmaGraph,
    distance_matrix,
    hemispheres,
    layer,
)
from .oracle import (
    CycleCatalog,
    all_simple_cycles,
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
    permute_signature,
    tau_from_mu_nu,
)
from .randmaps import delete_edge, non_bridge_edges, random_map, random_sigma_graph
from .render import render_svg
from .special_loops import (
    NuVector,
    SigmaVector,
    SpecialLoopFamily,
    loop_toward,
    sigma_of,
    special_family,
)

__version__ = "0.1.0"

__all__ = [
    "BadFaceIndex",
    "CombinatorialMap",
    "ConstructionResult",
    "CycleCatalog",
    "Disconnected",
    "DuplicateMarkedFace",
    "EmptyLayer",
    "FamilySpec",
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
    "SearchExhausted",
    "SigmaGraph",
    "SigmaVector",
    "SpecialLoopFamily",
    "UnknownVertex",
    "all_simple_cycles",
    "build_map",
    "check_realizable",
    "construct",
    "construct_detailed",
    "delete_edge",
    "distance_matrix",
    "enumerate_points",
    "family_graph",
    "hemispheres",
    "lamination_space",
    "lamination_space_bruteforce",
    "layer",
    "loop_toward",
    "max_disjoint_type",
    "non_bridge_edges",
    "nu_transform",
    "permute_signature",
    "random_map",
    "random_sigma_graph",
    "render_svg",
    "search",
    "sigma_of",
    "special_family",
    "tau_from_mu_nu",
]
