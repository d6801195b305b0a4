"""Marked planar maps: distance signatures, laminations, realizability.

A marked map is a combinatorial map on the sphere with three chosen
faces.  The package measures distance signatures through layered
boundary loops, enumerates the integral points of the associated
lamination polytope, decides realizability of a prospective signature,
and constructs witness maps for the realizable ones.
"""

__version__ = "0.1.0"
