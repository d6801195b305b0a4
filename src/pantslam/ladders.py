"""Marked graphs built by doubling a planar complex of square blocks.

The half complex is a triangle with three ladders of square blocks
glued to its sides, plus a triangular staircase web filling each corner
between two neighboring ladders.  Doubling it across its boundary, with
one edge per ladder left unglued and capped by a two-sided face, gives
a closed marked graph whose three marked faces are those caps.

Parameters t = (l1, l2, l3, n1, n2, n3): li is the length of ladder i,
ni the size of the web opposite ladder i, with 0 <= ni <= min of the
two neighboring lengths.  Block graph t measures the signature of the
chord drawing (see `chords`) with counts l + 1 and depths n + 1.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .errors import NegativeParameter, OutOfRange
from .exploration import SigmaGraph
from .facecomplex import FaceComplex

Params = tuple[int, int, int, int, int, int]


def validate_params(t: Sequence[int]) -> Params:
    if len(t) != 6:
        raise NegativeParameter("need six block parameters")
    for v in t:
        if type(v) is not int:
            raise OutOfRange("block parameters must be ints, got %r" % (v,))
    l1, l2, l3, n1, n2, n3 = t
    ls, ns = (l1, l2, l3), (n1, n2, n3)
    if any(v < 0 for v in ls) or any(v < 0 for v in ns):
        raise NegativeParameter("block parameters must be nonnegative")
    for i in range(3):
        if ns[i] > min(ls[(i + 1) % 3], ls[(i + 2) % 3]):
            raise OutOfRange(
                "web %d larger than its neighboring ladders" % (i + 1)
            )
    return (l1, l2, l3, n1, n2, n3)


def block_complex(t: Sequence[int]) -> tuple[FaceComplex, list]:
    """The half complex and its three to-be-spared boundary edges."""
    t = validate_params(t)
    ls, ns = t[:3], t[3:]
    fc = FaceComplex()
    fc.add_face((("conn", 0), ("conn", 1), ("conn", 2)))
    for j in range(3):
        for m in range(1, ls[j] + 1):
            rung = ("conn", j) if m == ls[j] else ("rung", j, m)
            fc.add_face((("bot", j, m), rung, ("top", j, m), ("rung", j, m - 1)))
    for i in range(3):
        n = ns[i]
        j1, j2 = (i + 1) % 3, (i + 2) % 3

        def hid(x: int, y: int):
            return ("bot", j1, ls[j1] - x + 1) if y == 0 else ("wh", i, x, y)

        def vid(x: int, y: int):
            return ("top", j2, ls[j2] - y + 1) if x == 0 else ("wv", i, x, y)

        for x in range(1, n + 1):
            for y in range(1, n + 2 - x):
                fc.add_face((hid(x, y - 1), vid(x, y), hid(x, y), vid(x - 1, y)))
    spared = [
        ("rung", j, 0) if ls[j] >= 1 else ("conn", j) for j in range(3)
    ]
    return fc, spared


def doubled(fc: FaceComplex, spared: Sequence) -> FaceComplex:
    """fc glued to its mirror image along the boundary, except at spared edges.

    Face f of fc keeps index f; its mirror, the same ids in reverse
    order, is face nf + f.  Interior ids of the mirror become ("m", e);
    unspared boundary ids stay shared, which sews the copies together.
    Spared edge i is bridged by the digon (e, ("m", e)), face 2 nf + i.
    """
    uses = Counter(e for face in fc.faces for e in face)
    rim = {e for e, k in uses.items() if k == 1}.difference(spared)
    out = FaceComplex()
    for face in fc.faces:
        out.add_face(face)
    for face in fc.faces:
        out.add_face([e if e in rim else ("m", e) for e in reversed(face)])
    for e in spared:
        out.add_face((e, ("m", e)))
    return out


def block_graph(t: Sequence[int]) -> SigmaGraph:
    """The doubled block complex as a marked graph; the caps are marked."""
    fc, spared = block_complex(t)
    built = doubled(fc, spared).to_map()
    return SigmaGraph(built.cmap, built.face_index[2 * len(fc.faces):])

