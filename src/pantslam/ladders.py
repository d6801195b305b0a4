"""Marked graphs built by doubling a planar complex of square blocks.

The half complex is a triangle with three ladders of square blocks
glued to its sides, plus a triangular staircase web filling each corner
between two neighboring ladders.  Doubling it across its boundary, with
one edge per ladder left unglued and capped by a two-sided face, gives
a closed marked graph whose three marked faces are those caps.

Parameters t = (l1, l2, l3, n1, n2, n3): li is the length of ladder i,
ni the size of the web opposite ladder i, with 0 <= ni <= min of the
two neighboring lengths.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .errors import NegativeParameter, OutOfRange
from .exploration import SigmaGraph
from .facecomplex import BuiltMap, FaceComplex

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


def _doubled_map(t: Sequence[int]) -> tuple[BuiltMap, int]:
    """The built doubled complex of t and the half complex's face count."""
    fc, spared = block_complex(t)
    return doubled(fc, spared).to_map(), len(fc.faces)


def block_graph(t: Sequence[int]) -> SigmaGraph:
    """The doubled block complex as a marked graph; the caps are marked."""
    built, nf = _doubled_map(t)
    return SigmaGraph(built.cmap, built.face_index[2 * nf:])


def block_mirror(t: Sequence[int]) -> tuple[int, ...]:
    """Dart involution of block_graph(t) exchanging the two half copies.

    Pairs the dart along each face side with the reversed dart along the
    matching side of the mirror face, and likewise across every cap.
    The result reverses orientation: it commutes with the twin map and
    conjugates the rotation system to its inverse, fixing each cap face
    setwise.
    """
    built, nf = _doubled_map(t)
    darts = built.face_darts
    phi = [-1] * built.cmap.num_darts
    def pair(a: int, b: int) -> None:
        # darts on the mirror plane pair with themselves here
        phi[a] = b ^ 1
        phi[b ^ 1] = a
        phi[a ^ 1] = b
        phi[b] = a ^ 1

    for f in range(nf):
        for a, b in zip(darts[f], reversed(darts[nf + f])):
            pair(a, b)
    for cap in darts[2 * nf:]:
        pair(*cap)
    return tuple(phi)


def block_signature(t: Sequence[int]) -> tuple[int, int, int, int, int, int]:
    """Loop-family sizes and face distances of block_graph(t), closed form."""
    t = validate_params(t)
    ls, ns = t[:3], t[3:]
    ms = []
    ds = []
    for i in range(3):
        n1, n2 = ns[(i + 1) % 3], ns[(i + 2) % 3]
        ms.append(1 + ls[i] + max(0, (ns[i] - max(n1, n2)) // 2))
        ds.append(1 + ls[(i + 1) % 3] + ls[(i + 2) % 3] - ns[i])
    return (ms[0], ms[1], ms[2], ds[0], ds[1], ds[2])
