"""SVG drawings of marked maps with highlighted loops.

Layout is barycentric: the vertices of a face with the most sides are
pinned to a regular polygon and every other vertex solves to the
average of its neighbors, found by conjugate gradients on the sparse
Laplacian.
Parallel edges bow apart, self-loops become small circles, marked faces
get labels, and any supplied loops are drawn bold.  The layout takes
time of about n^1.7 on n vertices, so a map of more than
MAX_DRAWN_VERTICES vertices is refused with LimitExceeded.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

from .combmap import CombinatorialMap
from .errors import LimitExceeded
from .exploration import Loop, SigmaGraph

_PALETTE = ("#c0392b", "#2471a3", "#1e8449", "#af601a", "#7d3c98")
_SIZE = 520  # width and height of the drawing in pixels
MAX_DRAWN_VERTICES = 20_000  # see the module docstring

_CG_TOL = 1e-13  # stop once the residual falls below this share of |b|
_CG_ROUNDS = 4  # iteration cap, in multiples of the number of unknowns


def _conjugate_gradient(
    nbrs: list[list[int]], diag: list[float], b: list[complex]
) -> list[complex]:
    """Solve A z = b for A = diag(diag) minus the adjacency nbrs.

    A is the Laplacian of a connected map with its ring pinned, hence
    symmetric positive definite, so conjugate gradients converge.  A is
    real, so one complex solve with Hermitian inner products solves the
    real and imaginary parts of b at once.
    """
    n = len(b)
    x = [0j] * n
    r = list(b)
    p = list(r)
    rr = sum(abs(v) ** 2 for v in r)
    stop = rr * _CG_TOL * _CG_TOL
    for _ in range(_CG_ROUNDS * n):
        if rr <= stop:
            break
        ap = [diag[j] * p[j] - sum(p[u] for u in nbrs[j]) for j in range(n)]
        alpha = rr / sum((pj.conjugate() * aj).real for pj, aj in zip(p, ap))
        x = [xj + alpha * pj for xj, pj in zip(x, p)]
        r = [rj - alpha * aj for rj, aj in zip(r, ap)]
        rr, rr_old = sum(abs(v) ** 2 for v in r), rr
        beta = rr / rr_old
        p = [rj + beta * pj for rj, pj in zip(r, p)]
    return x


def layout(cmap: CombinatorialMap) -> tuple[list[complex], int]:
    """Complex vertex positions in the unit disk, by vertex, and the outer face.

    The outer face is the first with the most sides; its vertices go on a
    circle and the rest solve the barycentric system.
    """
    outer = max(range(cmap.num_faces), key=lambda f: len(cmap.faces[f]))
    ring = dict.fromkeys(cmap.dart_vertex[d] for d in cmap.faces[outer])
    pos = [0j] * cmap.num_vertices
    for j, v in enumerate(ring):
        ang = math.pi / 2 + 2 * math.pi * j / len(ring)
        pos[v] = complex(math.cos(ang), math.sin(ang))
    inner = [v for v in range(cmap.num_vertices) if v not in ring]
    index = {v: j for j, v in enumerate(inner)}
    # the pinned-ring Laplacian: diag[j] counts the non-loop edges at
    # inner vertex j, nbrs[j] lists its inner neighbors with multiplicity
    nbrs: list[list[int]] = [[] for _ in inner]
    diag = [0.0] * len(inner)
    b = [0j] * len(inner)
    for j, v in enumerate(inner):
        for d in cmap.rotations[v]:
            u = cmap.dart_vertex[d ^ 1]
            if u == v:
                continue
            diag[j] += 1.0
            if u in index:
                nbrs[j].append(index[u])
            else:
                b[j] += pos[u]
    for v, z in zip(inner, _conjugate_gradient(nbrs, diag, b)):
        pos[v] = z
    return pos, outer


def render_svg(
    graph: Union[SigmaGraph, CombinatorialMap],
    highlight: Iterable[Iterable[Loop]] = (),
) -> str:
    """Render a map (marked or bare) to an SVG 1.1 document string.

    highlight takes groups of loops; every loop in group i is stroked
    bold in the i-th palette color; it is read after the layout.
    LimitExceeded when the map has more than MAX_DRAWN_VERTICES vertices.
    """
    if isinstance(graph, SigmaGraph):
        cmap = graph.cmap
        marked: Sequence[int] = graph.marked
    else:
        cmap = graph
        marked = ()
    if cmap.num_vertices > MAX_DRAWN_VERTICES:
        raise LimitExceeded("drawing would have %d vertices, more than the cap of %d"
                            % (cmap.num_vertices, MAX_DRAWN_VERTICES))
    pos, outer_face = layout(cmap)
    centre = complex(_SIZE / 2.0, _SIZE / 2.0)
    # pixel positions: the SVG's y axis points down, hence the conjugate
    pix = [centre + _SIZE * 0.40 * z.conjugate() for z in pos]

    edge_color: dict[int, str] = {}  # per bold edge
    for gi, group in enumerate(highlight):
        color = _PALETTE[gi % len(_PALETTE)]
        for loop in group:
            for d in loop.darts:
                edge_color[d >> 1] = color

    def stroke(k: int) -> str:
        if k in edge_color:
            return 'stroke="%s" stroke-width="3.2"' % edge_color[k]
        return 'stroke="#555" stroke-width="1.3"'

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%d" viewBox="0 0 %d %d">' % ((_SIZE,) * 4),
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    plain: dict[tuple[int, int], list[int]] = {}
    loops: dict[int, list[int]] = {}
    for k in range(cmap.num_edges):
        u, v = cmap.dart_vertex[2 * k], cmap.dart_vertex[2 * k + 1]
        if u == v:
            loops.setdefault(u, []).append(k)
        else:
            plain.setdefault((min(u, v), max(u, v)), []).append(k)
    for (u, v), ks in sorted(plain.items()):
        a, b = pix[u], pix[v]
        span = abs(b - a)
        normal = (a - b) * 1j / (span or 1.0)  # the unit normal (b - a) * -i
        for j, k in enumerate(ks):
            off = (j - (len(ks) - 1) / 2.0) * min(0.35 * span, 26.0)
            if abs(off) < 1e-9:
                parts.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" %s fill="none"/>'
                             % (a.real, a.imag, b.real, b.imag, stroke(k)))
            else:
                bow = (a + b) / 2 + normal * off
                parts.append('<path d="M %.1f %.1f Q %.1f %.1f %.1f %.1f" %s fill="none"/>'
                             % (a.real, a.imag, bow.real, bow.imag, b.real, b.imag,
                                stroke(k)))
    for u, ks in sorted(loops.items()):
        away = pix[u] - centre
        # a loop points away from the centre, or up from a vertex at it
        out = away / abs(away) if abs(away) >= 1e-9 else -1j
        for j, k in enumerate(ks):
            r = 10.0 + 8.0 * j
            c = pix[u] + out * r
            parts.append('<circle cx="%.1f" cy="%.1f" r="%.1f" %s fill="none"/>'
                         % (c.real, c.imag, r, stroke(k)))

    for p in pix:
        parts.append('<circle cx="%.1f" cy="%.1f" r="3.2" fill="#222"/>' % (p.real, p.imag))

    for idx, f in enumerate(marked):
        vs = [pix[cmap.dart_vertex[d]] for d in cmap.faces[f]]
        at = complex(14.0, 20.0 + 16.0 * idx) if f == outer_face else sum(vs) / len(vs)
        parts.append('<text x="%.1f" y="%.1f" font-family="sans-serif" '
                     'font-size="14" fill="#8e44ad">F%d</text>' % (at.real, at.imag, idx + 1))

    parts.append("</svg>")
    return "\n".join(parts)
