"""SVG drawings of marked maps with highlighted loops.

Layout is barycentric: the vertices of a face with the most sides are
pinned to a regular polygon and every other vertex solves to the
average of its neighbors, found by conjugate gradients on the sparse
Laplacian.
Parallel edges bow apart, self-loops become small circles, marked faces
get labels, and any supplied loops are drawn bold.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

from .combmap import CombinatorialMap
from .exploration import Loop, SigmaGraph

_PALETTE = ("#c0392b", "#2471a3", "#1e8449", "#af601a", "#7d3c98")
_SIZE = 520  # width and height of the drawing in pixels

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


def layout(cmap: CombinatorialMap) -> tuple[dict[int, tuple[float, float]], int]:
    """Vertex coordinates in the unit disk, and the outer face used.

    The outer face is the first with the most sides; its vertices go on a
    circle and the rest solve the barycentric system.
    """
    outer = max(range(cmap.num_faces), key=lambda f: len(cmap.faces[f]))
    ring: list[int] = []
    for d in cmap.faces[outer]:
        v = cmap.dart_vertex[d]
        if v not in ring:
            ring.append(v)
    nv = cmap.num_vertices
    pos = {}
    for j, v in enumerate(ring):
        ang = math.pi / 2 + 2 * math.pi * j / len(ring)
        pos[v] = (math.cos(ang), math.sin(ang))
    inner = [v for v in range(nv) if v not in pos]
    if inner:
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
                    b[j] += complex(*pos[u])
        zs = _conjugate_gradient(nbrs, diag, b)
        for v, j in index.items():
            pos[v] = (zs[j].real, zs[j].imag)
    return pos, outer


def _edge_groups(cmap: CombinatorialMap):
    plain: dict[tuple[int, int], list[int]] = {}
    loops: dict[int, list[int]] = {}
    for k in range(cmap.num_edges):
        u, v = cmap.dart_vertex[2 * k], cmap.dart_vertex[2 * k + 1]
        if u == v:
            loops.setdefault(u, []).append(k)
        else:
            plain.setdefault((min(u, v), max(u, v)), []).append(k)
    return plain, loops


def render_svg(
    graph: Union[SigmaGraph, CombinatorialMap],
    highlight: Iterable[Iterable[Loop]] = (),
) -> str:
    """Render a map (marked or bare) to an SVG 1.1 document string.

    highlight takes groups of loops; every loop in group i is stroked
    bold in the i-th palette color.
    """
    if isinstance(graph, SigmaGraph):
        cmap = graph.cmap
        marked: Sequence[int] = graph.marked
    else:
        cmap = graph
        marked = ()
    pos, outer_face = layout(cmap)
    cx = _SIZE / 2.0
    scale = _SIZE * 0.40

    def pix(p: tuple[float, float]) -> tuple[float, float]:
        return (cx + scale * p[0], cx - scale * p[1])

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

    plain, loops = _edge_groups(cmap)
    for (u, v), ks in sorted(plain.items()):
        x1, y1 = pix(pos[u])
        x2, y2 = pix(pos[v])
        n = len(ks)
        nx, ny = y2 - y1, x1 - x2
        norm = math.hypot(nx, ny) or 1.0
        nx, ny = nx / norm, ny / norm
        span = math.hypot(x2 - x1, y2 - y1)
        for j, k in enumerate(ks):
            off = (j - (n - 1) / 2.0) * min(0.35 * span, 26.0)
            if abs(off) < 1e-9:
                parts.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" %s fill="none"/>'
                             % (x1, y1, x2, y2, stroke(k)))
            else:
                mx, my = (x1 + x2) / 2 + nx * off, (y1 + y2) / 2 + ny * off
                parts.append('<path d="M %.1f %.1f Q %.1f %.1f %.1f %.1f" %s fill="none"/>'
                             % (x1, y1, mx, my, x2, y2, stroke(k)))
    for u, ks in sorted(loops.items()):
        x, y = pix(pos[u])
        dx, dy = x - cx, y - cx
        norm = math.hypot(dx, dy)
        if norm < 1e-9:
            dx, dy = 0.0, -1.0
        else:
            dx, dy = dx / norm, dy / norm
        for j, k in enumerate(ks):
            r = 10.0 + 8.0 * j
            parts.append('<circle cx="%.1f" cy="%.1f" r="%.1f" %s fill="none"/>'
                         % (x + dx * r, y + dy * r, r, stroke(k)))

    for v, p in sorted(pos.items()):
        x, y = pix(p)
        parts.append('<circle cx="%.1f" cy="%.1f" r="3.2" fill="#222"/>' % (x, y))

    for idx, f in enumerate(marked):
        if f == outer_face:
            x, y = 14.0, 20.0 + 16.0 * idx
        else:
            vs = [cmap.dart_vertex[d] for d in cmap.faces[f]]
            x = sum(pix(pos[v])[0] for v in vs) / len(vs)
            y = sum(pix(pos[v])[1] for v in vs) / len(vs)
        parts.append('<text x="%.1f" y="%.1f" font-family="sans-serif" '
                     'font-size="14" fill="#8e44ad">F%d</text>' % (x, y, idx + 1))

    parts.append("</svg>")
    return "\n".join(parts)
