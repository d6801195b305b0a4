"""Checkers written apart from the program, used to judge its outputs.

Nothing here imports pantslam.  Each function restates a definition from
the paper's setting directly, so that a fault in the program shows up as
a disagreement instead of being copied into the check:

- face tracing of a rotation system, with the connectivity and Euler
  checks of a sphere map;
- the face-distance BFS (faces are adjacent when they share a vertex);
- the integer points of the lamination polytope;
- the realizability inequalities T1 and T2;
- the closed-form signature of the doubled ladder block.

Darts are 0..2E-1 with twin(d) = d ^ 1; rotations[v] lists the darts
leaving v counterclockwise.  Face indices follow the file format: each
face orbit starts at its least dart and faces are sorted by that dart.
"""

from __future__ import annotations

from collections import deque
from itertools import product


class CheckFailed(Exception):
    """An output of the program disagrees with an independent check."""


def trace_faces(rotations) -> list[tuple[int, ...]]:
    """Face orbits of a sphere map, in the file format's index order.

    Raises CheckFailed unless the rotations use every dart 0..2E-1 once,
    the map is connected and V - E + F = 2.
    """
    darts = [d for rot in rotations for d in rot]
    n = len(darts)
    if n == 0 or n % 2 or sorted(darts) != list(range(n)):
        raise CheckFailed("rotations must use darts 0..2E-1 exactly once")
    succ = {}
    vertex = {}
    for v, rot in enumerate(rotations):
        for pos, d in enumerate(rot):
            succ[d] = rot[(pos + 1) % len(rot)]
            vertex[d] = v
    reached = {0}
    todo = [0]
    while todo:
        v = todo.pop()
        for d in rotations[v]:
            w = vertex[d ^ 1]
            if w not in reached:
                reached.add(w)
                todo.append(w)
    if len(reached) != len(rotations):
        raise CheckFailed("map is not connected")
    faces = []
    seen = set()
    for start in range(n):
        if start in seen:
            continue
        orbit = []
        d = start
        while d not in seen:
            seen.add(d)
            orbit.append(d)
            d = succ[d ^ 1]
        faces.append(tuple(orbit))
    euler = len(rotations) - n // 2 + len(faces)
    if euler != 2:
        raise CheckFailed("Euler characteristic %d, not 2" % euler)
    return faces


def face_distances(rotations, faces, source: int) -> list[int]:
    """Vertex-sharing hop distance from face `source` to every face."""
    face_of = {}
    for f, orbit in enumerate(faces):
        for d in orbit:
            face_of[d] = f
    at_vertex = [{face_of[d] for d in rot} for rot in rotations]
    vertices_of = [set() for _ in faces]
    for v, here in enumerate(at_vertex):
        for f in here:
            vertices_of[f].add(v)
    dist = [-1] * len(faces)
    dist[source] = 0
    queue = deque([source])
    while queue:
        f = queue.popleft()
        for v in vertices_of[f]:
            for g in at_vertex[v]:
                if dist[g] < 0:
                    dist[g] = dist[f] + 1
                    queue.append(g)
    return dist


def marked_distances(rotations, marked) -> tuple[int, int, int]:
    """Distances between the marked faces, entry i facing marked face i."""
    faces = trace_faces(rotations)
    for f in marked:
        if not 0 <= f < len(faces):
            raise CheckFailed("marked face %r out of range" % (f,))
    if len(set(marked)) != 3:
        raise CheckFailed("marked faces must be three distinct faces")
    d = [face_distances(rotations, faces, f) for f in marked]
    return (d[1][marked[2]], d[2][marked[0]], d[0][marked[1]])


def polytope_points(tau) -> set[tuple[int, int, int]]:
    """Integer (x, y, z) with 0 <= x_i <= m_i and each pair sum bounded.

    The pair (x_j, x_k) is bounded by the distance between marked faces
    j and k, which is the entry d_i facing the third face i.
    """
    m1, m2, m3, d1, d2, d3 = tau
    return {
        (x, y, z)
        for x, y, z in product(range(m1 + 1), range(m2 + 1), range(m3 + 1))
        if y + z <= d1 and x + z <= d2 and x + y <= d3
    }


def realizable(tau) -> bool:
    """T1 and T2 for every index i (indices taken cyclically).

    T1: max(m_j, m_k) <= d_i <= m_j + m_k.
    T2: d_j + d_k <= 2 m_i + d_i + 1.
    """
    m, d = tau[:3], tau[3:]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        if not max(m[j], m[k]) <= d[i] <= m[j] + m[k]:
            return False
        if d[j] + d[k] > 2 * m[i] + d[i] + 1:
            return False
    return True


def block_signature(t) -> tuple[int, ...]:
    """Closed-form signature of the doubled block with legs l and webs n.

    m_i = 1 + l_i + max(0, n_i - max(n_j, n_k)) // 2 and
    d_i = 1 + l_j + l_k - n_i, with j, k the other two indices.
    """
    ls, ns = t[:3], t[3:]
    mu = []
    delta = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        mu.append(1 + ls[i] + max(0, ns[i] - max(ns[j], ns[k])) // 2)
        delta.append(1 + ls[j] + ls[k] - ns[i])
    return tuple(mu + delta)


def permuted(tau, perm) -> tuple[int, ...]:
    """Signature after listing marked face perm[i] in position i."""
    return tuple(tau[p] for p in perm) + tuple(tau[3 + p] for p in perm)
