"""Shared graph builders and the fixed test corpus.

The corpus is the union of the theta graph, two hand-picked ring
arrangements, every doubled-ladder tuple with small leg lengths, and
every valid ring-family spec with counts up to three.
"""

from itertools import product

import pytest

from pantslam.chords import family_graph
from pantslam.combmap import CombinatorialMap
from pantslam.exploration import SigmaGraph
from pantslam.ladders import block_graph

from helpers import slack_form_ok

THETA_ROTATIONS = ((0, 2, 4), (5, 3, 1))

# three concentric families of sizes 4, 1, 1 with two crossing pairs;
# its signature is (4, 1, 1, 1, 4, 5)
CROSSED_RINGS_SPEC = ((4, 1, 1), (1, 1, 0), ())

# one ring around each marked face, no crossings; signature (1, 1, 1, 2, 2, 2)
TRIPLE_RING_SPEC = ((1, 1, 1), (0, 0, 0), ())


def theta_graph(path_edges: int = 1) -> SigmaGraph:
    """Two vertices joined by three paths of path_edges edges each.

    Path p is edges p*path_edges onward, leaving vertex 0 by its even
    darts; all three faces are marked.  One edge per path gives
    THETA_ROTATIONS.
    """
    n = path_edges
    rots = [[0, 2 * n, 4 * n], [2 * (p * n + n) - 1 for p in (2, 1, 0)]]
    for p in range(3):
        for j in range(1, n):
            e = p * n + j
            rots.append([2 * e, 2 * e - 1])
    return SigmaGraph(CombinatorialMap(rots), (0, 1, 2))


def nested_loops(k: int) -> SigmaGraph:
    """A path of k >= 2 vertices, vertex j carrying self-loop j, each loop
    enclosing the rest of the path; its signature is (k-1, 1, 0, 1, k-1, k).

    Self-loop j is edge j and the path edge from j to j+1 is edge k+j.
    Marked are the disk inside the last loop, the face outside the first
    and the face between the first two loops.
    """
    rots = []
    for j in range(k):
        rot = [2 * (k + j) - 1] if j else []  # from vertex j-1
        rot.append(2 * j)
        if j < k - 1:
            rot.append(2 * (k + j))
        rot.append(2 * j + 1)
        rots.append(rot)
    cm = CombinatorialMap(rots)

    def monogon(d: int) -> int:
        sides = (cm.face_of_dart[d], cm.face_of_dart[d ^ 1])
        return next(f for f in sides if len(cm.faces[f]) == 1)

    return SigmaGraph(cm, (monogon(2 * (k - 1)), monogon(0), cm.face_of_dart[2 * k]))


# the corpus jobs on which `oracle.all_simple_cycles`, the full catalog,
# runs past its default limits: 100,000 cycles on all but two ring
# families, 10,000,000 search steps on those; only the tests of the full
# catalog (`CATALOGUED_JOBS` in test_oracle) leave them out
OVER_LIMIT = frozenset(
    [("block", t) for t in [
        (1, 2, 2, 2, 1, 1), (2, 1, 2, 1, 2, 1), (2, 2, 1, 1, 1, 2),
        (2, 2, 2, 0, 2, 2), (2, 2, 2, 1, 1, 2), (2, 2, 2, 1, 2, 1),
        (2, 2, 2, 1, 2, 2), (2, 2, 2, 2, 0, 2), (2, 2, 2, 2, 1, 1),
        (2, 2, 2, 2, 1, 2), (2, 2, 2, 2, 2, 0), (2, 2, 2, 2, 2, 1),
        (2, 2, 2, 2, 2, 2)]]
    + [("family", (counts, depths, ())) for counts, depths in [
        ((3, 3, 3), (3, 2, 3)), ((3, 3, 3), (3, 3, 2)), ((3, 3, 3), (3, 3, 3))]]
)


def block_corpus(limit: int = 2) -> list[tuple[int, ...]]:
    """All ladder tuples with leg lengths <= limit and admissible rungs."""
    out = []
    for ls in product(range(limit + 1), repeat=3):
        for ns in product(range(limit + 1), repeat=3):
            if all(ns[i] <= min(ls[(i + 1) % 3], ls[(i + 2) % 3]) for i in range(3)):
                out.append(ls + ns)
    return out


def family_corpus(limit: int = 3) -> list[tuple]:
    """All valid ring-family specs with counts <= limit.

    Tangent caps are enumerated only on crossing-free specs, one entry
    per nonempty cap subset whose capped families are nonempty.
    """
    out = []
    for counts in product(range(limit + 1), repeat=3):
        if sum(1 for c in counts if c == 0) > 1:
            continue
        maxq = [min(counts[i], counts[(i + 1) % 3]) for i in range(3)]
        for depths in product(range(limit + 1), repeat=3):
            if not all(depths[(i + 2) % 3] <= maxq[i] for i in range(3)):
                continue
            out.append((counts, depths, ()))
            if all(d == 0 for d in depths):
                for caps in product((0, 1), repeat=3):
                    idx = tuple(i for i, b in enumerate(caps) if b)
                    if idx and all(counts[i] >= 1 for i in idx):
                        out.append((counts, depths, idx))
    return out


def realizable_grid(cap: int = 3):
    """All realizable signatures with family sizes at most cap."""
    out = []
    for mu in product(range(cap + 1), repeat=3):
        ranges = [range(min(mu[(i + 1) % 3], mu[(i + 2) % 3]) + 1) for i in range(3)]
        for nu in product(*ranges):
            delta = tuple(mu[(i + 1) % 3] + mu[(i + 2) % 3] - nu[i] for i in range(3))
            if min(delta) < 1:
                continue
            tau = mu + delta
            if slack_form_ok(tau):
                out.append(tau)
    return sorted(set(out))


def sigma_cd(counts, depths):
    """Signature measured by the drawings with these counts and depths."""
    mu, delta = [], []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        mu.append(counts[i] + max(0, (depths[i] - max(depths[j], depths[k])) // 2))
        delta.append(counts[j] + counts[k] - depths[i])
    return tuple(mu + delta)


def block_sigma(t):
    """Signature block_graph(t) measures: the drawing's, at counts l + 1
    and depths n + 1 (see the `ladders` docstring)."""
    return sigma_cd([v + 1 for v in t[:3]], [v + 1 for v in t[3:]])


def corpus_jobs(block_limit: int = 2, family_limit: int = 3) -> list[tuple]:
    """The full corpus as (kind, params) pairs, deduplicated."""
    jobs = [("theta", None)]
    seen = set()
    for spec in (CROSSED_RINGS_SPEC, TRIPLE_RING_SPEC):
        jobs.append(("family", spec))
        seen.add(spec)
    for t in block_corpus(block_limit):
        jobs.append(("block", t))
    for spec in family_corpus(family_limit):
        if spec not in seen:
            seen.add(spec)
            jobs.append(("family", spec))
    return jobs


def build_corpus_graph(kind: str, params) -> SigmaGraph:
    if kind == "theta":
        return theta_graph()
    if kind == "family":
        return family_graph(*params)
    if kind == "block":
        return block_graph(params)
    raise ValueError("unknown corpus kind %r" % kind)


@pytest.fixture
def theta() -> SigmaGraph:
    return theta_graph()


@pytest.fixture
def crossed_rings() -> SigmaGraph:
    return family_graph(*CROSSED_RINGS_SPEC)


@pytest.fixture
def triple_ring() -> SigmaGraph:
    return family_graph(*TRIPLE_RING_SPEC)
