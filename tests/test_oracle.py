"""Brute-force cycle catalog against the layered pipeline."""

import random

import pytest

from pantslam import oracle
from pantslam.chords import family_graph
from pantslam.combmap import CombinatorialMap
from pantslam.errors import EmptyLayer, LimitExceeded, OutOfRange
from pantslam.exploration import SigmaGraph, loop_sides
from pantslam.ladders import block_graph
from pantslam.oracle import (
    CycleCatalog,
    all_simple_cycles,
    candidate_cycles,
    lamination_space_bruteforce,
    max_disjoint_type,
)
from pantslam.polytope import lamination_space
from pantslam.randmaps import random_sigma_graph
from pantslam.special_loops import sigma_of, special_family

from conftest import OVER_LIMIT, build_corpus_graph, corpus_jobs, nested_loops, theta_graph
from helpers import flood_sides, minimal_by_pairs, packing_by_levels, plain_cycles, subdivided


def test_digon_around_an_unmarked_face_has_no_type():
    # the theta graph with edge 0 doubled by edge 3; marking the faces of
    # the theta graph's first darts leaves the face between edges 2 and 3
    # unmarked, so the digon (4, 7) around it separates nothing
    th = theta_graph()
    cm = CombinatorialMap([[6, 0, 2, 4], [5, 3, 1, 7]])
    sg = SigmaGraph(cm, [cm.face_of_dart[th.cmap.faces[f][0]] for f in th.marked])
    cat = all_simple_cycles(sg)
    assert cat.types == (1, 2, 1, 3, 3, None)
    assert cat.masks == (0b11,) * 6


def test_theta_catalog():
    cat = all_simple_cycles(theta_graph())
    assert len(cat.masks) == 3
    assert sorted(cat.types) == [1, 2, 3]


def test_theta_cycles_all_conflict():
    # every pair of digons shares both vertices
    cat = all_simple_cycles(theta_graph())
    assert cat.masks == (0b11, 0b11, 0b11)
    for a in range(3):
        for b in range(3):
            assert cat.masks[a] & cat.masks[b]


def test_cycle_type_rejects_bad_index():
    sg = theta_graph()
    cat = all_simple_cycles(sg)
    # 1.0 and True equal 1 but are not loop types
    for bad in (0, 4, 1.0, True, "1", None):
        with pytest.raises(OutOfRange):
            cat.minimal_masks(bad)
        with pytest.raises(OutOfRange):
            max_disjoint_type(sg, bad, cat)


def test_theta_packing_numbers():
    sg = theta_graph()
    cat = all_simple_cycles(sg)
    for i in (1, 2, 3):
        assert max_disjoint_type(sg, i, cat) == 1
        assert max_disjoint_type(sg, i, cat) == len(special_family(sg, i))


def test_theta_bruteforce_space():
    sg = theta_graph()
    bf = lamination_space_bruteforce(sg)
    assert bf == frozenset(
        {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
    )
    assert bf == frozenset(lamination_space(sg).points)


def test_triple_ring_catalog(triple_ring):
    cat = all_simple_cycles(triple_ring)
    for i in (1, 2, 3):
        assert cat.types.count(i) == 1
        assert max_disjoint_type(triple_ring, i, cat) == 1


def test_triple_ring_excludes_double_ring(triple_ring):
    bf = lamination_space_bruteforce(triple_ring)
    assert (2, 0, 0) not in bf
    assert (1, 1, 1) in bf
    assert (0, 0, 0) in bf
    assert bf == frozenset(lamination_space(triple_ring).points)


def test_nested_circles_pack_to_their_count():
    for k in (1, 2, 3):
        g = family_graph((k, 1, 1), (0, 0, 0))
        assert max_disjoint_type(g, 1) == k


def test_crossed_rings_bruteforce(crossed_rings):
    cat = all_simple_cycles(crossed_rings)
    bf = lamination_space_bruteforce(crossed_rings, cat)
    assert bf == frozenset(lamination_space(crossed_rings).points)
    for i in (1, 2, 3):
        assert max_disjoint_type(crossed_rings, i, cat) == len(special_family(crossed_rings, i))


@pytest.mark.parametrize("name", ["theta", "crossed_rings", "triple_ring", "block"])
def test_packing_numbers_are_maxima_of_bruteforce_space(request, name):
    sg = block_graph((1, 1, 0, 0, 0, 1)) if name == "block" else request.getfixturevalue(name)
    cat = all_simple_cycles(sg)
    bf = lamination_space_bruteforce(sg, cat)
    for i in (1, 2, 3):
        assert max(p[i - 1] for p in bf) == max_disjoint_type(sg, i, cat)


def test_bruteforce_space_downward_closed(crossed_rings):
    bf = lamination_space_bruteforce(crossed_rings)
    for a, b, c in bf:
        for da in range(a + 1):
            for db in range(b + 1):
                for dc in range(c + 1):
                    assert (da, db, dc) in bf


def test_cycle_limit_enforced(crossed_rings):
    with pytest.raises(LimitExceeded):
        all_simple_cycles(crossed_rings, cycle_limit=2)


def test_node_limit_enforced(crossed_rings):
    with pytest.raises(LimitExceeded):
        all_simple_cycles(crossed_rings, node_limit=5)


def test_empty_selection_always_present():
    g = family_graph((1, 1, 0), (0, 0, 0))
    assert (0, 0, 0) in lamination_space_bruteforce(g)


def test_deep_nested_loops_match_pipeline():
    # 1,200 nested self-loops: a packing of type 1 picks 1,199 cycles, one
    # search level each; the peel kills the whole path, so the cycle search
    # stays shallow here (test_oracle_long_theta_exits_0 runs it deep)
    k = 1200
    sg = nested_loops(k)
    assert tuple(sigma_of(sg)) == (k - 1, 1, 0, 1, k - 1, k)
    cat = all_simple_cycles(sg)
    assert len(cat.masks) == k
    assert lamination_space_bruteforce(sg, cat) == frozenset(lamination_space(sg).points)


def test_candidate_limits_enforced(crossed_rings):
    with pytest.raises(LimitExceeded):
        candidate_cycles(crossed_rings, cycle_limit=2)
    with pytest.raises(LimitExceeded):
        candidate_cycles(crossed_rings, node_limit=5)


def test_mask_limit_enforced(crossed_rings, monkeypatch):
    # the candidate catalog of the crossed rings holds 6 distinct masks of
    # types 1..3; a limit of 5 refuses it, whichever reader builds its table
    monkeypatch.setattr(oracle, "MASK_LIMIT", 5)
    for read in (lambda cat: cat.minimal_masks(1),
                 lambda cat: lamination_space_bruteforce(crossed_rings, cat),
                 lambda cat: max_disjoint_type(crossed_rings, 1, cat)):
        with pytest.raises(LimitExceeded):
            read(candidate_cycles(crossed_rings))
    monkeypatch.setattr(oracle, "MASK_LIMIT", 6)
    assert (lamination_space_bruteforce(crossed_rings)
            == frozenset(lamination_space(crossed_rings).points))


def test_pruned_search_fits_a_small_step_budget():
    # the full search takes 1,493,006 steps on this block, the pruned one
    # 21,099 (26,796 while bases went by vertex number, 40,702 while masks
    # held inner chain vertices, 44,248 before chains were contracted,
    # 61,407 before each base edge was dropped after its branch)
    sg = block_graph((2, 1, 2, 1, 2, 0))
    with pytest.raises(LimitExceeded):
        all_simple_cycles(sg, node_limit=21_100)
    cat = candidate_cycles(sg, node_limit=21_100)
    assert [len(cat.minimal_masks(i)) for i in (1, 2, 3)] == [42, 59, 78]


def test_split_block_fits_a_small_step_budget():
    # with every edge split the reduced multigraph is the block's own, so
    # the search keeps the same 180 cycles in 22,870 steps (23,316 unsplit;
    # 34,213 and 32,768 while bases went by vertex number); while masks
    # held inner chain vertices it kept 36,703, and packing their minimal
    # masks ran for over a minute
    sg = block_graph((2, 2, 2, 1, 2, 0))
    sub = subdivided(sg, range(sg.cmap.num_edges))
    cat, sub_cat = candidate_cycles(sg), candidate_cycles(sub, node_limit=22_900)
    assert len(sub_cat.masks) == len(cat.masks) == 180
    for i in (1, 2, 3):
        assert sub_cat.minimal_masks(i) == cat.minimal_masks(i)
    assert [len(cat.minimal_masks(i)) for i in (1, 2, 3)] == [42, 60, 78]
    assert lamination_space_bruteforce(sub, sub_cat) == lamination_space_bruteforce(sg, cat)


def test_pruned_search_skips_the_last_branch_of_a_base():
    # each path is one chain, so base 0 has three branches, one per chain;
    # the third is never entered, as the first two drop their edges and
    # base 0 dies with one left.  The search takes 18 steps: 3 at each
    # base, 3 to meet vertex 1 and 3 to close, per branch; entering the
    # third branch would take 6 more.
    cat = candidate_cycles(theta_graph(1000), node_limit=18)
    assert sorted(cat.types) == [1, 2, 3]


def test_pruned_search_steps_do_not_grow_along_chains():
    for n in (2, 10_000):
        with pytest.raises(LimitExceeded):
            candidate_cycles(theta_graph(n), node_limit=17)
        assert len(candidate_cycles(theta_graph(n), node_limit=18).masks) == 3


def test_pruned_search_counts_every_scanned_dart():
    # two vertices joined by three edges, with 1,000 self-loops at each:
    # their rows tie at 2,003 darts, so base 0 is searched first.  The
    # search reads a row of 2,003 darts four times, at each base and at
    # vertex 1 met from base 0 by its first two edges (the third is never
    # entered), closes by 2,000 self-loop darts at each base and by 3
    # edges per branch: 12,018 steps.  Counting only the darts a met
    # vertex may be left or closed by would skip 4,000 of them.
    loops = [[2 * e + k for e in range(first, first + 1000) for k in (0, 1)]
             for first in (3, 1003)]
    sg = SigmaGraph(CombinatorialMap([[0, 2, 4] + loops[0], [5, 3, 1] + loops[1]]), (0, 1, 2))
    with pytest.raises(LimitExceeded):
        candidate_cycles(sg, node_limit=12_017)
    assert candidate_cycles(sg, node_limit=12_018) == candidate_cycles(sg)


def test_long_theta_fits_a_small_step_budget():
    # once base 0 is searched, its death kills the three paths and vertex 1
    assert len(all_simple_cycles(theta_graph(1000), node_limit=50_000).masks) == 3


def test_nested_loops_fit_a_small_step_budget():
    # the path's two ends have one non-loop dart each, so the peel kills
    # the whole path before the first base is searched
    assert len(all_simple_cycles(nested_loops(1200), node_limit=20_000).masks) == 1200


def _hung(sg, seed, pendants=8, loops=3):
    """sg's map with a pendant tree hung in random corners, self-loops on
    some of the tree's vertices and all vertices shuffled, marking the
    same faces; the peel kills every tree vertex."""
    rng = random.Random(seed)
    rots = [list(r) for r in sg.cmap.rotations]
    e = sg.cmap.num_edges
    for _ in range(pendants):
        v = rng.randrange(len(rots))
        rots[v].insert(rng.randrange(len(rots[v]) + 1), 2 * e)
        rots.append([2 * e + 1])
        e += 1
    for _ in range(loops):
        v = rng.randrange(sg.cmap.num_vertices, len(rots))
        i = rng.randrange(len(rots[v]) + 1)
        rots[v][i:i] = [2 * e, 2 * e + 1]
        e += 1
    rng.shuffle(rots)
    cm = CombinatorialMap(rots)
    return SigmaGraph(cm, [cm.face_of_dart[sg.cmap.faces[f][0]] for f in sg.marked])


def _doubled(sg, seed, parallels=3, loops=2):
    """sg's map with random edges doubled, self-loops too, each copy
    closing a digon, and self-loops in random corners; the monogon of the
    first loop that still bounds one (a later loop may hang inside it)
    replaces a random marked face.  On a map whose vertices all lie on
    the 2-core, the search meets every copy and loop as a parallel edge or
    self-loop of the path."""
    rng = random.Random(seed)
    rots = [list(r) for r in sg.cmap.rotations]
    tail = sg.cmap.dart_vertex
    e = sg.cmap.num_edges
    for _ in range(parallels):
        d = rng.randrange(2 * sg.cmap.num_edges)
        # the copy's darts go right after d and right before d ^ 1, so the
        # face walk runs copy, d ^ 1, copy: a digon split off the face right
        # of d ^ 1, and the map stays spherical
        rots[tail[d]].insert(rots[tail[d]].index(d) + 1, 2 * e)
        rots[tail[d ^ 1]].insert(rots[tail[d ^ 1]].index(d ^ 1), 2 * e + 1)
        e += 1
    loop_darts = []
    for _ in range(loops):
        v = rng.randrange(sg.cmap.num_vertices)
        i = rng.randrange(len(rots[v]) + 1)
        rots[v][i:i] = [2 * e, 2 * e + 1]
        loop_darts.append(2 * e)
        e += 1
    cm = CombinatorialMap(rots)
    monogon = next(f for d in loop_darts for f in (cm.face_of_dart[d], cm.face_of_dart[d ^ 1])
                   if len(cm.faces[f]) == 1)
    marked = [cm.face_of_dart[sg.cmap.faces[f][0]] for f in sg.marked]
    marked[rng.randrange(3)] = monogon
    return SigmaGraph(cm, marked)


def _subdivided(sg, seed, cuts=6):
    """sg's map with random edges split by new vertices of degree 2, the
    new edges too, so self-loops become chain-loops, parallel edges
    parallel chains, and some chains hold several vertices; all vertices
    are shuffled, so a chain's vertex may be the least of a cycle."""
    rng = random.Random(seed)
    return _shuffled(subdivided(sg, [rng.randrange(sg.cmap.num_edges + k)
                                     for k in range(cuts)]), rng)


def _shuffled(sg, rng):
    """sg's map with its vertices shuffled by rng, marking the same faces."""
    rots = list(sg.cmap.rotations)
    rng.shuffle(rots)
    cm = CombinatorialMap(rots)
    return SigmaGraph(cm, [cm.face_of_dart[sg.cmap.faces[f][0]] for f in sg.marked])


# The subdivided cases put chains where the reduced search meets them as
# ordinary edges of the reduced multigraph: a copy parallel to a chain of
# the path and a chain into the base (doubled theta and block), a
# chain-loop at a base beside a plain self-loop of the same parity
# (doubled nested, whose loops get copies), and cycles whose least vertex
# is inside a chain (all three).  The reference reads the lemma on the
# same reduction, so each of these must match it exactly.
PLAIN_CASES = ([("nested", 50), ("theta", 50)]
               + [("hung theta", s) for s in range(3)]
               + [("hung block", s) for s in range(3)]
               + [("doubled theta", s) for s in range(4)]
               + [("doubled block", s) for s in range(4)]
               + [("subdivided doubled " + kind, s)
                  for kind in ("theta", "block", "nested") for s in range(4)])


def _case_graph(case):
    kind, n = case
    if kind == "nested":
        return nested_loops(n)
    if kind == "theta":
        return theta_graph(n)
    if kind == "corpus":
        return build_corpus_graph(*n)
    if kind.startswith("subdivided "):
        return _subdivided(_case_graph((kind[len("subdivided "):], n)), n)
    how, _, of = kind.partition(" ")
    if of == "block":
        base = block_graph((1, 1, 0, 0, 0, 1))
    elif of == "nested":
        base = nested_loops(6)
    else:
        base = theta_graph() if how == "hung" else theta_graph(2)
    return (_hung if how == "hung" else _doubled)(base, n)


@pytest.mark.parametrize("base", [theta_graph(2), nested_loops(6)], ids=["theta", "nested"])
def test_doubled_marks_a_monogon_for_every_seed(base):
    # seeds where the second loop hangs inside the first one's monogon
    # (theta 47, 56, 60, 73, 74; nested 24, 78) mark the second's
    for s in range(100):
        sg = _doubled(base, s)
        assert 1 in (len(sg.cmap.faces[f]) for f in sg.marked), s


@pytest.mark.parametrize("case", PLAIN_CASES, ids=repr)
def test_cycles_match_plain_search(case):
    sg = _case_graph(case)
    loops, ref = plain_cycles(sg)
    assert all_simple_cycles(sg) == ref
    _assert_candidates_cover(sg, loops, ref)


def _assert_candidates_cover(sg, loops, cat):
    """The pruned search keeps the (type, branch mask) pairs of exactly the
    cycles that the lemma does not cut, as often as they occur among them,
    and per type the same inclusion-minimal masks as the full catalog cat
    with its masks projected onto the branch vertices, both as a plain
    pairwise scan finds them; loops are the cycles of cat, in its order."""
    cand = candidate_cycles(sg)
    reduction = _series_reduction(sg.cmap)
    on = sum(1 << v for v, b in enumerate(reduction[0]) if b)
    projected = CycleCatalog(cat.types, tuple(m & on for m in cat.masks))
    uncut = [(cat.types[c], cat.masks[c] & on) for c in _uncut(sg, loops, cat, reduction)]
    assert sorted(zip(cand.types, cand.masks)) == sorted(uncut)
    for i in (1, 2, 3):
        assert cand.minimal_masks(i) == minimal_by_pairs(cand, i), i
        assert projected.minimal_masks(i) == minimal_by_pairs(projected, i), i
        assert cand.minimal_masks(i) == projected.minimal_masks(i), i


def _series_reduction(cm):
    """Per vertex whether it is a branch vertex (all but those with two
    darts, neither on a self-loop; vertex 0 if that leaves none), and per
    dart leaving a branch vertex the edge set of its chain and the branch
    vertex that chain ends at."""
    tail = cm.dart_vertex
    branch = [len(r) != 2 or tail[r[0] ^ 1] == v for v, r in enumerate(cm.rotations)]
    branch[0] = branch[0] or not any(branch)
    chain, end = {}, {}
    for v, rot in enumerate(cm.rotations):
        for d0 in rot if branch[v] else ():
            d, edges = d0, {d0 >> 1}
            while not branch[tail[d ^ 1]]:
                d = next(x for x in cm.rotations[tail[d ^ 1]] if x != d ^ 1)
                edges.add(d >> 1)
            chain[d0], end[d0] = frozenset(edges), tail[d ^ 1]
    return branch, chain, end


def _uncut(sg, loops, cat, reduction):
    """The indices of the cycles of cat of types 1..3 that no edge off them
    cuts by the chord-split lemma of the `oracle` docstring, read straight
    off its statement on the series reduction (`_series_reduction` of the
    map): each chain is one edge and a cycle's vertices are its branch
    vertices.  The smaller cycles an edge closes are looked up in cat,
    whose cycle c is loops[c]."""
    branch, chain, end = reduction
    tail = sg.cmap.dart_vertex
    type_of = {lp.edge_set(): t for lp, t in zip(loops, cat.types)}

    def cut(darts, t):
        steps = [d for d in darts if branch[tail[d]]]  # each starts a chain of the cycle
        n, edges = len(steps), frozenset(d >> 1 for d in darts)
        pos = {tail[d]: k for k, d in enumerate(steps)}  # steps[k] leaves its vertex
        for v, a in pos.items():
            for d in sg.cmap.rotations[v]:
                e, b = chain[d], pos.get(end[d])
                if d >> 1 in edges or b is None:
                    continue
                if b == a:  # a self-loop
                    if n > 1 and type_of[e] == t:
                        return True
                elif (b - a) % n in (1, n - 1):  # parallel to an edge of the cycle
                    f = chain[steps[a if (b - a) % n == 1 else b]]
                    if n > 2 and type_of[e | f] == t:
                        return True
                else:  # a chord
                    arc = frozenset().union(*(chain[d] for d in steps[min(a, b):max(a, b)]))
                    sides = {type_of[arc | e], type_of[edges - arc | e]}
                    if None in sides or t in sides:
                        return True
        return False

    return [c for c, (lp, t) in enumerate(zip(loops, cat.types))
            if t is not None and not cut(lp.darts, t)]


def _flood_types(sg, loops):
    """Each loop's type by the flood reference: which of marked faces 2
    and 3 share the side of marked face 1."""
    m1, m2, m3 = sg.marked
    types = []
    for loop in loops:
        side = next(s for s in flood_sides(sg.cmap, loop) if m1 in s)
        types.append({(True, True): None, (False, False): 1,
                      (False, True): 2, (True, False): 3}[m2 in side, m3 in side])
    return types


CATALOGUED_JOBS = [job for job in corpus_jobs() if job not in OVER_LIMIT]


@pytest.mark.parametrize("job", CATALOGUED_JOBS[::10], ids=repr)
def test_parity_types_match_flood_types(job):
    sg = build_corpus_graph(*job)
    loops, ref = plain_cycles(sg)
    assert all_simple_cycles(sg) == ref  # the peeled search against the plain one
    assert list(ref.types) == _flood_types(sg, loops)
    _assert_candidates_cover(sg, loops, ref)
    for lp in loops[:400]:
        assert loop_sides(sg, lp) == flood_sides(sg.cmap, lp), lp


# block (2,2,2,2,1,2) is over the limits of the full search, so the slice
# of CATALOGUED_JOBS never has it; its 1,052 minimal masks make packing's
# candidate sets span 17 machine words
PACKING_CASES = ([("corpus", job) for job in CATALOGUED_JOBS[::10]]
                 + [("corpus", ("block", (2, 1, 2, 1, 2, 0))), ("nested", 50),
                    ("corpus", ("block", (2, 2, 2, 2, 1, 2)))]
                 + [case for case in PLAIN_CASES if case[0] not in ("nested", "theta")])


@pytest.mark.parametrize("case", PACKING_CASES, ids=repr)
def test_packing_matches_level_search(case):
    # nested(50) has 49 pairwise-disjoint masks of type 1, so the
    # enumeration must skip most siblings to finish
    sg = _case_graph(case)
    space, maxima = packing_by_levels(candidate_cycles(sg))
    assert tuple(max_disjoint_type(sg, i) for i in (1, 2, 3)) == maxima
    assert lamination_space_bruteforce(sg, candidate_cycles(sg)) == space


@pytest.mark.parametrize("seed", range(12))
def test_packing_matches_level_search_on_random_masks(seed):
    # masks no map produces, of one to four vertices so that several
    # pack: repeats, nested masks across and within a type, and untyped
    # cycles among them; neither search reads the map
    rng = random.Random(seed)
    n = rng.randint(4, 14)
    cycles = [(rng.choice((1, 2, 3, None)),
               sum(1 << v for v in rng.sample(range(n), rng.randint(1, 4))))
              for _ in range(rng.randint(10, 40))]
    cycles += [(t, m | 1 << rng.randrange(n)) for t, m in rng.sample(cycles, 5)]
    cat = CycleCatalog(*map(tuple, zip(*cycles)))
    for i in (1, 2, 3):
        assert cat.minimal_masks(i) == minimal_by_pairs(cat, i), i
    space, maxima = packing_by_levels(cat)
    assert lamination_space_bruteforce(None, cat) == space
    assert tuple(max_disjoint_type(None, i, cat) for i in (1, 2, 3)) == maxima


@pytest.mark.parametrize("seed", range(3))
def test_parity_types_match_flood_types_on_random_boundaries(seed):
    sg = random_sigma_graph(seed, max_faces=60, min_faces=40)
    loops = []
    for i in (1, 2, 3):
        k = 1
        while True:
            try:
                loops.extend(sg.boundary_loops(i, k))
            except EmptyLayer:
                break
            k += 1
    assert loops
    assert [sg.classify(lp) for lp in loops] == _flood_types(sg, loops)


def _cycle_edge_sets(cm):
    """Edge sets of all cycles, by brute force over the edge subsets: those
    that are connected and give each vertex they touch degree exactly 2.
    Subsets giving a vertex degree 3 or more are cut off early."""
    ends = [(cm.dart_vertex[2 * e], cm.dart_vertex[2 * e + 1]) for e in range(cm.num_edges)]
    degree = [0] * cm.num_vertices
    chosen = []
    out = set()

    def connected():
        reached = {ends[chosen[0]][0]}
        grew = True
        while grew:
            grew = False
            for e in chosen:
                a, b = ends[e]
                if (a in reached) != (b in reached):
                    reached.update((a, b))
                    grew = True
        return all(e[0] in reached for e in map(ends.__getitem__, chosen))

    def grow(e):
        if e == len(ends):
            touched = {v for f in chosen for v in ends[f]}
            if chosen and all(degree[v] == 2 for v in touched) and connected():
                out.add(frozenset(chosen))
            return
        grow(e + 1)
        a, b = ends[e]
        degree[a] += 1
        degree[b] += 1
        if degree[a] <= 2 and degree[b] <= 2:
            chosen.append(e)
            grow(e + 1)
            chosen.pop()
        degree[a] -= 1
        degree[b] -= 1

    grow(0)
    return out


SMALL_JOBS = [job for job in corpus_jobs() if build_corpus_graph(*job).cmap.num_edges <= 14]


@pytest.mark.parametrize("job", SMALL_JOBS + [("nested", 5)], ids=repr)
def test_cycles_match_edge_subset_brute_force(job):
    sg = nested_loops(job[1]) if job[0] == "nested" else build_corpus_graph(*job)
    loops, ref = plain_cycles(sg)
    assert all_simple_cycles(sg) == ref
    got = [lp.edge_set() for lp in loops]
    assert len(set(got)) == len(got)
    assert set(got) == _cycle_edge_sets(sg.cmap)


METAMORPHIC_CASES = ([("corpus", job) for job in corpus_jobs()[::40]]
                     + [("random", seed) for seed in range(10)])


@pytest.mark.parametrize("case", METAMORPHIC_CASES, ids=repr)
def test_subdivision_keeps_sigma_and_lamination_space(case):
    # every edge split twice, self-loops and parallel edges too, and the
    # vertices shuffled: no cycle changes type and no two cycles start or
    # stop meeting, and the branch vertices and the reduced multigraph
    # stay (up to numbering), so sigma, the lamination space, the packing
    # numbers and the minimal mask counts per type stay
    kind, n = case
    sg = _case_graph(case) if kind == "corpus" else random_sigma_graph(n, max_faces=14)
    sub = _shuffled(subdivided(sg, range(2 * sg.cmap.num_edges)), random.Random(repr(case)))
    assert sigma_of(sub) == sigma_of(sg)
    cat, sub_cat = candidate_cycles(sg), candidate_cycles(sub)
    assert lamination_space_bruteforce(sub, sub_cat) == lamination_space_bruteforce(sg, cat)
    for i in (1, 2, 3):
        assert max_disjoint_type(sub, i, sub_cat) == max_disjoint_type(sg, i, cat)
        assert len(sub_cat.minimal_masks(i)) == len(cat.minimal_masks(i)), i
