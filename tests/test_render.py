"""SVG rendering sanity: structure, labels, highlights, layout accuracy."""

import hashlib
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import pantslam
from pantslam.combmap import CombinatorialMap
from pantslam.ladders import block_graph
from pantslam.randmaps import random_sigma_graph
from pantslam.render import layout, render_svg
from pantslam.special_loops import special_family

from conftest import build_corpus_graph, corpus_jobs, theta_graph


def test_theta_svg_parses():
    svg = render_svg(theta_graph())
    ET.fromstring(svg)


def test_theta_vertex_and_edge_counts():
    svg = render_svg(theta_graph())
    # two vertex dots; three strands between them
    assert svg.count("<circle") == 2
    assert svg.count("<path") + svg.count("<line") == 3


def test_theta_marked_face_labels():
    svg = render_svg(theta_graph())
    for label in ("F1", "F2", "F3"):
        assert label in svg


def test_block_graph_marks_three_faces():
    svg = render_svg(block_graph((1, 0, 0, 0, 0, 0)))
    for label in ("F1", "F2", "F3"):
        assert label in svg


def test_bare_map_has_no_labels():
    svg = render_svg(theta_graph().cmap)
    assert "F1" not in svg and "F2" not in svg and "F3" not in svg


def test_highlight_changes_output():
    sg = theta_graph()
    fam = special_family(sg, 1)
    plain = render_svg(sg)
    marked = render_svg(sg, highlight=[fam])
    assert marked != plain
    ET.fromstring(marked)


def test_self_loops_render_as_circles():
    cm = CombinatorialMap([[0, 1, 2, 4], [3, 5]])
    svg = render_svg(cm)
    # two vertex dots plus one loop circle
    assert svg.count("<circle") == 3
    ET.fromstring(svg)


def _hub_map():
    """A hub joined to an eight-vertex rim, with a loop at the hub (vertex 8),
    which solves to the centre of the disk."""
    rim = [[2 * i, 2 * (8 + i) + 1, 2 * ((i - 1) % 8) + 1] for i in range(8)]
    return CombinatorialMap(rim + [[16, 32, 33] + list(range(18, 31, 2))])


def test_loop_at_the_centre_points_up():
    cm = _hub_map()
    assert abs(layout(cm)[0][8]) < 1e-12
    # the drawing's centre is (260, 260); a loop there has no way out of
    # it, so its circle sits straight above the vertex
    assert '<circle cx="260.0" cy="250.0" r="10.0" ' in render_svg(cm)


# sha1 of render_svg's output, pinned byte for byte: maps with bowed
# parallel edges, loops away from and at the centre, marked-face labels
# and highlighted families
_FROZEN_SVGS = {
    "theta": (theta_graph, True, "3b1730102ee9c489614dd22fe7386e023282fee2"),
    "theta-bare": (lambda: theta_graph().cmap, False,
                   "318935e108465c838cf7e3f1689d4a2ee4fb560c"),
    "self-loops": (lambda: CombinatorialMap([[0, 1, 2, 4], [3, 5]]), False,
                   "127001a3edbf0c93c4aa1983bddb6c58b6cf90c4"),
    "hub": (_hub_map, False, "13986373c1e8543d7c7dcc48b69264ddea1aa06f"),
    "block": (lambda: block_graph((1, 0, 0, 0, 0, 0)), False,
              "4d5f9a9c8917019051888b11c199a31a793f56f4"),
    "random-0": (lambda: random_sigma_graph(0, 60), True,
                 "56f3f1c2a5b4b01e2e079fd8c5188ee442c9fb4b"),
    "random-1": (lambda: random_sigma_graph(1, 60), True,
                 "b4212a8fb0626c94ad12d2b720aa7cc8a701b2fe"),
    "random-2": (lambda: random_sigma_graph(2, 60), True,
                 "c46affb24ff58557a57172c63c72b2fb19f791e2"),
    "random-5": (lambda: random_sigma_graph(5, 60), True,
                 "410e8dd6b3572be9ab1fac5c6b2ddd02a5088c11"),
}


@pytest.mark.parametrize("name", list(_FROZEN_SVGS))
def test_svg_bytes_are_frozen(name):
    make, with_families, sha1 = _FROZEN_SVGS[name]
    g = make()
    families = [special_family(g, i) for i in (1, 2, 3)] if with_families else ()
    assert hashlib.sha1(render_svg(g, families).encode()).hexdigest() == sha1


def test_layout_positions_every_vertex():
    cm = block_graph((2, 1, 1, 0, 1, 1)).cmap
    pos, outer = layout(cm)
    assert len(pos) == cm.num_vertices
    assert len(cm.faces[outer]) == max(map(len, cm.faces))
    for z in pos:
        assert isinstance(z, complex) and abs(z.real) < 10 and abs(z.imag) < 10


def test_render_deterministic():
    sg = theta_graph()
    assert render_svg(sg) == render_svg(sg)


def _dense_layout(cmap, outer):
    """The barycentric system solved densely by Gaussian elimination.

    Ring vertices are pinned to the regular polygon; each other vertex
    gets deg(v) * p(v) - sum of its neighbors = 0, loops ignored.
    """
    ring = []
    for d in cmap.faces[outer]:
        if cmap.dart_vertex[d] not in ring:
            ring.append(cmap.dart_vertex[d])
    pinned = {}
    for j, v in enumerate(ring):
        ang = math.pi / 2 + 2 * math.pi * j / len(ring)
        pinned[v] = (math.cos(ang), math.sin(ang))
    inner = [v for v in range(cmap.num_vertices) if v not in pinned]
    col = {v: j for j, v in enumerate(inner)}
    n = len(inner)
    # augmented rows: n matrix entries, then the x and y right-hand sides
    rows = [[0.0] * (n + 2) for _ in inner]
    for j, v in enumerate(inner):
        for d in cmap.rotations[v]:
            u = cmap.dart_vertex[d ^ 1]
            if u == v:
                continue
            rows[j][j] += 1.0
            if u in col:
                rows[j][col[u]] -= 1.0
            else:
                rows[j][n] += pinned[u][0]
                rows[j][n + 1] += pinned[u][1]
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[piv] = rows[piv], rows[k]
        top = rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / top[k]
            if f:
                row = rows[i]
                rows[i] = row[:k] + [a - f * b for a, b in zip(row[k:], top[k:])]
    xy = [None] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        sx = row[n] - sum(row[j] * xy[j][0] for j in range(k + 1, n))
        sy = row[n + 1] - sum(row[j] * xy[j][1] for j in range(k + 1, n))
        xy[k] = (sx / row[k], sy / row[k])
    out = dict(pinned)
    for v, j in col.items():
        out[v] = xy[j]
    return out


def test_layout_matches_dense_solve():
    graphs = [build_corpus_graph(*job) for job in corpus_jobs()[::40]]
    graphs += [random_sigma_graph(seed, max_faces=120) for seed in range(8)]
    graphs.append(block_graph((22, 22, 22, 11, 11, 11)))
    assert graphs[-1].cmap.num_vertices > 500
    for sg in graphs:
        pos, outer = layout(sg.cmap)
        ref = _dense_layout(sg.cmap, outer)
        assert set(range(len(pos))) == set(ref)
        for v, (x, y) in ref.items():
            assert abs(pos[v].real - x) < 1e-9 and abs(pos[v].imag - y) < 1e-9, (sg.cmap, v)


def test_cli_import_leaves_numpy_out():
    src = str(Path(pantslam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, pantslam.cli; "
            "print([m for m in ('numpy', 'fractions') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
