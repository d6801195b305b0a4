"""SVG rendering sanity: structure, labels, highlights, layout accuracy."""

import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

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
    marked = render_svg(sg, highlight=[[lp.darts for lp in fam.loops]])
    assert marked != plain
    ET.fromstring(marked)


def test_self_loops_render_as_circles():
    cm = CombinatorialMap([[0, 1, 2, 4], [3, 5]])
    svg = render_svg(cm)
    # two vertex dots plus one loop circle
    assert svg.count("<circle") == 3
    ET.fromstring(svg)


def test_layout_positions_every_vertex():
    cm = block_graph((2, 1, 1, 0, 1, 1)).cmap
    pos, outer = layout(cm)
    assert set(pos) == set(range(cm.num_vertices))
    assert len(cm.faces[outer]) == max(map(len, cm.faces))
    for x, y in pos.values():
        assert abs(x) < 10 and abs(y) < 10


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
        if cmap.tail(d) not in ring:
            ring.append(cmap.tail(d))
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
            u = cmap.head(d)
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
        assert set(pos) == set(ref)
        for v, (x, y) in ref.items():
            assert abs(pos[v][0] - x) < 1e-9 and abs(pos[v][1] - y) < 1e-9, (sg.cmap, v)


def test_cli_import_leaves_numpy_out():
    src = str(Path(pantslam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, pantslam.cli; "
            "print([m for m in ('numpy', 'fractions') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
