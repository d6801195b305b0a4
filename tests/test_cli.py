"""Command line round trips, exit codes and message formats."""

import argparse
import contextlib
import errno
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import pantslam
from pantslam import cli, constructor, errors, render
from pantslam.chords import family_graph
from pantslam.cli import _build_parser, main
from pantslam.errors import PantsError
from pantslam.combmap import CombinatorialMap
from pantslam.exploration import SigmaGraph
from pantslam.ladders import block_graph
from pantslam.oracle import candidate_cycles
from pantslam.polytope import enumerate_points, nu_transform
from pantslam.special_loops import SigmaVector, sigma_of

from conftest import build_corpus_graph, corpus_jobs, realizable_grid, theta_graph
from helpers import write_graph


@pytest.fixture
def theta_file(tmp_path):
    return write_graph(tmp_path / "theta.json", theta_graph())


def test_analyze_theta(theta_file, capsys):
    assert main(["analyze", theta_file]) == 0
    out = capsys.readouterr().out
    assert "sigma = (1, 1, 1, 1, 1, 1)" in out
    assert "nu = (1, 1, 1)" in out
    assert "lamination points (4):" in out
    assert "0 0 0" in out


def test_analyze_exclude_origin(theta_file, capsys):
    assert main(["analyze", theta_file, "--exclude-origin"]) == 0
    out = capsys.readouterr().out
    assert "lamination points (3):" in out
    assert "0 0 0" not in out.splitlines()


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/g.json"]) == 2


def test_analyze_rejects_duplicate_marks(tmp_path, capsys):
    bad = {"vertices": [[0, 2, 4], [5, 3, 1]], "marked_faces": [0, 0, 1]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(bad))
    assert main(["analyze", str(path)]) == 2
    assert "DuplicateMarkedFace" in capsys.readouterr().out


def test_check_accepts_realizable(capsys):
    assert main(["check", "4", "1", "1", "1", "4", "5"]) == 0
    assert capsys.readouterr().out.strip() == "Realizable"


def test_check_accepts_deep_signature(capsys):
    assert main(["check", "2", "7", "6", "8", "6", "7"]) == 0


def test_check_reports_pair_bound(capsys):
    assert main(["check", "0", "0", "0", "1", "1", "1"]) == 1
    assert capsys.readouterr().out.strip() == "T1 violated at i=1"


def test_check_zero_distance_is_unrealizable(capsys):
    assert main(["check", "1", "1", "1", "0", "1", "1"]) == 1
    assert "NonPositiveDelta" in capsys.readouterr().out


def test_check_negative_count_is_input_error(capsys):
    assert main(["check", "--", "-1", "1", "1", "1", "1", "1"]) == 2
    assert "NegativeParameter" in capsys.readouterr().out


def test_construct_writes_witness(tmp_path, capsys):
    out = tmp_path / "wit.json"
    assert main(["construct", "2", "1", "1", "2", "3", "3", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "params: counts=(2, 1, 1) depths=(0, 0, 0)",
        "verified: sigma = (2, 1, 1, 2, 3, 3)",
        "wrote %s" % out,
    ]
    data = json.loads(out.read_text())
    assert set(data) == {"vertices", "marked_faces"}
    g = SigmaGraph(CombinatorialMap(data["vertices"]), tuple(data["marked_faces"]))
    assert g.cmap.num_faces >= 3


def _json_reference(sg):
    data = {"vertices": [list(r) for r in sg.cmap.rotations], "marked_faces": list(sg.marked)}
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_construct_witness_bytes_match_json_dump(tmp_path, capsys):
    # (2, 3, 0, 3, 2, 5) has an empty family
    for tau in [(2, 3, 0, 3, 2, 5), (30, 30, 30, 31, 31, 31)]:
        out = tmp_path / "wit.json"
        assert main(["construct", *map(str, tau), str(out)]) == 0
        expected = _json_reference(constructor.construct_detailed(tau).graph)
        assert out.read_bytes() == expected.encode(), tau


def test_witness_text_matches_json_dumps_on_the_grid():
    for tau in realizable_grid(3):
        sg = constructor.construct_detailed(tau).graph
        assert cli._witness_text(sg) == _json_reference(sg), tau


def test_construct_overwrites_a_longer_file(tmp_path, capsys):
    out = tmp_path / "wit.json"
    out.write_text("x" * 100_000)
    assert main(["construct", "2", "3", "0", "3", "2", "5", str(out)]) == 0
    expected = _json_reference(constructor.construct_detailed((2, 3, 0, 3, 2, 5)).graph)
    assert out.read_bytes() == expected.encode()


def test_construct_to_a_missing_directory_is_input_error(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "w.json"
    assert main(["construct", "2", "3", "0", "3", "2", "5", str(out)]) == 2
    captured = capsys.readouterr()
    # nothing is reported about a witness that was never written
    (line,) = captured.out.splitlines()
    assert line.startswith("FileNotFoundError: ")
    assert captured.err == ""
    assert not out.parent.exists()


def test_construct_then_analyze_agree(tmp_path, capsys):
    out = tmp_path / "wit.json"
    assert main(["construct", "2", "3", "0", "3", "2", "5", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 0
    assert "sigma = (2, 3, 0, 3, 2, 5)" in capsys.readouterr().out


def test_construct_reports_params(tmp_path, capsys):
    out = tmp_path / "gap.json"
    assert main(["construct", "2", "3", "3", "3", "4", "4", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "params: counts=(1, 3, 3) depths=(3, 0, 0)"
    assert not any(line.startswith("route") for line in lines)
    assert "fallback" not in "\n".join(lines)


def test_construct_miss_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(constructor, "sigma_of", lambda g: (0,) * 6)
    out = tmp_path / "miss.json"
    assert main(["construct", "2", "3", "3", "3", "4", "4", str(out)]) == 1
    assert capsys.readouterr().out.startswith("ConstructionFailed: ")
    assert not out.exists()


def test_construct_unrealizable_fails(tmp_path, capsys):
    out = tmp_path / "no.json"
    assert main(["construct", "0", "0", "0", "1", "1", "1", str(out)]) == 1
    assert "NotRealizable: Violates(T1, 1)" in capsys.readouterr().out
    assert not out.exists()


def test_roundtrip_empty_sweep(capsys):
    assert main(["roundtrip", "--max-mu", "0"]) == 0
    assert "(empty sweep)" in capsys.readouterr().out


def test_roundtrip_small_sweep(capsys):
    assert main(["roundtrip", "--max-mu", "1"]) == 0
    out = capsys.readouterr().out
    assert "swept 14 realizable signatures: 14 ok, 0 mismatches" in out
    assert "tau=(1, 1, 1, 1, 1, 1) ok" in out.splitlines()


def test_roundtrip_reports_a_failed_construction(capsys, monkeypatch):
    # one signature's witness fails; the sweep goes on and ends in exit 1
    build = cli.construct_detailed

    def fail_one(tau):
        if tau == (1, 1, 1, 1, 1, 1):
            raise errors.ConstructionFailed("witness does not verify")
        return build(tau)

    monkeypatch.setattr(cli, "construct_detailed", fail_one)
    assert main(["roundtrip", "--max-mu", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "tau=(1, 1, 1, 1, 1, 1) MISMATCH ConstructionFailed" in lines
    assert lines[-1] == "swept 14 realizable signatures: 13 ok, 1 mismatches"


@pytest.mark.parametrize("max_mu", range(cli.MAX_ROUNDTRIP_MU + 1))
def test_realizable_box_is_the_realizable_grid(max_mu):
    # the same signatures in the same order, the rows roundtrip prints
    assert cli._realizable_box(max_mu) == realizable_grid(max_mu)


def test_roundtrip_negative_max_mu_is_input_error(capsys):
    assert main(["roundtrip", "--max-mu", "-1"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("OutOfRange: --max-mu ")
    assert "empty sweep" not in out


def test_roundtrip_max_mu_above_the_cap_is_input_error(capsys, monkeypatch):
    # refused before the sweep starts: at --max-mu 10 it would build and
    # verify 99,365 witnesses, against 8,745 at the cap of 6
    def no_sweep(max_mu):
        raise AssertionError("swept")

    monkeypatch.setattr(cli, "_realizable_box", no_sweep)
    for value in (cli.MAX_ROUNDTRIP_MU + 1, 10):
        assert main(["roundtrip", "--max-mu", str(value)]) == 2
        out = capsys.readouterr().out
        assert out == "OutOfRange: --max-mu must be 0 to %d, got %d\n" % (
            cli.MAX_ROUNDTRIP_MU, value)


def test_construct_above_the_dart_cap_exits_2_at_once(tmp_path, capsys, monkeypatch):
    # the forecast is 1.2e9 vertices; nothing is drawn
    def no_drawing(*args):
        raise AssertionError("drawn")

    monkeypatch.setattr(constructor.chords, "family_graph", no_drawing)
    out = tmp_path / "huge.json"
    argv = ["construct", "20000", "20000", "20000", "20001", "20001", "20001", str(out)]
    assert main(argv) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("LimitExceeded: "), lines
    assert not out.exists()


def test_render_writes_svg(theta_file, tmp_path, capsys):
    out = tmp_path / "theta.svg"
    assert main(["render", theta_file, str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<circle") == 2
    assert svg.count("<path") + svg.count("<line") == 3
    for label in ("F1", "F2", "F3"):
        assert label in svg


def test_render_plain_map(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"vertices": [[0, 2, 4], [5, 3, 1]]}))
    out = tmp_path / "map.svg"
    assert main(["render", str(path), str(out)]) == 0
    assert "F1" not in out.read_text()


@pytest.mark.parametrize("marked", [True, False])
def test_render_above_the_vertex_cap_exits_2_at_once(tmp_path, capsys, monkeypatch, marked):
    # three 7,000-edge paths: 20,999 vertices; neither the layout nor the
    # special families are computed
    def not_drawn(*args):
        raise AssertionError("drawn")

    monkeypatch.setattr(render, "layout", not_drawn)
    monkeypatch.setattr(cli, "special_family", not_drawn)
    sg = theta_graph(7000)
    assert sg.cmap.num_vertices == 20_999 > render.MAX_DRAWN_VERTICES
    path = write_graph(tmp_path / "long.json", sg if marked else sg.cmap)
    out = tmp_path / "long.svg"
    assert main(["render", path, str(out)]) == 2
    assert capsys.readouterr().out == (
        "LimitExceeded: drawing would have 20999 vertices, more than the cap of 20000\n")
    assert not out.exists()


def test_json_roundtrip(tmp_path):
    cm = theta_graph().cmap
    path = tmp_path / "theta.json"
    write_graph(path, cm)
    data = json.loads(path.read_text())
    assert data == {"vertices": [[0, 2, 4], [5, 3, 1]]}
    assert cli._graph_of(data, marked=False).rotations == cm.rotations


def test_dict_roundtrip():
    cm = theta_graph().cmap
    data = {"vertices": [list(r) for r in cm.rotations]}
    assert cli._graph_of(data, marked=False).rotations == cm.rotations


def test_oracle_agreement(theta_file, capsys):
    assert main(["oracle", theta_file]) == 0
    out = capsys.readouterr().out
    assert "minimal cycles by type: 1 1 1" in out
    assert "agreement: yes" in out


def test_oracle_long_theta_exits_0(tmp_path, capsys):
    # three 500-edge paths: the cycle search runs 1,000 vertices deep
    path = write_graph(tmp_path / "long_theta.json", theta_graph(500))
    assert main(["oracle", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "minimal cycles by type: 1 1 1" in out
    assert "agreement: yes" in out


def test_oracle_checks_a_block_past_the_full_catalog(tmp_path, capsys):
    # all simple cycles of this block pass the default cycle limit; the
    # pruned search keeps few enough to finish
    path = write_graph(tmp_path / "block.json", block_graph((1, 2, 2, 2, 1, 1)))
    assert main(["oracle", path]) == 0
    assert "agreement: yes" in capsys.readouterr().out.splitlines()


def test_oracle_limit_maps_to_input_error(theta_file, capsys):
    # the theta graph keeps three candidate cycles, one per type
    assert main(["oracle", theta_file, "--cycle-limit", "1"]) == 2


@pytest.mark.parametrize("verb", ["construct", "oracle"])
def test_memory_error_is_exit_2(theta_file, tmp_path, capsys, monkeypatch, verb):
    # the builder each verb calls first runs out of memory; no real
    # allocation is attempted
    def exhausted(*args, **kwargs):
        raise MemoryError

    out = tmp_path / "w.json"
    if verb == "construct":
        monkeypatch.setattr(cli, "construct_detailed", exhausted)
        argv = ["construct", "2", "3", "3", "3", "4", "4", str(out)]
    else:
        monkeypatch.setattr(cli, "candidate_cycles", exhausted)
        argv = ["oracle", theta_file]
    assert main(argv) == 2
    assert capsys.readouterr().out == "MemoryError: out of memory\n"
    assert not out.exists()


def test_construct_on_a_full_disk_is_exit_2(tmp_path, capsys, monkeypatch):
    # the witness write fails as it does on /dev/full; no disk is filled
    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(), raising=False)
    assert main(["construct", "2", "3", "0", "3", "2", "5", str(tmp_path / "w.json")]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "OSError: [Errno %d] %s" % (errno.ENOSPC, os.strerror(errno.ENOSPC)),
    ]


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_oracle_cycle_limit_below_one_is_input_error(theta_file, capsys, limit):
    assert main(["oracle", theta_file, "--cycle-limit", limit]) == 2
    assert capsys.readouterr().out.startswith("OutOfRange: --cycle-limit ")


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize("verb", ["analyze", "oracle", "render"])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, verb):
    depth = 10 ** 5
    path = tmp_path / "deep.json"
    path.write_text('{"vertices": %s%s, "marked_faces": [0, 1, 2]}'
                    % ("[" * depth, "]" * depth))
    argv = [verb, str(path)] + ([str(tmp_path / "out.svg")] if verb == "render" else [])
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("PantsError:") and "nested too deeply" in out
    assert not (tmp_path / "out.svg").exists()


@pytest.mark.parametrize("verb", ["analyze", "oracle", "render"])
def test_non_utf8_file_is_input_error(tmp_path, capsys, verb):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"vertices": [[0, 1]]}'.encode("utf-16-le"))
    argv = [verb, str(path)] + ([str(tmp_path / "out.svg")] if verb == "render" else [])
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("PantsError:") and "not UTF-8" in out
    assert not (tmp_path / "out.svg").exists()


@pytest.mark.parametrize(
    "field, data",
    [
        ("vertices", {"vertices": [[0, 2, 4], [5, 3, True]], "marked_faces": [0, 1, 2]}),
        ("vertices", {"vertices": [[0, 2, 4], [5, 3, 1.0]], "marked_faces": [0, 1, 2]}),
        ("marked_faces", {"vertices": [[0, 2, 4], [5, 3, 1]], "marked_faces": [0, True, 2]}),
        ("marked_faces", {"vertices": [[0, 2, 4], [5, 3, 1]], "marked_faces": [0, 1, 2.0]}),
    ],
)
def test_non_int_json_entries_are_input_errors(tmp_path, capsys, field, data):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 2
    out = capsys.readouterr().out
    assert field + ":" in out
    assert "TypeError" not in out


BARE_THETA = '{"vertices": [[0, 2, 4], [5, 3, 1]]}'
BAD_SHAPES = [
    "[1, 2]",
    "null",
    '"x"',
    "{}",
    BARE_THETA,
    '{"vertices": 5}',
    # past the parser's limit on the digits of an int
    pytest.param("[%s]" % ("1" * 5000), id="5000-digit-int"),
    # an empty rotation beside a self-loop's: a vertex with no darts
    '{"vertices": [[0, 1], []], "marked_faces": [0, 1, 0]}',
]


@pytest.mark.parametrize("verb", ["analyze", "oracle", "render"])
@pytest.mark.parametrize("text", BAD_SHAPES)
def test_graph_file_of_wrong_shape_is_input_error(tmp_path, capsys, verb, text):
    path = tmp_path / "shape.json"
    path.write_text(text)
    out_svg = tmp_path / "out.svg"
    argv = [verb, str(path)] + ([str(out_svg)] if verb == "render" else [])
    if verb == "render" and text == BARE_THETA:
        # render draws a map that has no marked faces
        assert main(argv) == 0
        return
    assert main(argv) == 2
    name = capsys.readouterr().out.split(":", 1)[0]
    assert issubclass(getattr(errors, name), PantsError), name
    assert not out_svg.exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def _cut_darts(draw):
    """The darts 0..2k-1 shuffled and cut into at most 4 rotations, some
    perhaps empty: near-valid maps that pass the dart count."""
    n = 2 * draw(st.integers(1, 4))
    darts = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    return [darts[a:b] for a, b in zip([0] + cuts, cuts + [n])]


# near misses of a graph file, so map validation and the pipeline are reached
GRAPH_LIKE = st.fixed_dictionaries(
    {},
    optional={
        "vertices": st.lists(st.lists(st.integers(-1, 9), max_size=4), max_size=4)
        | _cut_darts()
        | JSON_VALUES,
        "marked_faces": st.lists(st.integers(-1, 4), max_size=4) | JSON_VALUES,
    },
)


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(data=JSON_VALUES | GRAPH_LIKE)
def test_analyze_any_json_exits_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("any") / "g.json"
    path.write_text(json.dumps(data))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["analyze", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in buf.getvalue()


def test_analyze_output_lines_exact(theta_file, capsys):
    assert main(["analyze", theta_file]) == 0
    assert capsys.readouterr().out == (
        "sigma = (1, 1, 1, 1, 1, 1)\n"
        "nu = (1, 1, 1)\n"
        "lamination points (4):\n"
        "0 0 0\n0 0 1\n0 1 0\n1 0 0\n"
    )


def test_analyze_empty_point_list(theta_file, capsys, monkeypatch):
    # a signature whose only point is the origin leaves an empty list
    from pantslam import cli
    from pantslam.special_loops import SigmaVector

    monkeypatch.setattr(cli, "sigma_of", lambda sg: SigmaVector(0, 0, 0, 1, 1, 1))
    assert main(["analyze", theta_file, "--exclude-origin"]) == 0
    out = capsys.readouterr().out
    assert out == "sigma = (0, 0, 0, 1, 1, 1)\nnu = (-1, -1, -1)\nlamination points (0):\n"


def _expected_analyze(tau, exclude_origin):
    pts = [p for p in enumerate_points(tau).points if not (exclude_origin and p == (0, 0, 0))]
    return "".join(
        ["sigma = %s\n" % (tuple(tau),), "nu = %s\n" % (tuple(nu_transform(tau)),),
         "lamination points (%d):\n" % len(pts)]
        + ["%d %d %d\n" % p for p in pts]
    )


def test_analyze_prints_every_point_on_the_corpus(tmp_path, capsys):
    graphs = [build_corpus_graph(*job) for job in corpus_jobs()]
    graphs.append(block_graph((28, 28, 28, 9, 9, 9)))
    for n, sg in enumerate(graphs):
        path = write_graph(tmp_path / ("g%d.json" % n), sg)
        tau = sigma_of(sg)
        for flag in ([], ["--exclude-origin"]):
            assert main(["analyze", path] + flag) == 0
            assert capsys.readouterr().out == _expected_analyze(tau, bool(flag)), (n, flag)


def test_analyze_prints_every_point_of_any_signature(theta_file, capsys, monkeypatch):
    # every validated signature in a small box, realizable or not, including
    # those whose only point is the origin
    for tau in product(range(3), range(3), range(3), range(1, 5), range(1, 5), range(1, 5)):
        monkeypatch.setattr(cli, "sigma_of", lambda sg, tau=SigmaVector(*tau): tau)
        for flag in ([], ["--exclude-origin"]):
            assert main(["analyze", theta_file] + flag) == 0
            assert capsys.readouterr().out == _expected_analyze(tau, bool(flag)), (tau, flag)


@pytest.fixture(scope="module")
def theta_path(tmp_path_factory):
    # module-scoped, so that every hypothesis example may share it
    return write_graph(tmp_path_factory.mktemp("theta") / "theta.json", theta_graph())


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(mu=st.tuples(*[st.integers(0, 15)] * 3), delta=st.tuples(*[st.integers(1, 30)] * 3),
       exclude=st.booleans())
# a column cap that falls partway, below d1 and cut by d3 - x; d1 under
# the cap; only the origin; three columns of about 90,000 points, each
# written in slices of rows
@example(mu=(15, 15, 15), delta=(30, 20, 10), exclude=False)
@example(mu=(10, 10, 15), delta=(5, 30, 30), exclude=True)
@example(mu=(0, 0, 0), delta=(1, 1, 1), exclude=True)
@example(mu=(2, 300, 300), delta=(600, 300, 300), exclude=True)
def test_analyze_prints_every_point_of_larger_signatures(theta_path, mu, delta, exclude):
    # realizable or not: the writer reads only the polytope's columns
    tau = SigmaVector(*mu, *delta)
    buf = io.StringIO()
    with mock.patch.object(cli, "sigma_of", lambda sg: tau), contextlib.redirect_stdout(buf):
        assert main(["analyze", theta_path] + ["--exclude-origin"] * exclude) == 0
    assert buf.getvalue() == _expected_analyze(tau, exclude)


class _Sink:
    """A stdout that discards what it is given, counting its lines."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass


class _CountingBuffer(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.fixture(scope="module")
def deep_block_file(tmp_path_factory):
    # about 7.9 MB of analyze output, written slice by slice
    sg = block_graph((100, 100, 100, 33, 33, 33))
    return write_graph(tmp_path_factory.mktemp("deep") / "block.json", sg), sigma_of(sg)


@pytest.mark.parametrize("flag", [[], ["--exclude-origin"]])
def test_analyze_streams_a_deep_block_in_chunks(deep_block_file, flag):
    path, tau = deep_block_file
    buf = _CountingBuffer()
    with contextlib.redirect_stdout(buf):
        assert main(["analyze", path] + flag) == 0
    assert buf.getvalue() == _expected_analyze(tau, bool(flag))
    assert buf.writes > 1


def test_analyze_memory_stays_bounded(deep_block_file):
    # the text is 7.9 MB, and holding it whole with its joins peaked at
    # 26.9 MB; loading the map alone takes about 2.6 MB
    path, _ = deep_block_file
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Sink()):
            assert main(["analyze", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak


def test_analyze_memory_stays_bounded_on_one_long_column(theta_file, monkeypatch):
    # m1 = 0 puts all 1001^2 points in the column x = 0, 11.9 MB of text
    tau = SigmaVector(0, 1000, 1000, 2000, 1000, 1000)
    monkeypatch.setattr(cli, "sigma_of", lambda sg: tau)
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(["analyze", theta_file]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines == 3 + 1001 * 1001
    assert peak < 8_000_000, peak


def test_parser_is_built_once_and_parses_afresh(theta_file, capsys):
    assert main(["analyze", theta_file, "--exclude-origin"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["check", "1", "2"])
    assert exc.value.code == 2
    assert main(["check", "1", "1", "1", "1", "1", "1"]) == 0
    # a fresh namespace: the earlier --exclude-origin does not stick
    assert main(["analyze", theta_file]) == 0
    out = capsys.readouterr().out
    assert out.index("lamination points (3):") < out.index("Realizable")
    assert out.index("Realizable") < out.index("lamination points (4):")
    assert _build_parser() is _build_parser()


def test_every_verb_dispatches_to_its_own_handler():
    (verbs,) = [action.choices for action in _build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)]
    assert sorted(verbs) == ["analyze", "check", "construct", "oracle", "render", "roundtrip"]
    for verb, parser in verbs.items():
        assert parser.get_default("run") is getattr(cli, "cmd_" + verb), verb


def test_cycle_limit_default_is_the_search_default():
    default = inspect.signature(candidate_cycles).parameters["cycle_limit"].default
    assert _build_parser().parse_args(["oracle", "g.json"]).cycle_limit == default


class _ClosedAfter(io.StringIO):
    """A stdout whose reader leaves after `limit` characters: from then on
    every write raises BrokenPipeError, as a closed pipe does."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def write(self, text):
        if self.tell() + len(text) > self.limit:
            self.limit = -1  # the reader has gone
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return super().write(text)


@pytest.fixture(scope="module")
def long_analyze_file(tmp_path_factory):
    # about 227,000 point lines, 1.9 MB of analyze output
    path = tmp_path_factory.mktemp("long") / "family.json"
    return write_graph(path, family_graph((60, 60, 60), (0, 0, 0)))


@pytest.mark.parametrize("verb, limit", [
    ("analyze", 0), ("analyze", 40), ("analyze", 1_500_000),
    ("oracle", 0), ("oracle", 40), ("oracle", 100),
])
def test_closed_stdout_ends_in_exit_2(long_analyze_file, theta_file, verb, limit):
    path = long_analyze_file if verb == "analyze" else theta_file
    whole = io.StringIO()
    with contextlib.redirect_stdout(whole):
        assert main([verb, path]) == 0
    assert len(whole.getvalue()) > limit
    stdout = _ClosedAfter(limit)
    with contextlib.redirect_stdout(stdout):
        assert main([verb, path]) == 2
        assert sys.stdout is stdout
    # what the reader got is a prefix of the output, and no error line follows
    assert whole.getvalue().startswith(stdout.getvalue())


def _pantslam(argv, stdout, flags=()):
    """`python -m pantslam.cli <argv>` in a child process, with no
    PYTHONUNBUFFERED, so stdout buffers unless flags holds -u."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(pantslam.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *flags, "-m", "pantslam.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("flags", [(), ("-u",)])
def test_analyze_into_a_pipe_closed_after_one_line(long_analyze_file, flags):
    proc = _pantslam(["analyze", long_analyze_file], subprocess.PIPE, flags)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert first == b"sigma = (60, 60, 60, 120, 120, 120)\n"
    assert err == b""


@pytest.mark.parametrize("flags", [(), ("-u",)])
@pytest.mark.parametrize("argv", [
    ["analyze", "{theta}"],
    ["analyze", "/nonexistent/g.json"],
    ["check", "0", "0", "0", "1", "1", "1"],
    ["construct", "2", "3", "0", "3", "2", "5", "{tmp}/w.json"],
    ["construct", "0", "0", "0", "1", "1", "1", "{tmp}/w.json"],
    ["roundtrip", "--max-mu", "1"],
    ["render", "{theta}", "{tmp}/t.svg"],
    ["oracle", "{theta}"],
    ["--help"],
    ["analyze", "--help"],
], ids=["analyze", "analyze-missing", "check-T1", "construct", "construct-unrealizable",
        "roundtrip", "render", "oracle", "help", "analyze-help"])
def test_every_verb_into_a_closed_pipe_exits_2_quietly(theta_file, tmp_path, argv, flags):
    # the reader is gone before the child starts, so its first write or
    # flush fails, also on the paths that would exit 1 (a negative check
    # verdict, an unrealizable construct) or 2 (a missing file); unbuffered,
    # argparse drops its failed --help write itself and exits 0
    argv = [arg.format(theta=theta_file, tmp=tmp_path) for arg in argv]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _pantslam(argv, write, flags)
    finally:
        os.close(write)
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == (0 if "--help" in argv and flags else 2)
    assert err == b""  # no traceback, no "Exception ignored" from the final flush
