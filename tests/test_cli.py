"""Command line round trips, exit codes and message formats."""

import contextlib
import io
import json
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pantslam import cli, constructor, errors
from pantslam.cli import _build_parser, main
from pantslam.errors import PantsError
from pantslam.combmap import CombinatorialMap
from pantslam.exploration import SigmaGraph
from pantslam.ladders import block_graph
from pantslam.polytope import enumerate_points, nu_transform
from pantslam.special_loops import SigmaVector, sigma_of

from conftest import build_corpus_graph, corpus_jobs, realizable_grid, theta_graph


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(theta_graph().to_dict()))
    return str(path)


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
    return json.dumps(sg.to_dict(), indent=1, sort_keys=True) + "\n"


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
    assert captured.out.splitlines()[-1].startswith("FileNotFoundError: ")
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


def test_roundtrip_negative_max_mu_is_input_error(capsys):
    assert main(["roundtrip", "--max-mu", "-1"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("OutOfRange: --max-mu ")
    assert "empty sweep" not in out


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


def test_oracle_agreement(theta_file, capsys):
    assert main(["oracle", theta_file]) == 0
    out = capsys.readouterr().out
    assert "minimal cycles by type: 1 1 1" in out
    assert "agreement: yes" in out


def test_oracle_long_theta_exits_0(tmp_path, capsys):
    # three 500-edge paths: the cycle search runs 1,000 vertices deep
    path = tmp_path / "long_theta.json"
    path.write_text(json.dumps(theta_graph(500).to_dict()))
    assert main(["oracle", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "minimal cycles by type: 1 1 1" in out
    assert "agreement: yes" in out


def test_oracle_checks_a_block_past_the_full_catalog(tmp_path, capsys):
    # all simple cycles of this block pass the default cycle limit; the
    # pruned search keeps few enough to finish
    path = tmp_path / "block.json"
    path.write_text(json.dumps(block_graph((1, 2, 2, 2, 1, 1)).to_dict()))
    assert main(["oracle", str(path)]) == 0
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
        path = tmp_path / ("g%d.json" % n)
        path.write_text(json.dumps(sg.to_dict()))
        tau = sigma_of(sg)
        for flag in ([], ["--exclude-origin"]):
            assert main(["analyze", str(path)] + flag) == 0
            assert capsys.readouterr().out == _expected_analyze(tau, bool(flag)), (n, flag)


def test_analyze_prints_every_point_of_any_signature(theta_file, capsys, monkeypatch):
    # every validated signature in a small box, realizable or not, including
    # those whose only point is the origin
    for tau in product(range(3), range(3), range(3), range(1, 5), range(1, 5), range(1, 5)):
        monkeypatch.setattr(cli, "sigma_of", lambda sg, tau=SigmaVector(*tau): tau)
        for flag in ([], ["--exclude-origin"]):
            assert main(["analyze", theta_file] + flag) == 0
            assert capsys.readouterr().out == _expected_analyze(tau, bool(flag)), (tau, flag)


class _Sink:
    """A stdout that discards what it is given."""

    def write(self, text):
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
    # about 7.9 MB of analyze output: several 1 MiB chunks
    sg = block_graph((100, 100, 100, 33, 33, 33))
    path = tmp_path_factory.mktemp("deep") / "block.json"
    path.write_text(json.dumps(sg.to_dict()))
    return str(path), sigma_of(sg)


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
