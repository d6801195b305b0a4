"""Command line round trips, exit codes and message formats."""

import json

import pytest

from pantslam import constructor
from pantslam.cli import main
from pantslam.combmap import CombinatorialMap
from pantslam.exploration import SigmaGraph

from conftest import theta_graph


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(theta_graph().to_json())
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
    text = capsys.readouterr().out
    assert "route: families" in text
    assert "params: counts=(2, 1, 1) depths=(0, 0, 0)" in text
    assert "verified: sigma = (2, 1, 1, 2, 3, 3)" in text
    data = json.loads(out.read_text())
    assert set(data) == {"vertices", "marked_faces"}
    g = SigmaGraph(CombinatorialMap(data["vertices"]), tuple(data["marked_faces"]))
    assert g.cmap.num_faces >= 3


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
    assert lines[:2] == ["route: families", "params: counts=(1, 3, 3) depths=(3, 0, 0)"]
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
    assert "tau=(1, 1, 1, 1, 1, 1) route=blocks ok" in out


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
    assert "cycles cataloged: 3" in out
    assert "agreement: yes" in out


def test_oracle_limit_maps_to_input_error(theta_file, capsys):
    assert main(["oracle", theta_file, "--cycle-limit", "1"]) == 2


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
