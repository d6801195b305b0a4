"""The public surface: exported names, the version, marked-face numbering."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pantslam
from pantslam.combmap import CombinatorialMap
from pantslam.errors import OutOfRange
from pantslam.exploration import SigmaGraph

from conftest import THETA_ROTATIONS


def test_every_exported_name_resolves():
    assert len(set(pantslam.__all__)) == len(pantslam.__all__)
    for name in pantslam.__all__:
        assert getattr(pantslam, name) is not None, name


def test_version_has_one_source():
    assert pantslam.__version__ == "0.1.0"
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in meta["project"]
    assert meta["project"]["dynamic"] == ["version"]
    attr = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "pantslam.__version__"


def test_benchmark_tracer_installs():
    """perfbench wraps program functions by name; renaming one breaks this."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import tracer, worker; worker.install_tracing(tracer.Tracer())"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _called(tree):
    """Names the parsed code calls, by name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def _imported(tree):
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_public_function_is_reached_outside_the_tests():
    """A public function stays only when a verb, a benchmark workload, the
    benchmark's tracing or README's Library example reaches it."""
    root = Path(__file__).resolve().parents[1]

    def parse(path):
        return ast.parse((root / path).read_text(encoding="utf-8"))

    reached = set()
    for path in ("src/pantslam/cli.py", "perfbench/workloads.py"):
        tree = parse(path)
        reached |= _called(tree) | _imported(tree)
    (tracing,) = [node for node in parse("perfbench/worker.py").body
                  if isinstance(node, ast.FunctionDef) and node.name == "install_tracing"]
    reached |= {node.value for node in ast.walk(tracing)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    readme = (root / "README.md").read_text(encoding="utf-8")
    library = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S)
    reached |= _called(ast.parse(library.group(1)))
    public = [name for name in pantslam.__all__ if inspect.isfunction(getattr(pantslam, name))]
    assert len(public) > 10
    unreached = [name for name in public if name not in reached]
    assert unreached == [], "reached only by tests: " + ", ".join(unreached)


@pytest.mark.parametrize("i", [0, 4, -1])
def test_boundary_loops_number_marked_faces_from_1(i):
    sg = SigmaGraph(CombinatorialMap([list(r) for r in THETA_ROTATIONS]), (0, 1, 2))
    with pytest.raises(OutOfRange):
        sg.boundary_loops(i, 1)


@pytest.mark.parametrize("marked", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
def test_classify_returns_the_marked_number(marked):
    # each level-1 loop of the theta graph isolates its own marked face
    sg = SigmaGraph(CombinatorialMap([list(r) for r in THETA_ROTATIONS]), marked)
    for i in (1, 2, 3):
        (loop,) = sg.boundary_loops(i, 1)
        assert sg.classify(loop) == i
