"""The public surface: exported names, the version, marked-face numbering."""

import ast
import functools
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import pantslam
from pantslam.combmap import CombinatorialMap
from pantslam.errors import OutOfRange
from pantslam.exploration import SigmaGraph

from conftest import THETA_ROTATIONS

ROOT = Path(__file__).resolve().parents[1]
SRC_MODULES = sorted(p.stem for p in (ROOT / "src" / "pantslam").glob("*.py")
                     if p.stem != "__init__")


def test_version_has_one_source():
    assert pantslam.__version__ == "0.1.0"
    tomllib = pytest.importorskip("tomllib")
    pyproject = ROOT / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in meta["project"]
    assert meta["project"]["dynamic"] == ["version"]
    attr = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "pantslam.__version__"


def test_benchmark_tracer_installs():
    """perfbench wraps program functions by name; renaming one breaks this."""
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import tracer, worker; worker.install_tracing(tracer.Tracer())"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _readme_library():
    """The code of README's Library example."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)


def test_readme_library_prints_what_its_comments_say(capsys):
    """Each print line's comment starts with the value it prints, then a colon."""
    code = _readme_library()
    said = [line.split("# ", 1)[1].split(":", 1)[0]
            for line in code.splitlines() if line.startswith("print(")]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == said
    assert len(said) == 7


def test_readme_states_the_src_line_count():
    """README's "`src/pantslam` is N lines in M modules" is the tree's `wc -l`."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines, modules = re.search(
        r"`src/pantslam` is ([\d,]+) lines in (\d+) modules", readme).groups()
    files = sorted((ROOT / "src" / "pantslam").glob("*.py"))
    assert int(modules) == len(files)
    assert int(lines.replace(",", "")) == sum(p.read_bytes().count(b"\n") for p in files)


def _parse(path):
    return ast.parse((ROOT / path).read_text(encoding="utf-8"))


def _tracing():
    """The benchmark's install_tracing, parsed."""
    (tracing,) = [node for node in _parse("perfbench/worker.py").body
                  if isinstance(node, ast.FunctionDef) and node.name == "install_tracing"]
    return tracing


def _tracing_targets():
    """The strings in the benchmark's install_tracing: the names it wraps."""
    return {node.value for node in ast.walk(_tracing())
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _reads(tree):
    """The nodes of the names the parsed code reads, bare or as an attribute.

    A name read inside a function of the same name is left out: a recursive
    call, or a method calling its namesake on another object, is no use.
    """
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name is not None and name not in inside:
            found.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def _named(tree):
    """Names the parsed code reads, bare or as an attribute (see `_reads`)."""
    return {node.attr if isinstance(node, ast.Attribute) else node.id for node in _reads(tree)}


def test_every_public_method_is_named_outside_the_tests():
    """A public method or property of a public class of any module stays
    only when the package, a benchmark workload, the benchmark's tracing or
    README's Library example names it; a second spelling of a table lookup
    does not."""
    named = _tracing_targets() | _named(ast.parse(_readme_library()))
    for path in sorted(ROOT.glob("src/pantslam/*.py")) + [ROOT / "perfbench/workloads.py"]:
        named |= _named(_parse(path))
    kinds = (property, functools.cached_property, classmethod, staticmethod, FunctionType)
    modules = [importlib.import_module("pantslam." + module) for module in SRC_MODULES]
    public = ["%s.%s" % (cls.__name__, name)
              for mod in modules for cls in vars(mod).values()
              if inspect.isclass(cls) and cls.__module__ == mod.__name__
              and not cls.__name__.startswith("_")
              for name, member in vars(cls).items()
              if not name.startswith("_") and isinstance(member, kinds)]
    assert len(public) > 10
    unnamed = [name for name in public if name.split(".")[1] not in named]
    assert unnamed == [], "named only by tests: " + ", ".join(unnamed)


def _qualified(tree):
    """"module.name" for each name the parsed code imports from a module
    of the package or reads as an attribute of one."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            package, _, module = node.module.rpartition(".")
            if module in SRC_MODULES and (node.level == 1 or package == "pantslam"):
                out.update(module + "." + alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in SRC_MODULES):
            out.add(node.value.id + "." + node.attr)
    return out


def _traced():
    """"module.name" of each module function the benchmark's tracing wraps,
    listed there as a (module, "name", ...) tuple."""
    return {node.elts[0].id + "." + node.elts[1].value for node in ast.walk(_tracing())
            if isinstance(node, ast.Tuple) and len(node.elts) > 1
            and isinstance(node.elts[0], ast.Name) and node.elts[0].id in SRC_MODULES
            and isinstance(node.elts[1], ast.Constant)}


def test_every_module_function_is_reached_outside_the_tests():
    """A public module-level function of any module, exported or not, stays
    only when its own module uses it outside its def, or another module,
    a benchmark workload or README's Library example imports it or names
    it through its module, or the benchmark's tracing wraps it."""
    trees = {module: _parse("src/pantslam/%s.py" % module) for module in SRC_MODULES}
    reached = (_traced() | _qualified(_parse("perfbench/workloads.py"))
               | _qualified(ast.parse(_readme_library())))
    for module, tree in trees.items():
        # no module imports from itself, so its _qualified names are others'
        reached |= _qualified(tree)
        reached |= {module + "." + node.id for node in _reads(tree) if isinstance(node, ast.Name)}
    public = [module + "." + node.name for module, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert len(public) > 30
    unreached = [name for name in public if name not in reached]
    assert unreached == [], "reached only by tests: " + ", ".join(unreached)


def test_each_public_name_has_one_import_path():
    """A name is imported from its own module: no module, `__init__`
    included, assigns `__all__`, and `__init__` binds only `__version__`."""
    listing = [path.name for path in sorted((ROOT / "src" / "pantslam").glob("*.py"))
               for node in ast.walk(_parse(path))
               if isinstance(node, ast.Name) and node.id == "__all__"
               and isinstance(node.ctx, ast.Store)]
    assert listing == []
    init = _parse("src/pantslam/__init__.py")
    assert ast.get_docstring(init) is not None
    (binding,) = init.body[1:]
    assert isinstance(binding, ast.Assign)
    assert [target.id for target in binding.targets] == ["__version__"]


def test_the_verbs_load_only_the_modules_they_use():
    """No verb calls `randmaps`, `ladders` or `facecomplex`, so loading the
    command line loads none of them."""
    code = ("import sys, pantslam.cli; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('pantslam'))))")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "pantslam.cli" in loaded
    assert loaded & {"pantslam.randmaps", "pantslam.ladders", "pantslam.facecomplex"} == set()


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
