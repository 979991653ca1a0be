"""Source-level guards on the package."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "perfcone").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so an invariant check written as
    # one would silently stop checking; raise a named error instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


# Definitions that nothing in the package refers to, each kept on purpose.
UNREFERENCED = {
    # the public reader of `render_catalog` text, which round-trips it
    "parse_catalog": "cones.py",
    # `ClassSum.as_dict`: the benchmark's bracket workload reads a product's
    # terms through it (`bench/workloads.py`)
    "as_dict": "brackets.py",
    # test oracles that stay in the package only because the benchmark
    # harness traces them by name (`bench/tracing.py` TRACED); ROADMAP item 1
    # moves them into the tests
    "solve_rational": "matrices.py",
    "rational_inverse": "series.py",
}


def _definitions(tree):
    """Top-level functions and classes, and the methods of top-level
    classes that are not dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name


def test_every_definition_is_referenced():
    # a helper that nothing calls is dead code: delete it with its last caller
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SRC}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = {
        name: filename
        for filename, tree in trees.items()
        for name in _definitions(tree)
        if name not in referenced
    }
    assert unreferenced == UNREFERENCED


# Names defined more than once, each referenced under every definition.
SHARED_NAMES = {
    # `polyhedral.facets` of a ray cone and `voronoi.facets` of a perfect
    # form, which calls it
    "facets": ["polyhedral.py", "voronoi.py"],
}


def test_no_two_definitions_share_a_name():
    # `test_every_definition_is_referenced` sees names, not definitions: a
    # dead method hides behind a live one of the same name
    where: dict[str, list[str]] = {}
    for path in SRC:
        for name in _definitions(ast.parse(path.read_text(), filename=str(path))):
            where.setdefault(name, []).append(path.name)
    shared = {name: files for name, files in where.items() if len(files) > 1}
    assert shared == SHARED_NAMES


# Every record of the package: a `NamedTuple`, or a subclass of a private
# `NamedTuple` of its fields that checks them in `__new__`.
RECORDS = {
    "BettiReport", "BracketClass", "CatalogEntry", "CheckResult", "ClassSum",
    "DimensionBounds", "Facet", "Graph", "GroupAction", "KoszulReport",
    "PerfectForm", "QuadraticForm", "Row", "TruncatedSeries", "_Family",
}


def _record_fields(tree):
    """(record, field) for each annotated field of a `NamedTuple` defined at
    the top level; the fields of a `NamedTuple` that another top-level class
    extends are named after that class."""
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    fields = {
        node.name: [
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
        for node in classes
        if any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)
    }
    owner = {name: name for name in fields}
    for node in classes:
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id in fields:
                owner[base.id] = node.name
    for name, names in fields.items():
        for field in names:
            yield owner[name], field


def test_every_dataclass_field_is_read():
    # a field that nothing reads is data kept for no caller: delete it
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SRC]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [pair for tree in trees for pair in _record_fields(tree)]
    # the guard sees every record, so it cannot shrink unnoticed
    assert {cls for cls, _ in fields} == RECORDS
    unread = [f"{cls}.{field}" for cls, field in fields if field not in read]
    assert unread == []


# The one place each module may import `fractions` at run time: the two
# rational oracles that the benchmark harness traces by name
# (`bench/tracing.py` TRACED); ROADMAP item 1 moves them into the tests.
FRACTIONS_ORACLES = {"matrices.py": "solve_rational", "series.py": "rational_inverse"}


def _is_type_checking(test) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _fractions_imports(node, oracle):
    """Lines under node that import `fractions`, skipping the body of an
    `if TYPE_CHECKING:` block and the function named oracle."""
    if isinstance(node, ast.If) and _is_type_checking(node.test):
        children = node.orelse
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == oracle:
        return
    else:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "fractions" for name in names):
            yield node.lineno
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from _fractions_imports(child, oracle)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_fractions_only_in_type_checking_and_the_rational_oracles(path):
    # exact arithmetic in the package is integer arithmetic
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = list(_fractions_imports(tree, FRACTIONS_ORACLES.get(path.name)))
    assert lines == [], f"{path.name} imports fractions at lines {lines}"


def _fresh_modules(code: str) -> set[str]:
    """The modules a fresh interpreter loads while running code, less those
    it had loaded at start (`site` differs between machines).  They are
    printed to stderr, so code must write nothing there."""
    script = "import sys\nbefore = set(sys.modules)\n" + code + (
        "\nprint(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC[0].parent.parent))
    err = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stderr
    return set(err.split())


# Modules that no layer needs at import time: `dataclasses` (which imports
# `inspect`) is not used for records, and `fractions` (with `decimal`) and
# `csv` are imported by the few functions that use them.
LAZY_MODULES = {"dataclasses", "inspect", "fractions", "decimal", "csv"}


def test_importing_the_package_loads_no_lazy_module():
    # a fresh interpreter, since pytest has loaded most of the standard library
    loaded = _fresh_modules(
        "import perfcone.matrices, perfcone.series, perfcone.polyhedral, perfcone.cones\n"
        "import perfcone.stabilizers, perfcone.invariants, perfcone.betti, perfcone.brackets\n"
        "import perfcone.voronoi, perfcone.verify, perfcone.cli\n"
    )
    assert "perfcone.cli" in loaded
    assert loaded & LAZY_MODULES == set()


def test_voronoi_walk_and_faces_load_no_fractions():
    # the line search of `neighbor` runs in integers
    loaded = _fresh_modules(
        "from perfcone import voronoi\n"
        "for g in (2, 3, 4, 5):\n"
        "    voronoi.enumerate_perfect(g)\n"
        "for g in (2, 3, 4):\n"
        "    voronoi.classify_faces(g, 6)\n"
    )
    assert "perfcone.voronoi" in loaded
    assert loaded & {"fractions", "decimal", "numbers"} == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--space", "perf", "--max-degree", "12"],
        ["catalog", "list"],
        ["stabilizer", "K3"],
        ["molien", "C4", "--max-degree", "6"],
        ["koszul", "1+1", "--max-total", "4"],
    ],
    ids=lambda argv: argv[0],
)
def test_table_commands_load_no_unused_layer(argv):
    # each command imports the layers it runs inside its handler
    loaded = _fresh_modules(
        f"from perfcone.cli import main\nassert main({argv!r}) == 0\n"
    )
    assert "perfcone.cli" in loaded
    unused = {"perfcone.brackets", "perfcone.voronoi", "perfcone.polyhedral", "perfcone.verify"}
    assert loaded & unused == set()
