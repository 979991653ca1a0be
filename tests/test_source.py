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


# Modules that no layer needs at import time: `dataclasses` (which imports
# `inspect`) is not used for records, and `fractions` (with `decimal`) and
# `csv` are imported by the few functions that use them.
LAZY_MODULES = {"dataclasses", "inspect", "fractions", "decimal", "csv"}


def test_importing_the_package_loads_no_lazy_module():
    # a fresh interpreter, since pytest has loaded most of the standard
    # library; the modules it had loaded before the import (`site` differs
    # between machines) are not counted
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import perfcone.matrices, perfcone.series, perfcone.polyhedral, perfcone.cones\n"
        "import perfcone.stabilizers, perfcone.invariants, perfcone.betti, perfcone.brackets\n"
        "import perfcone.voronoi, perfcone.verify, perfcone.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC[0].parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(out.split())
    assert "perfcone.cli" in loaded
    assert loaded & LAZY_MODULES == set()
