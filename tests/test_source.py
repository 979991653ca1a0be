"""Source-level guards on the package."""

from __future__ import annotations

import ast
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


def _record_fields(tree):
    """(class, field) for each annotated field of a dataclass or `NamedTuple`
    defined at the top level."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        is_record = any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
            isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases
        )
        if is_record:
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_dataclass_field_is_read():
    # a field that nothing reads is data kept for no caller: delete it
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SRC]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{cls}.{field}"
        for tree in trees
        for cls, field in _record_fields(tree)
        if field not in read
    ]
    assert unread == []
