"""The names the benchmark harness reaches into must still exist.

`bench/tracing.py` rebinds every function in TRACED by name, and
`bench/workloads.py` reads `cache_info()` of every cache in CACHES and
assembles every space label in TABLE_SPACES; a deleted or renamed one fails
every traced benchmark process.  The functions in GENERATORS are wrapped so
that each resumption is a span, which times a plain function wrongly without
any error, so they must stay generator functions.  The names are read from
the source text, and only the expression assigned to each is evaluated, so
neither file is imported or run.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _names(filename: str, variable: str):
    tree = ast.parse((BENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == variable for t in node.targets
        ):
            expr = compile(ast.Expression(node.value), filename, "eval")
            return eval(expr, {"__builtins__": {"range": range, "tuple": tuple}})
    raise LookupError(f"{variable} not found in bench/{filename}")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"perfcone.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module,attr", _names("tracing.py", "TRACED"))
def test_traced_function_exists(module, attr):
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize("module,attr", _names("workloads.py", "CACHES"))
def test_benchmarked_cache_exists(module, attr):
    assert callable(_resolve(module, attr).cache_info)


@pytest.mark.parametrize("module,attr", sorted(_names("tracing.py", "GENERATORS")))
def test_traced_generator_is_generator_function(module, attr):
    assert inspect.isgeneratorfunction(_resolve(module, attr))


@pytest.mark.parametrize("label", sorted({s for s, _ in _names("workloads.py", "TABLE_SPACES")}))
def test_benchmarked_space_label_parses(label):
    from perfcone.betti import parse_space

    parse_space(label)
