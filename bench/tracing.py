"""Spans around perfcone's public functions, recorded from outside the package.

`Tracer.install` replaces each traced function by a wrapper and rebinds the
wrapper under every name that held the original in any perfcone module, so a
call through `stabilizers.rank` is traced as well as one through
`matrices.rank`.  Spans stay in memory until `write_spans` at the end of the
process.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute) of every traced function.  A dotted attribute names a
# method; `ClassSum.__mul__` is the bracket product.
TRACED = (
    ("matrices", "rank"),
    ("matrices", "solve_rational"),
    ("matrices", "det"),
    ("matrices", "f2_kernel"),
    ("matrices", "invert_unimodular"),
    ("matrices", "kernel_basis"),
    ("series", "rational_inverse"),
    ("series", "product_free"),
    ("polyhedral", "facets"),
    ("polyhedral", "face_ray_sets"),
    ("cones", "_assignment_search"),
    ("cones", "cones_equivalent"),
    ("cones", "catalog"),
    ("stabilizers", "stabilizer_action"),
    ("stabilizers", "invariant_dim_degree1"),
    ("invariants", "molien"),
    ("invariants", "koszul_check"),
    ("betti", "assemble"),
    ("brackets", "enumerate_brackets"),
    ("brackets", "canonical_bracket"),
    ("brackets", "ClassSum.__mul__"),
    ("brackets", "oracle_expand"),
    ("brackets", "realize_class"),
    ("voronoi", "enumerate_perfect"),
    ("voronoi", "perfect_form"),
    ("voronoi", "equivalent_forms"),
    ("voronoi", "domain_automorphism_perms"),
    ("voronoi", "neighbor"),
    ("voronoi", "classify_faces"),
)

# Span names that differ from "module.attribute".
SPAN_NAMES = {("brackets", "ClassSum.__mul__"): "brackets.multiply"}

GENERATORS = {("cones", "_assignment_search")}

# Spans that also count the calls whose result answers "found": these give
# the "<span>.found" count.
FOUND = {("cones", "cones_equivalent"): lambda result: result is not None}


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span index, child nanoseconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def _open(self, name_id: int) -> None:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append([index, 0])
        self.span_start.append(time.perf_counter_ns())

    def _close(self, name: str) -> None:
        end = time.perf_counter_ns()
        index, child_ns = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.self_ns[name] += duration - child_ns
        if self._stack:
            self._stack[-1][1] += duration

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, found=None):
        """A function that runs `fn` inside a span called `name`.

        When `found` is given, calls whose result satisfies it are counted
        as "<name>.found".
        """
        name_id = self._name_id(name)
        if found is not None:
            self.counts[name + ".found"] = 0

        def traced(*args, **kwargs):
            self.calls[name] += 1
            self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if found is not None and found(result):
                self.counts[name + ".found"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name: str):
        """Like `wrap` for a generator function: each resumption is a span.

        Time the consumer spends between items is not charged to `name`.
        """
        name_id = self._name_id(name)
        self.counts[name + ".yielded"] = 0

        def traced(*args, **kwargs):
            self.calls[name] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    self._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(name)
                    self.counts[name + ".yielded"] += 1
                    yield item
            finally:
                inner.close()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED and rebind it in each imported
        perfcone module."""
        modules = {
            name.split(".", 1)[1]: module
            for name, module in sys.modules.items()
            if name.startswith("perfcone.")
        }
        for module_name, attr in TRACED:
            key = (module_name, attr)
            name = SPAN_NAMES.get(key, f"{module_name}.{attr}")
            owner = modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            if key in GENERATORS:
                traced = self.wrap_generator(original, name)
            else:
                traced = self.wrap(original, name, FOUND.get(key))
            setattr(owner, leaf, traced)
            for module in modules.values():
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, traced)

    def summary(self) -> dict[str, float]:
        """Calls, self seconds and extra counts, keyed "<span>.<field>"."""
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        out.update(self.counts)
        return out

    def write_spans(self, path) -> None:
        """Write every span as [name, parent index, start ns, end ns]."""
        with open(path, "w") as fh:
            fh.write('{"names": ')
            json.dump(self.names, fh)
            fh.write(', "spans": [')
            for k in range(len(self.span_name)):
                if k:
                    fh.write(",")
                fh.write(
                    f"[{self.span_name[k]},{self.span_parent[k]},"
                    f"{self.span_start[k]},{self.span_end[k]}]"
                )
            fh.write("]}\n")
