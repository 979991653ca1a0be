"""One cold benchmark process: set perfcone up, run one workload, check it.

    python3 bench/workloads.py WORKLOAD SEED RESULT_JSON [--spans SPANS_JSON]

Run with `src` on PYTHONPATH; `bench/run.py` starts it.  WORKLOAD is `tables`, `brackets`, `voronoi` or `setup` (set-up only).
The seed permutes the order in which a workload visits its inputs, never the
inputs themselves.  The process writes RESULT_JSON with the time its set-up
finished (time.monotonic, comparable with the parent's clock), the answers it
computed, the checks that failed and, with --spans, the per-layer
metrics of a traced run; it exits 1 when a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PERF_12 = ROOT / "tests" / "goldens" / "betti_perf_12_breakdown.txt"

# The layers, imported as a whole by the set-up step.
LAYERS = (
    "matrices",
    "series",
    "polyhedral",
    "cones",
    "stabilizers",
    "invariants",
    "betti",
    "brackets",
    "voronoi",
)

# (space, max degree) pairs assembled by the tables workload.  perf 12 is
# rendered against the golden breakdown; every other size is the one whose
# published values the checks below pin.
TABLE_SPACES = (
    ("perf", 13),
    ("perf", 12),
    ("matr", 12),
    ("simp", 12),
    ("smooth", 12),
    ("std", 20),
    ("partial", 20),
    ("satake", 30),
    ("beta1", 8),
    ("beta2", 8),
    ("beta3", 8),
) + tuple((f"universal:{n}", 20) for n in range(9))

# Orders of the integral stabilizers of the tables cones.  K3, C4 and NS are
# the published values; the others are those this code computes, pinned so
# that stabilizers.group_order_sum cannot move without a failed check.
STABILIZER_ORDERS = {
    "1": 1, "1+1": 2, "1+1+1": 6, "1+1+1+1": 24, "1+1+1+1+1": 120,
    "K3": 6, "K3+1": 6, "K3+1+1": 12, "C4": 24, "C4+1": 24, "C5": 120,
    "NS": 120, "K4": 24, "K4-1": 8,
}

CACHES = (
    ("betti", "_molien_prefix"),
    ("brackets", "_canonical_cached"),
    ("brackets", "_structure_constants"),
    ("brackets", "_classify_monomial"),
)


class Checks:
    """Named answer checks; a failed one is recorded, not raised, so one run
    reports every mismatch."""

    def __init__(self) -> None:
        self.failed: list[str] = []

    def __call__(self, ok: bool, name: str) -> None:
        if not ok:
            self.failed.append(name)


def _even(values, upto):
    return tuple(values[k] for k in range(0, upto + 1, 2))


def run_tables(rng: random.Random, check: Checks, extra: dict) -> dict:
    from perfcone import betti, cones, invariants, stabilizers

    targets = [e.cone for e in cones.catalog(5) if e.cone is not None]
    targets.append(cones.catalog_cone("K4"))
    rng.shuffle(targets)
    per_cone = {}
    for cone in targets:
        action = stabilizers.stabilizer_action(cone)
        series = invariants.molien(action, 8)
        inv_dim = stabilizers.invariant_dim_degree1(cone)
        koszul = invariants.koszul_check(cone, 8)
        check(koszul.passed, f"koszul strands exact for {cone.name}")
        per_cone[cone.name] = {
            "order": action.order,
            "orbits": [list(o) for o in action.orbits],
            "molien": list(series.coeffs),
            "invariant_dim": inv_dim,
            "koszul_bottom": list(koszul.bottom_row),
        }
    extra["group_order_sum"] = sum(c["order"] for c in per_cone.values())

    spaces = list(TABLE_SPACES)
    rng.shuffle(spaces)
    reports = {(s, d): betti.assemble(s, d) for s, d in spaces}
    totals = {f"{s} {d}": list(reports[s, d].totals) for s, d in TABLE_SPACES}

    perf = reports["perf", 13]
    check(_even(perf.totals, 10) == (1, 2, 4, 9, 18, 38), "perf totals 1,2,4,9,18,38")
    check(all(perf.totals[k] == 0 for k in range(1, 14, 2)), "perf odd degrees vanish")
    rows = dict(perf.rows)
    check(rows["1+1"][12] + rows["K3"][12] == 19, "beta2 cell at degree 12 is 19")
    matr = reports["matr", 12]
    check(_even(matr.totals, 10) == (1, 2, 4, 9, 18, 37), "matr totals 1,2,4,9,18,37")
    check(matr.totals[12] == 79, "matr degree 12 is 79")
    check(_even(reports["beta2", 8].totals, 8) == (1, 3, 6, 11, 19), "beta2 1,3,6,11,19")
    check(
        reports["satake", 30].totals == betti.lambda_series(30).coeffs,
        "satake equals the lambda series",
    )
    check(
        reports["universal:1", 20].totals == reports["partial", 20].totals,
        "universal(1) equals partial",
    )
    orders = {name: per_cone[name]["order"] for name in ("K3", "C4", "NS")}
    check(orders == {"K3": 6, "C4": 24, "NS": 120}, "stabilizer orders K3/C4/NS 6/24/120")
    check(
        {name: c["order"] for name, c in per_cone.items()} == STABILIZER_ORDERS,
        f"stabilizer orders sum to {sum(STABILIZER_ORDERS.values())}, cone by cone",
    )
    codim5 = [per_cone[e.name]["invariant_dim"] for e in cones.catalog(6) if e.dim == 5]
    check(codim5 == [2, 2, 2, 1, 1, 1], "codim-5 invariant dimensions 2,2,2,1,1,1")
    rendered = reports["perf", 12].to_text(breakdown=True) + "\n"
    check(
        rendered.encode() == GOLDEN_PERF_12.read_bytes(),
        "perf-12 breakdown matches its golden byte for byte",
    )
    return {"cones": per_cone, "spaces": totals}


def run_brackets(rng: random.Random, check: Checks, extra: dict) -> dict:
    from perfcone import brackets as br
    from perfcone.verify import PUBLISHED_BRACKET_LISTS

    degrees = list(range(1, 7))
    rng.shuffle(degrees)
    classes = {d: br.enumerate_brackets(d) for d in degrees}
    counts = [len(classes[d]) for d in range(1, 7)]
    check(counts == [1, 2, 4, 8, 16, 36], "bracket counts 1,2,4,8,16,36")
    for d, names in PUBLISHED_BRACKET_LISTS.items():
        published = {br.parse_bracket(s) for s in names}
        check(
            set(classes[d]) == published and len(published) == len(names),
            f"degree-{d} classes match the published list",
        )

    factors = [bc for d in range(1, 6) for bc in classes[d]]
    pairs = [
        (a, b)
        for a, b in itertools.combinations_with_replacement(factors, 2)
        if a.degree + b.degree <= 6
    ]
    check(len(pairs) == 68, "68 class pairs of total degree <= 6")
    rng.shuffle(pairs)
    products = {}
    for a, b in pairs:
        product = br.ClassSum.of(a) * br.ClassSum.of(b)
        oracle = br.oracle_expand(4, [a, b])
        restricted = br.ClassSum.from_dict(
            {bc: c for bc, c in product.as_dict().items() if br.representable(bc, 4)}
        )
        check(oracle == restricted, f"multiply agrees with oracle_expand for {a}*{b}")
        products[f"{a}*{b}"] = str(product)
    extra["oracle_pairs"] = pairs
    return {
        "classes": {str(d): sorted(str(bc) for bc in classes[d]) for d in range(1, 7)},
        "products": dict(sorted(products.items())),
    }


def run_voronoi(rng: random.Random, check: Checks, extra: dict) -> dict:
    from perfcone import cones as cn
    from perfcone import voronoi as vr

    genera = [2, 3, 4]
    rng.shuffle(genera)
    forms = {g: vr.enumerate_perfect(g) for g in genera}
    counts = {g: len(forms[g]) for g in (2, 3, 4)}
    check(counts == {2: 1, 3: 1, 4: 2}, "perfect-form counts {2:1, 3:1, 4:2}")
    rng.shuffle(genera)
    faces = {g: vr.classify_faces(g, 6) for g in genera}
    six = tuple(
        sum(1 for c in faces[g] if cn.cone_dim(c) == 6 and cn.cone_rank(c) == g)
        for g in (3, 4)
    )
    check(six == (1, 4), "dim-6 face classes (1, 4) at g = 3, 4")

    catalog_small = [e for e in cn.catalog(6) if e.cone is not None and e.dim <= 5]
    rng.shuffle(catalog_small)
    small_faces = [
        (g, k, c) for g in (2, 3, 4) for k, c in enumerate(faces[g]) if cn.cone_dim(c) <= 5
    ]
    rng.shuffle(small_faces)
    matches = {}
    for g, k, c in small_faces:
        hits = sorted(e.name for e in catalog_small if cn.cones_equivalent(c, e.cone) is not None)
        check(len(hits) == 1, f"face {k} at g = {g} matches exactly one catalog cone")
        matches[f"{g}:{k}"] = hits
    return {
        "forms": {str(g): [p.form.matrix for p in forms[g]] for g in (2, 3, 4)},
        "faces": {str(g): [c.generators for c in faces[g]] for g in (2, 3, 4)},
        "matches": dict(sorted(matches.items())),
    }


WORKLOADS = {"tables": run_tables, "brackets": run_brackets, "voronoi": run_voronoi}


def layer_metrics(tracer, extra: dict) -> dict:
    """Per-layer metrics of a traced run, from its spans and the caches."""
    from perfcone import brackets as br

    out = tracer.summary()
    calls = out.get("cones.cones_equivalent.calls", 0)
    found = out.pop("cones.cones_equivalent.found", 0)
    out["cones.cones_equivalent.found_ratio"] = found / calls if calls else 0.0
    for module, name in CACHES:
        info = getattr(sys.modules[f"perfcone.{module}"], name).cache_info()
        lookups = info.hits + info.misses
        out[f"{module}.{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
    out["stabilizers.group_order_sum"] = extra.get("group_order_sum", 0)
    realize = br.realize_class.__wrapped__
    out["brackets.oracle_expand.monomials"] = sum(
        len(realize(a, 4)) * len(realize(b, 4)) for a, b in extra.get("oracle_pairs", ())
    )
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS) + ["setup"])
    parser.add_argument("seed", type=int)
    parser.add_argument("result", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    import perfcone

    for layer in LAYERS:
        importlib.import_module(f"perfcone.{layer}")
    tracer = None
    if args.spans is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    perfcone.cones.catalog(6)
    ready = time.monotonic()

    check = Checks()
    extra: dict = {}
    answers = {}
    if args.workload != "setup":
        answers = WORKLOADS[args.workload](random.Random(args.seed), check, extra)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ready": ready,
        "failed_checks": check.failed,
        "answers_sha256": hashlib.sha256(
            json.dumps(answers, sort_keys=True).encode()
        ).hexdigest(),
        "answers": answers,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, extra)
        tracer.write_spans(args.spans)
    args.result.write_text(json.dumps(result))
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
