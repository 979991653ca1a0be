"""Command-line front end: every computation, plus the verification matrix."""

from __future__ import annotations

import argparse
import json
import sys

from . import brackets as br
from . import cones as cn
from . import voronoi as vr
from .betti import assemble
from .invariants import check_molien_degree, koszul_check, molien
from .stabilizers import invariant_dim_degree1, stabilizer_action
from .verify import FAIL, render_results, run_checks


def cmd_betti(args) -> int:
    report = assemble(args.space, args.max_degree)
    if args.format == "csv":
        print(report.to_csv(), end="")
    elif args.format == "json":
        print(json.dumps(report.to_document(), indent=2))
    else:
        print(report.to_text(breakdown=args.breakdown))
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        entries = cn.catalog(6)
        width = max(len(e.name) for e in entries)
        print(f"{'name'.ljust(width)}  dim  rank  matroidal  simplicial  basic  generators")
        for e in entries:
            flags = ["yes" if v else "no" for v in (e.matroidal, e.simplicial, e.basic)]
            print(
                f"{e.name.ljust(width)}  {e.dim:>3}  {e.rank:>4}  "
                f"{flags[0]:>9}  {flags[1]:>10}  {flags[2]:>5}  {e.cone.n_generators:>10}"
            )
        return 0
    entry = cn.catalog_entry(args.name)
    print(cn.render_catalog([entry]), end="")
    if args.check_flags:
        fresh = cn.describe(entry.cone)
        keys = ("matroidal", "simplicial", "basic", "dim", "rank")
        for key in keys:
            val, stored = getattr(fresh, key), getattr(entry, key)
            status = "ok" if val == stored else f"MISMATCH (stored {stored})"
            print(f"# recomputed {key} = {val}: {status}")
        if any(getattr(fresh, key) != getattr(entry, key) for key in keys):
            return 1
    return 0


def cmd_stabilizer(args) -> int:
    cone = cn.catalog_cone(args.name)
    action = stabilizer_action(cone)
    print(f"cone {args.name}: stabilizer image on the span of the generators")
    print(f"order: {action.order}")
    orbits = ", ".join("{" + ", ".join(str(i + 1) for i in o) + "}" for o in action.orbits)
    print(f"generator orbits: {orbits}")
    print(f"degree-1 invariant dimension: {invariant_dim_degree1(cone)}")
    return 0


def cmd_molien(args) -> int:
    check_molien_degree(args.max_degree)
    cone = cn.catalog_cone(args.name)
    series = molien(stabilizer_action(cone), args.max_degree)
    print(" ".join(str(c) for c in series.coeffs))
    return 0


def cmd_koszul(args) -> int:
    cone = cn.catalog_cone(args.name)
    report = koszul_check(cone, args.max_total)
    print(f"W rank {report.w_rank}, M rank {report.m_rank}")
    for n, (bottom, expected) in enumerate(zip(report.bottom_row, report.expected_bottom)):
        print(f"strand {n}: bottom row {bottom} (expected {expected}), q>=1 exact")
    if not report.annihilates:
        print("W does not vanish on the cone")
    if report.w_rank != report.m_rank - report.cone_dim:
        print(f"W rank is not M rank minus the cone dimension {report.cone_dim}")
    if report.w_index != 1:
        print(f"W has index {report.w_index} in its saturation")
    print("passed" if report.passed else "FAILED")
    return 0 if report.passed else 1


def cmd_brackets(args) -> int:
    if args.action == "enum":
        for bc in br.enumerate_brackets(args.degree):
            print(br.render_bracket(bc))
        return 0
    if args.action == "multiply":
        print(br.parse_expression(args.expr))
        return 0
    if args.action == "of-cone":
        print(br.cone_to_bracket(cn.catalog_cone(args.name)))
        return 0
    if args.action == "bounds":
        bounds = br.algebra_dimension_bounds(args.degree)
        print(
            f"degree {bounds.degree} boundary algebra: <= {bounds.boundary[2]} "
            f"({bounds.boundary[0]} with lambda factors + {bounds.boundary[1]} pure)"
        )
        print(
            f"degree {bounds.degree} strata algebra:   <= {bounds.strata[2]} "
            f"({bounds.strata[0]} with lambda factors + {bounds.strata[1]} pure)"
        )
        return 0
    # oracle, the last of the fixed subcommand choices
    expanded = br.oracle_expand(args.genus, br.parse_factors(args.expr))
    print(expanded)
    if expanded == br.parse_expression(args.expr).restricted(args.genus):
        print(f"# agrees with multiply restricted to g = {args.genus}")
        return 0
    print("# DISAGREES with multiply")
    return 1


def cmd_strata_count(args) -> int:
    print(br.count_pure_strata(args.degree))
    return 0


def cmd_voronoi(args) -> int:
    if args.action == "enumerate":
        forms = vr.enumerate_perfect(args.genus)
        print(f"{len(forms)} perfect form class(es) at g = {args.genus}")
        print(vr.render_forms(forms), end="")
        return 0
    # faces, the other fixed subcommand choice
    faces = vr.classify_faces(args.genus, args.max_dim)
    entries = [cn.describe(c.with_name(f"face-{k + 1}")) for k, c in enumerate(faces)]
    print(
        f"{len(faces)} inequivalent face class(es) at g = {args.genus}, "
        f"dim <= {args.max_dim}"
    )
    print(cn.render_catalog(entries), end="")
    return 0


def cmd_verify(args) -> int:
    results = run_checks(full_oracle=args.full)
    print(render_results(results))
    return 1 if any(r.status == FAIL for r in results) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfcone",
        description="Exact stable cohomology tables for perfect-cone compactifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="assemble a stable Betti table")
    p.add_argument("--space", required=True,
                   help="perf|matr|simp|smooth|std|satake|partial|beta1|beta2|beta3|universal:<n>")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--breakdown", action="store_true", help="one row per stratum")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("catalog", help="inspect the shipped cone catalog")
    cat_sub = p.add_subparsers(dest="action", required=True)
    cat_sub.add_parser("list")
    show = cat_sub.add_parser("show")
    show.add_argument("name")
    show.add_argument("--check-flags", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("stabilizer", help="stabilizer image of a catalog cone")
    p.add_argument("name")
    p.set_defaults(func=cmd_stabilizer)

    p = sub.add_parser("molien", help="invariant series of a catalog cone")
    p.add_argument("name")
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(func=cmd_molien)

    p = sub.add_parser("koszul", help="Koszul strand check for a catalog cone")
    p.add_argument("name")
    p.add_argument("--max-total", type=int, default=8)
    p.set_defaults(func=cmd_koszul)

    p = sub.add_parser("brackets", help="bracket-class algebra")
    br_sub = p.add_subparsers(dest="action", required=True)
    enum = br_sub.add_parser("enum")
    enum.add_argument("-d", "--degree", type=int, required=True)
    mult = br_sub.add_parser("multiply")
    mult.add_argument("expr")
    ofc = br_sub.add_parser("of-cone")
    ofc.add_argument("name")
    bounds = br_sub.add_parser("bounds")
    bounds.add_argument("-d", "--degree", type=int, required=True)
    oracle = br_sub.add_parser("oracle")
    oracle.add_argument("-g", "--genus", type=int, required=True)
    oracle.add_argument("expr")
    p.set_defaults(func=cmd_brackets)

    p = sub.add_parser("strata-count", help="pure strata monomial count")
    p.add_argument("-d", "--degree", type=int, required=True)
    p.set_defaults(func=cmd_strata_count)

    p = sub.add_parser("voronoi", help="desk-scale Voronoi reduction")
    vr_sub = p.add_subparsers(dest="action", required=True)
    enum_v = vr_sub.add_parser("enumerate")
    enum_v.add_argument("-g", "--genus", type=int, required=True)
    faces = vr_sub.add_parser("faces")
    faces.add_argument("-g", "--genus", type=int, required=True)
    faces.add_argument("--max-dim", type=int, default=6)
    p.set_defaults(func=cmd_voronoi)

    p = sub.add_parser("verify", help="run the acceptance matrix")
    p.add_argument("--full", action="store_true",
                   help="include the g = 5 oracle job for all degree <= 5 products")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
