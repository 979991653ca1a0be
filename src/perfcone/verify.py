"""Named acceptance checks behind the `verify` command.

Each check pins published numbers against recomputation from first
principles.  One discrepancy is expected and surfaced as a flag rather than a
failure: the degree-12 entry of the beta2 row, where the published table and
the published low-degree series for beta2 disagree; the recomputation sides
with the series (19, not 18).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import brackets as br
from . import cones as cn
from . import voronoi as vr
from .betti import Space, assemble, consistency_report, lambda_series, std_identity_check
from .invariants import hilbert_free, koszul_check, molien
from .stabilizers import invariant_dim_degree1, stabilizer_action

PASS, FAIL, FLAG = "PASS", "FAIL", "FLAG"


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    status: str
    detail: str = ""


PUBLISHED_BRACKET_LISTS = {
    3: ["{1^3}", "{1^22}", "{123}", "{123(123)}"],
    4: [
        "{1^4}", "{1^32}", "{1^22^2}", "{1^223(123)}", "{1^223}",
        "{1234(123)}", "{1234(1234)}", "{1234}",
    ],
    5: [
        "{1^5}", "{1^42}", "{1^32^2}", "{1^323}", "{1^323(123)}",
        "{1^22^23}", "{1^22^23(123)}", "{1^2234}", "{1^2234(1234)}",
        "{1^2234(123)}", "{1^2234(234)}", "{12345}", "{12345(12345)}",
        "{12345(1234)}", "{12345(123)}", "{12345(123,145)}",
    ],
    6: [
        "{1^6}", "{1^52}", "{1^42^2}", "{1^32^3}", "{1^423}", "{1^423(123)}",
        "{1^32^23}", "{1^32^23(123)}", "{1^22^23^2}", "{1^22^23^2(123)}",
        "{1^3234}", "{1^3234(1234)}", "{1^3234(123)}", "{1^3234(234)}",
        "{1^22^234}", "{1^22^234(1234)}", "{1^22^234(123)}", "{1^22^234(134)}",
        "{1^22345}", "{1^22345(12345)}", "{1^22345(1234)}", "{1^22345(2345)}",
        "{1^22345(123)}", "{1^22345(234)}", "{1^22345(123,145)}",
        "{1^22345(123,245)}", "{123456}", "{123456(123456)}", "{123456(12345)}",
        "{123456(1234)}", "{123456(1234,1256)}", "{123456(1234,156)}",
        "{123456(123)}", "{123456(123,145)}", "{123456(123,145,246)}",
        "{123456(123,456)}",
    ],
}


def _even(values, upto):
    return tuple(values[k] for k in range(0, upto + 1, 2))


def check_perf_table() -> list[CheckResult]:
    out = []
    report = assemble("perf", 13)
    ok = _even(report.totals, 10) == (1, 2, 4, 9, 18, 38)
    odd_ok = all(report.totals[k] == 0 for k in range(1, 14, 2))
    out.append(
        CheckResult(
            1,
            "perfect-cone stable Betti totals, even degrees 0-10",
            PASS if ok else FAIL,
            f"computed {_even(report.totals, 10)}",
        )
    )
    out.append(
        CheckResult(
            1,
            "perfect-cone odd-degree vanishing through degree 13",
            PASS if odd_ok else FAIL,
        )
    )
    rep = consistency_report()
    if rep.expected_discrepancy_only:
        out.append(
            CheckResult(
                1,
                "degree-12 table cell beta2: computed 19 vs published 18",
                FLAG,
                "expected discrepancy; the published beta2 series gives 19 at "
                "stratum degree 8, the published table says 18",
            )
        )
    else:
        out.append(
            CheckResult(
                1,
                "degree-12 table breakdown",
                FAIL,
                f"unexpected mismatches: {rep.mismatches}",
            )
        )
    return out


def check_matroidal_table() -> list[CheckResult]:
    report = assemble("matr", 12)
    ok = _even(report.totals, 10) == (1, 2, 4, 9, 18, 37)
    out = [
        CheckResult(
            2,
            "matroidal stable Betti totals, even degrees 0-10",
            PASS if ok else FAIL,
            f"computed {_even(report.totals, 10)}",
        )
    ]
    if report.totals[12] == 79:
        out.append(
            CheckResult(
                2,
                "matroidal degree 12: computed 79 vs published 78",
                FLAG,
                "difference is exactly the flagged beta2 cell",
            )
        )
    else:
        out.append(
            CheckResult(2, "matroidal degree 12", FAIL, f"computed {report.totals[12]}")
        )
    return out


def check_beta2() -> list[CheckResult]:
    report = assemble(Space("beta_open", 2), 8)
    ok = _even(report.totals, 8) == (1, 3, 6, 11, 19)
    return [
        CheckResult(
            3,
            "beta2 Betti numbers, degrees 0-8 equal 1,3,6,11,19",
            PASS if ok else FAIL,
            f"computed {_even(report.totals, 8)}",
        )
    ]


def check_bracket_enumeration() -> list[CheckResult]:
    count_name = "bracket-class counts for degrees 1-6 equal 1,2,4,8,16,36"
    list_names = {
        d: f"degree-{d} class set matches the published list item-for-item"
        for d in PUBLISHED_BRACKET_LISTS
    }
    try:
        classes = {d: br.enumerate_brackets(d) for d in range(1, 7)}
    except br.BracketCountError as exc:
        return [CheckResult(4, name, FAIL, str(exc)) for name in [count_name, *list_names.values()]]
    counts = [len(classes[d]) for d in range(1, 7)]
    out = [
        CheckResult(
            4,
            count_name,
            PASS if counts == [1, 2, 4, 8, 16, 36] else FAIL,
            f"computed {counts}",
        )
    ]
    for d, names in PUBLISHED_BRACKET_LISTS.items():
        published = {br.parse_bracket(s) for s in names}
        ok = set(classes[d]) == published and len(published) == len(names)
        out.append(CheckResult(4, list_names[d], PASS if ok else FAIL))
    return out


def check_products(full_oracle: bool = False) -> list[CheckResult]:
    out = []
    cube = br.parse_expression("{1}^3")
    want_cube = br.parse_expression("{1^3}") + br.parse_expression("{1^22}").scale(3) \
        + br.parse_expression("{123}").scale(6) + br.parse_expression("{123(123)}").scale(6)
    out.append(
        CheckResult(
            5,
            "{1}^3 = {1^3} + 3{1^22} + 6{123} + 6{123(123)}",
            PASS if cube == want_cube else FAIL,
        )
    )
    mixed = br.parse_expression("{1}*{12}")
    want_mixed = br.parse_expression("{1^22}") + br.parse_expression("{123}").scale(3) \
        + br.parse_expression("{123(123)}").scale(3)
    out.append(
        CheckResult(
            5,
            "{1}*{12} = {1^22} + 3{123} + 3{123(123)}",
            PASS if mixed == want_mixed else FAIL,
        )
    )
    g = 5 if full_oracle else 4
    max_total = 5 if full_oracle else 4
    classes = [bc for d in range(1, max_total) for bc in br.enumerate_brackets(d)]
    bad = []
    done = set()
    for a, b in itertools.combinations_with_replacement(classes, 2):
        if a.degree + b.degree > max_total:
            continue
        key = tuple(sorted((a.sort_key(), b.sort_key())))
        if key in done:
            continue
        done.add(key)
        product = br.ClassSum.of(a) * br.ClassSum.of(b)
        oracle = br.oracle_expand(g, [a, b])
        restricted = br.ClassSum.from_dict(
            {bc: c for bc, c in product.as_dict().items() if br.representable(bc, g)}
        )
        if oracle != restricted:
            bad.append((str(a), str(b)))
    label = (
        f"multiply vs oracle_expand, all products of total degree <= {max_total} at g = {g}"
    )
    out.append(
        CheckResult(5, label, PASS if not bad else FAIL, f"{len(done)} products checked" if not bad else f"disagreements: {bad}")
    )
    return out


def check_strata_counts() -> list[CheckResult]:
    counts = [br.count_pure_strata(d) for d in (2, 4, 6, 8, 10, 12)]
    out = [
        CheckResult(
            6,
            "strata-monomial counts for degrees 2-12 equal 1,2,4,8,16,37",
            PASS if counts == [1, 2, 4, 8, 16, 37] else FAIL,
            f"computed {counts}",
        )
    ]
    bounds = br.algebra_dimension_bounds(12)
    ok = bounds.boundary == (43, 36, 79) and bounds.strata == (43, 37, 80)
    out.append(
        CheckResult(
            6,
            "degree-12 dimension bounds: boundary (43,36,79), strata (43,37,80)",
            PASS if ok else FAIL,
            f"computed boundary {bounds.boundary}, strata {bounds.strata}",
        )
    )
    return out


def check_stabilizers() -> list[CheckResult]:
    out = []
    orders = {"K3": 6, "C4": 24, "NS": 120}
    got = {name: stabilizer_action(cn.catalog_cone(name)).order for name in orders}
    out.append(
        CheckResult(
            7,
            "stabilizer image orders: K3 -> 6, C4 -> 24, NS -> 120",
            PASS if got == orders else FAIL,
            f"computed {got}",
        )
    )
    std_ok = all(
        stabilizer_action(cn.Cone(i, cn.identity(i))).order == math.factorial(i)
        for i in range(1, 6)
    )
    out.append(
        CheckResult(
            7,
            "standard rank-i stabilizer image has order i! for i <= 5",
            PASS if std_ok else FAIL,
        )
    )
    names = [e.name for e in cn.catalog(6) if e.dim == 5]
    dims = [invariant_dim_degree1(cn.catalog_cone(n)) for n in names]
    out.append(
        CheckResult(
            7,
            "codimension-5 invariant dimensions equal 2,2,2,1,1,1",
            PASS if dims == [2, 2, 2, 1, 1, 1] else FAIL,
            f"{dict(zip(names, dims))}",
        )
    )
    return out


def check_molien_suite() -> list[CheckResult]:
    out = []
    full_sym = {"1+1": 2, "K3": 3, "C4": 4, "1+1+1": 3, "1+1+1+1": 4, "NS": 5, "1+1+1+1+1": 5}
    ok = True
    for name, k in full_sym.items():
        action = stabilizer_action(cn.catalog_cone(name))
        if action.order != math.factorial(k):
            ok = False
            break
        try:
            series = molien(action, 8)
        except ValueError:
            ok = False
            break
        if series.coeffs != hilbert_free(range(1, k + 1), 8).coeffs:
            ok = False
            break
    out.append(
        CheckResult(
            8,
            "molien equals hilbert_free for the full-symmetric catalog actions",
            PASS if ok else FAIL,
        )
    )
    # Coefficients are nonnegative by construction; integrality is what can
    # fail, as a Molien sum not divisible by the group order.
    not_integral = []
    for e in cn.catalog(6):
        if e.cone is None:
            continue
        try:
            molien(stabilizer_action(e.cone), 8)
        except ValueError as exc:
            not_integral.append(f"{e.name}: {exc}")
    out.append(
        CheckResult(
            8,
            "molien coefficients are nonnegative integers (catalog, depth 8)",
            PASS if not not_integral else FAIL,
            "; ".join(not_integral),
        )
    )
    koszul_ok = True
    failing = []
    for e in cn.catalog(5):
        if e.cone is None:
            continue
        rep = koszul_check(e.cone, 8)
        if not rep.passed:
            koszul_ok = False
            failing.append(e.name)
    out.append(
        CheckResult(
            8,
            "koszul strands exact for q >= 1 with Sym(M/W) bottom rows, "
            "all catalog cones of dim <= 5, total degree <= 8",
            PASS if koszul_ok else FAIL,
            "" if koszul_ok else f"failing: {failing}",
        )
    )
    return out


def check_series_identities() -> list[CheckResult]:
    out = [
        CheckResult(
            9,
            "standard-cones Euler identity to degree 20",
            PASS if std_identity_check(20) else FAIL,
        )
    ]
    same = assemble(Space("universal", 1), 20).totals == assemble("partial", 20).totals
    out.append(
        CheckResult(
            9,
            "universal(1) equals the Mumford partial compactification to degree 20",
            PASS if same else FAIL,
        )
    )
    sat = assemble("satake", 30).totals == lambda_series(30).coeffs
    out.append(
        CheckResult(9, "satake equals the lambda series to degree 30", PASS if sat else FAIL)
    )
    return out


def check_voronoi() -> list[CheckResult]:
    out = []
    counts = {g: len(vr.enumerate_perfect(g)) for g in (2, 3, 4)}
    ok = counts == {2: 1, 3: 1, 4: 2}
    out.append(
        CheckResult(
            10,
            "perfect-form classes: 1 for g = 2 and 3, 2 for g = 4",
            PASS if ok else FAIL,
            f"computed {counts}",
        )
    )
    g3 = vr.classify_faces(3, 6)
    g4 = vr.classify_faces(4, 6)
    n3 = sum(1 for c in g3 if cn.cone_dim(c) == 6 and cn.cone_rank(c) == 3)
    n4 = sum(1 for c in g4 if cn.cone_dim(c) == 6 and cn.cone_rank(c) == 4)
    out.append(
        CheckResult(
            10,
            "dimension-6 face classes: 1 of rank 3 at g = 3, 4 of rank 4 at g = 4",
            PASS if (n3, n4) == (1, 4) else FAIL,
            f"computed ({n3}, {n4})",
        )
    )
    catalog_small = [e for e in cn.catalog(6) if e.cone is not None and e.dim <= 5]
    matched = True
    for faces in (vr.classify_faces(2, 6), g3, g4):
        for c in faces:
            if cn.cone_dim(c) > 5:
                continue
            hits = [e for e in catalog_small if cn.cones_equivalent(c, e.cone) is not None]
            if len(hits) != 1:
                matched = False
    out.append(
        CheckResult(
            10,
            "every g <= 4 face of dim <= 5 matches exactly one catalog entry",
            PASS if matched else FAIL,
        )
    )
    return out


def check_cone_to_bracket() -> list[CheckResult]:
    want = {
        "K3": "{123(123)}",
        "C4": "{1234(1234)}",
        "K3+1": "{1234(123)}",
        "K4-1": "{12345(123,145)}",
        "C5": "{12345(12345)}",
        "NS": "{12345(12345)}",
    }
    ok = all(
        br.cone_to_bracket(cn.catalog_cone(name)) == br.parse_bracket(s)
        for name, s in want.items()
    )
    return [
        CheckResult(
            11,
            "cone-to-bracket dictionary on the named cones",
            PASS if ok else FAIL,
        )
    ]


def check_matroidal_flags() -> list[CheckResult]:
    ok = True
    for e in cn.catalog(6):
        if e.cone is None or e.dim > 5:
            continue
        if cn.is_matroidal(e.cone) != (e.name != "NS"):
            ok = False
    return [
        CheckResult(
            12,
            "matroidal predicate: NS false, all other named dim <= 5 cones true",
            PASS if ok else FAIL,
        )
    ]


def run_checks(full_oracle: bool = False) -> list[CheckResult]:
    results: list[CheckResult] = []
    results += check_perf_table()
    results += check_matroidal_table()
    results += check_beta2()
    results += check_bracket_enumeration()
    results += check_products(full_oracle=full_oracle)
    results += check_strata_counts()
    results += check_stabilizers()
    results += check_molien_suite()
    results += check_series_identities()
    results += check_voronoi()
    results += check_cone_to_bracket()
    results += check_matroidal_flags()
    return results


def render_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        line = f"criterion {r.criterion:>2}  [{r.status}]  {r.name}"
        if r.detail:
            line += f"  -- {r.detail}"
        lines.append(line)
    fails = sum(1 for r in results if r.status == FAIL)
    flags = sum(1 for r in results if r.status == FLAG)
    if fails:
        lines.append(f"result: {fails} check(s) FAILED")
    else:
        suffix = f" ({flags} expected discrepancy flagged)" if flags else ""
        lines.append(f"result: all checks pass{suffix}")
    return "\n".join(lines)
