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

from . import brackets as br
from . import cones as cn
from . import voronoi as vr
from .betti import assemble, lambda_series, std_identity_check
from .invariants import koszul_check, molien
from .series import product_free
from .stabilizers import StabilizerGroupError, invariant_dim_degree1, stabilizer_action

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

PUBLISHED_TABLE_DEGREES = (0, 2, 4, 6, 8, 10, 12)

PUBLISHED_TABLE = {
    "interior": (1, 1, 1, 2, 2, 3, 4),
    "beta1": (0, 1, 2, 3, 5, 7, 10),
    "beta2": (0, 0, 1, 3, 6, 11, 18),
    "sigma-1+1+1": (0, 0, 0, 1, 2, 4, 8),
    "codim4": (0, 0, 0, 0, 3, 7, 15),
    "codim5": (0, 0, 0, 0, 0, 6, 15),
    "codim6": (0, 0, 0, 0, 0, 0, 13),
}

PUBLISHED_BETA2_LOW_DEGREES = (1, 3, 6, 11, 19)


def table_mismatches() -> tuple[tuple[str, int, int, int], ...]:
    """(row, degree, computed, published) for each published table cell that
    the strata of `assemble("perf", 12)` do not reproduce; the one expected
    is beta2 in degree 12, reported and never patched over."""
    by_name = dict(assemble("perf", 12).rows)
    strata = {
        "interior": ["interior"], "beta1": ["1"], "beta2": ["1+1", "K3"],
        "sigma-1+1+1": ["1+1+1"],
    }
    for dim in (4, 5, 6):
        strata[f"codim{dim}"] = [e.name for e in cn.catalog(6) if e.dim == dim]
    out = []
    for row, values in PUBLISHED_TABLE.items():
        for d, want in zip(PUBLISHED_TABLE_DEGREES, values):
            got = sum(by_name[name][d] for name in strata[row])
            if got != want:
                out.append((row, d, got, want))
    return tuple(out)


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
    mismatches = table_mismatches()
    beta2_degree8 = assemble("beta2", 8).totals[8]
    if mismatches == (("beta2", 12, 19, 18),) and (
        beta2_degree8 == PUBLISHED_BETA2_LOW_DEGREES[-1] == 19
    ):
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
                f"unexpected mismatches: {mismatches}",
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
    report = assemble("beta2", 8)
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
    pairs = [
        (a, b)
        for a, b in itertools.combinations_with_replacement(classes, 2)
        if a.degree + b.degree <= max_total
    ]
    for a, b in pairs:
        product = br.ClassSum.of(a) * br.ClassSum.of(b)
        oracle = br.oracle_expand(g, [a, b])
        if oracle != product.restricted(g):
            bad.append((str(a), str(b)))
    label = (
        f"multiply vs oracle_expand, all products of total degree <= {max_total} at g = {g}"
    )
    out.append(
        CheckResult(5, label, PASS if not bad else FAIL, f"{len(pairs)} products checked" if not bad else f"disagreements: {bad}")
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
    detail = ""
    for name, k in full_sym.items():
        try:
            action = stabilizer_action(cn.catalog_cone(name))
        except StabilizerGroupError as exc:
            ok, detail = False, str(exc)
            break
        if action.order != math.factorial(k):
            ok = False
            break
        try:
            series = molien(action, 8)
        except ValueError:
            ok = False
            break
        if series.coeffs != product_free(range(1, k + 1), 8).coeffs:
            ok = False
            break
    out.append(
        CheckResult(
            8,
            "molien equals hilbert_free for the full-symmetric catalog actions",
            PASS if ok else FAIL,
            detail,
        )
    )
    # Coefficients are nonnegative by construction; integrality is what can
    # fail, as a Molien sum not divisible by the group order.
    not_integral = []
    for e in cn.catalog(6):
        try:
            molien(stabilizer_action(e.cone), 8)
        except (ValueError, StabilizerGroupError) as exc:
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
    same = assemble("universal:1", 20).totals == assemble("partial", 20).totals
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
    catalog_small = cn.catalog(5)
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
    entries = cn.catalog(6)
    wrong = [e.name for e in entries if cn.is_matroidal(e.cone) != e.matroidal]
    return [
        CheckResult(
            12,
            f"matroidal predicate matches the published flag of all {len(entries)} catalog cones",
            FAIL if wrong else PASS,
            f"disagrees on {wrong}" if wrong else "",
        )
    ]


def run_checks(full_oracle: bool = False) -> list[CheckResult]:
    """Every check in criterion order.  A broken internal invariant raised by a
    check becomes a FAIL row naming the check and the error: the package has
    no assert statements, so each `AssertionError` it raises is a named one
    (`StabilizerGroupError`, `BracketCountError`, `OracleCoefficientError`,
    `NeighborSearchError`)."""
    checks = [
        (1, check_perf_table, {}),
        (2, check_matroidal_table, {}),
        (3, check_beta2, {}),
        (4, check_bracket_enumeration, {}),
        (5, check_products, {"full_oracle": full_oracle}),
        (6, check_strata_counts, {}),
        (7, check_stabilizers, {}),
        (8, check_molien_suite, {}),
        (9, check_series_identities, {}),
        (10, check_voronoi, {}),
        (11, check_cone_to_bracket, {}),
        (12, check_matroidal_flags, {}),
    ]
    results: list[CheckResult] = []
    for criterion, check, kwargs in checks:
        try:
            results += check(**kwargs)
        except AssertionError as exc:
            detail = f"{type(exc).__name__}: {exc}"
            results.append(CheckResult(criterion, f"{check.__name__} raised", FAIL, detail))
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
