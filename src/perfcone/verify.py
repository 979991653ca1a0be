"""Named acceptance checks behind the `verify` command.

`rows` is one ordered table: each row pins published numbers against
recomputation from first principles, and `run_row` turns it into a
`CheckResult`.  Two discrepancies are expected and surfaced as flags rather
than failures:

- the degree-12 entry of the beta2 row, where the published table and the
  published low-degree series for beta2 disagree; the recomputation sides
  with the series (19, not 18);
- the matroidal total in degree 12, computed 79 against the published 78,
  which differs by exactly that beta2 cell.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import brackets as br
from . import cones as cn
from . import voronoi as vr
from .betti import assemble, lambda_series, std_identity_check
from .invariants import koszul_check, molien
from .series import product_free
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


class Row(NamedTuple):
    """One acceptance check: `check()` returns (status, detail)."""

    criterion: int
    label: str
    check: Callable[[], tuple[str, str]]


def _verdict(ok: bool, detail: str = "") -> tuple[str, str]:
    return PASS if ok else FAIL, detail


def _computed(got, want) -> tuple[str, str]:
    return _verdict(got == want, f"computed {got}")


def _beta2_cell() -> tuple[str, str]:
    mismatches = table_mismatches()
    beta2_degree8 = assemble("beta2", 8).totals[8]
    if mismatches == (("beta2", 12, 19, 18),) and beta2_degree8 == PUBLISHED_BETA2_LOW_DEGREES[-1]:
        return FLAG, (
            "expected discrepancy; the published beta2 series gives 19 at "
            "stratum degree 8, the published table says 18"
        )
    return FAIL, f"unexpected mismatches: {mismatches}; beta2 stratum degree 8: {beta2_degree8}"


def _matroidal_degree12() -> tuple[str, str]:
    total = assemble("matr", 12).totals[12]
    if total == 79:
        return FLAG, "difference is exactly the flagged beta2 cell"
    return FAIL, f"computed {total}"


def _published_list(d: int) -> tuple[str, str]:
    names = PUBLISHED_BRACKET_LISTS[d]
    published = {br.parse_bracket(s) for s in names}
    return _verdict(set(br.enumerate_brackets(d)) == published and len(published) == len(names))


def _expands_to(expression: str, terms: dict[str, int]) -> tuple[str, str]:
    want = br.ClassSum.from_dict({br.parse_bracket(s): c for s, c in terms.items()})
    return _verdict(br.parse_expression(expression) == want)


def _products_vs_oracle(g: int) -> tuple[str, str]:
    """Every product of total degree <= g against the oracle at genus g."""
    classes = [bc for d in range(1, g) for bc in br.enumerate_brackets(d)]
    pairs = [
        (a, b)
        for a, b in itertools.combinations_with_replacement(classes, 2)
        if a.degree + b.degree <= g
    ]
    bad = [
        (str(a), str(b))
        for a, b in pairs
        if br.oracle_expand(g, [a, b]) != (br.ClassSum.of(a) * br.ClassSum.of(b)).restricted(g)
    ]
    return _verdict(not bad, f"disagreements: {bad}" if bad else f"{len(pairs)} products checked")


def _dimension_bounds() -> tuple[str, str]:
    bounds = br.algebra_dimension_bounds(12)
    return _verdict(
        bounds.boundary == (43, 36, 79) and bounds.strata == (43, 37, 80),
        f"computed boundary {bounds.boundary}, strata {bounds.strata}",
    )


def _codim5_invariants() -> tuple[str, str]:
    names = [e.name for e in cn.catalog(6) if e.dim == 5]
    dims = [invariant_dim_degree1(cn.catalog_cone(n)) for n in names]
    return _verdict(dims == [2, 2, 2, 1, 1, 1], f"{dict(zip(names, dims))}")


FULL_SYMMETRIC = {
    "1+1": 2, "K3": 3, "C4": 4, "1+1+1": 3, "1+1+1+1": 4, "NS": 5,
    "1+1+1+1+1": 5, "1+1+1+1+1+1": 6,
}


def _full_symmetric_molien(series) -> tuple[str, str]:
    for name, k in FULL_SYMMETRIC.items():
        cone = cn.catalog_cone(name)
        want = product_free(range(1, k + 1), 8).coeffs
        try:
            ok = stabilizer_action(cone).order == math.factorial(k) and series(cone) == want
        except ValueError:  # a Molien sum not divisible by the group order
            ok = False
        if not ok:
            return FAIL, f"fails on {name}"
    return PASS, ""


def _molien_integral(series) -> tuple[str, str]:
    # Coefficients are nonnegative by construction; integrality is what can
    # fail, as a Molien sum not divisible by the group order.
    not_integral = []
    for e in cn.catalog(6):
        try:
            series(e.cone)
        except ValueError as exc:
            not_integral.append(f"{e.name}: {exc}")
    return _verdict(not not_integral, "; ".join(not_integral))


def _koszul_all() -> tuple[str, str]:
    failing = [e.name for e in cn.catalog(6) if not koszul_check(e.cone, 8).passed]
    return _verdict(not failing, f"failing: {failing}" if failing else "")


def _dim6_faces(faces) -> tuple[str, str]:
    n3 = sum(1 for c in faces(3) if cn.cone_dim(c) == 6 and cn.cone_rank(c) == 3)
    n4 = sum(1 for c in faces(4) if cn.cone_dim(c) == 6 and cn.cone_rank(c) == 4)
    return _verdict((n3, n4) == (1, 4), f"computed ({n3}, {n4})")


def _faces_in_catalog(faces) -> tuple[str, str]:
    small = cn.catalog(5)
    return _verdict(
        all(
            sum(1 for e in small if cn.cones_equivalent(c, e.cone) is not None) == 1
            for g in (2, 3, 4)
            for c in faces(g)
            if cn.cone_dim(c) <= 5
        )
    )


CONE_BRACKETS = {
    "K3": "{123(123)}",
    "C4": "{1234(1234)}",
    "K3+1": "{1234(123)}",
    "K4-1": "{12345(123,145)}",
    "C5": "{12345(12345)}",
    "NS": "{12345(12345)}",
}


def _matroidal_flags() -> tuple[str, str]:
    wrong = [e.name for e in cn.catalog(6) if cn.is_matroidal(e.cone) != e.matroidal]
    return _verdict(not wrong, f"disagrees on {wrong}" if wrong else "")


def rows(full_oracle: bool = False) -> list[Row]:
    """The acceptance table in criterion order; `full_oracle` widens the
    criterion-5 oracle comparison to total degree 5 at g = 5."""
    n = 5 if full_oracle else 4
    # each shared by two rows of one run
    series = functools.cache(lambda cone: molien(stabilizer_action(cone), 8).coeffs)
    faces = functools.cache(lambda g: vr.classify_faces(g, 6))
    return [
        Row(1, "perfect-cone stable Betti totals, even degrees 0-10",
            lambda: _computed(_even(assemble("perf", 13).totals, 10), (1, 2, 4, 9, 18, 38))),
        Row(1, "perfect-cone odd-degree vanishing through degree 13",
            lambda: _verdict(not any(assemble("perf", 13).totals[1::2]))),
        Row(1, "degree-12 table cell beta2: computed 19 vs published 18", _beta2_cell),
        Row(2, "matroidal stable Betti totals, even degrees 0-10",
            lambda: _computed(_even(assemble("matr", 12).totals, 10), (1, 2, 4, 9, 18, 37))),
        Row(2, "matroidal degree 12: computed 79 vs published 78", _matroidal_degree12),
        Row(3, "beta2 Betti numbers, degrees 0-8 equal 1,3,6,11,19",
            lambda: _computed(_even(assemble("beta2", 8).totals, 8), PUBLISHED_BETA2_LOW_DEGREES)),
        Row(4, "bracket-class counts for degrees 1-6 equal 1,2,4,8,16,36",
            lambda: _computed([len(br.enumerate_brackets(d)) for d in range(1, 7)],
                              [1, 2, 4, 8, 16, 36])),
        *(
            Row(4, f"degree-{d} class set matches the published list item-for-item",
                functools.partial(_published_list, d))
            for d in PUBLISHED_BRACKET_LISTS
        ),
        Row(5, "{1}^3 = {1^3} + 3{1^22} + 6{123} + 6{123(123)}",
            functools.partial(_expands_to, "{1}^3",
                              {"{1^3}": 1, "{1^22}": 3, "{123}": 6, "{123(123)}": 6})),
        Row(5, "{1}*{12} = {1^22} + 3{123} + 3{123(123)}",
            functools.partial(_expands_to, "{1}*{12}", {"{1^22}": 1, "{123}": 3, "{123(123)}": 3})),
        Row(5, f"multiply vs oracle_expand, all products of total degree <= {n} at g = {n}",
            functools.partial(_products_vs_oracle, n)),
        Row(6, "strata-monomial counts for degrees 2-12 equal 1,2,4,8,16,37",
            lambda: _computed([br.count_pure_strata(d) for d in range(2, 13, 2)],
                              [1, 2, 4, 8, 16, 37])),
        Row(6, "degree-12 dimension bounds: boundary (43,36,79), strata (43,37,80)",
            _dimension_bounds),
        Row(7, "stabilizer image orders: K3 -> 6, C4 -> 24, NS -> 120",
            lambda: _computed({name: stabilizer_action(cn.catalog_cone(name)).order
                               for name in ("K3", "C4", "NS")}, {"K3": 6, "C4": 24, "NS": 120})),
        Row(7, "standard rank-i stabilizer image has order i! for i <= 6",
            lambda: _verdict(all(stabilizer_action(cn.Cone(i, cn.identity(i))).order
                                 == math.factorial(i) for i in range(1, 7)))),
        Row(7, "codimension-5 invariant dimensions equal 2,2,2,1,1,1", _codim5_invariants),
        Row(8, "molien equals hilbert_free for the full-symmetric catalog actions",
            functools.partial(_full_symmetric_molien, series)),
        Row(8, "molien coefficients are nonnegative integers (catalog, depth 8)",
            functools.partial(_molien_integral, series)),
        Row(8, "koszul strands exact for q >= 1 with Sym(M/W) bottom rows, "
               "all 26 catalog cones, total degree <= 8", _koszul_all),
        Row(9, "standard-cones Euler identity to degree 20",
            lambda: _verdict(std_identity_check(20))),
        Row(9, "universal(1) equals the Mumford partial compactification to degree 20",
            lambda: _verdict(assemble("universal:1", 20).totals == assemble("partial", 20).totals)),
        Row(9, "satake equals the lambda series to degree 30",
            lambda: _verdict(assemble("satake", 30).totals == lambda_series(30).coeffs)),
        Row(10, "perfect-form classes: 1 for g = 2 and 3, 2 for g = 4",
            lambda: _computed({g: len(vr.enumerate_perfect(g)) for g in (2, 3, 4)},
                              {2: 1, 3: 1, 4: 2})),
        Row(10, "dimension-6 face classes: 1 of rank 3 at g = 3, 4 of rank 4 at g = 4",
            functools.partial(_dim6_faces, faces)),
        Row(10, "every g <= 4 face of dim <= 5 matches exactly one catalog entry",
            functools.partial(_faces_in_catalog, faces)),
        Row(11, "cone-to-bracket dictionary on the named cones",
            lambda: _verdict(all(br.cone_to_bracket(cn.catalog_cone(name)) == br.parse_bracket(s)
                                 for name, s in CONE_BRACKETS.items()))),
        Row(12, "matroidal predicate matches the published flag of all 26 catalog cones",
            _matroidal_flags),
    ]


def run_row(row: Row) -> CheckResult:
    """The row's result.  A broken internal invariant becomes a FAIL of the
    row naming the error: the package has no assert statements, so each
    `AssertionError` it raises is a named one (`StabilizerGroupError`,
    `BracketCountError`, `OracleCoefficientError`, `OracleCompletenessError`,
    `NeighborSearchError`)."""
    try:
        status, detail = row.check()
    except AssertionError as exc:
        status, detail = FAIL, f"{type(exc).__name__}: {exc}"
    return CheckResult(row.criterion, row.label, status, detail)


def run_checks(full_oracle: bool = False) -> list[CheckResult]:
    """Every row of the acceptance table, in criterion order."""
    return [run_row(row) for row in rows(full_oracle)]


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
