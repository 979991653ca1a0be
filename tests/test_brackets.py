import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from perfcone import brackets as br
from perfcone import cones as cn
from perfcone import verify
from perfcone.matrices import f2_kernel


def cs(text):
    return br.parse_expression(text)


def class_sum(terms):
    """The sum of the classes named by the keys, with the values as
    coefficients."""
    return br.ClassSum.from_dict({br.parse_bracket(s): c for s, c in terms.items()})


def test_enumeration_counts():
    assert [len(br.enumerate_brackets(d)) for d in range(1, 7)] == [1, 2, 4, 8, 16, 36]


def test_degree3_classes_match_published_list():
    expected = {br.parse_bracket(s) for s in ("{1^3}", "{1^22}", "{123}", "{123(123)}")}
    assert set(br.enumerate_brackets(3)) == expected


def test_degree4_classes_match_published_list():
    names = [
        "{1^4}",
        "{1^32}",
        "{1^22^2}",
        "{1^223(123)}",
        "{1^223}",
        "{1234(123)}",
        "{1234(1234)}",
        "{1234}",
    ]
    assert set(br.enumerate_brackets(4)) == {br.parse_bracket(s) for s in names}


def test_degree5_classes_match_published_list():
    names = [
        "{1^5}", "{1^42}", "{1^32^2}", "{1^323}", "{1^323(123)}",
        "{1^22^23}", "{1^22^23(123)}", "{1^2234}", "{1^2234(1234)}",
        "{1^2234(123)}", "{1^2234(234)}", "{12345}", "{12345(12345)}",
        "{12345(1234)}", "{12345(123)}", "{12345(123,145)}",
    ]
    assert len(names) == 16
    assert set(br.enumerate_brackets(5)) == {br.parse_bracket(s) for s in names}


def test_degree6_classes_match_published_list():
    names = [
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
    ]
    assert len(names) == 36
    parsed = {br.parse_bracket(s) for s in names}
    assert len(parsed) == 36
    assert set(br.enumerate_brackets(6)) == parsed


@pytest.mark.filterwarnings("ignore:bracket classes of degree 7")
def test_codes_have_minimum_weight_3():
    for d in range(1, 8):
        for bc in br.enumerate_brackets(d):
            for v in bc.code:
                assert bin(v).count("1") >= 3


BAD_BRACKETS = [
    "{123(120)}",  # relation digit 0
    "{1^0}",  # exponent 0
    "{12(12)}",  # weight-2 relation
    "{1^}",  # dangling exponent
    "{1 (12}",  # unclosed relation group
    "{1 1 2}",  # repeated index
    "{1 3}",  # gap in indices
    "{(123)}",  # relation with no indices
    "1 2",  # no braces
]


def test_parse_rejects_bad_classes():
    # every rejection names the text, the class's own checks included
    for text in BAD_BRACKETS:
        with pytest.raises(ValueError) as caught:
            br.parse_bracket(text)
        assert repr(text) in str(caught.value), text


@pytest.mark.filterwarnings("ignore:bracket classes of degree 7")
def test_render_parse_roundtrip():
    for d in range(1, 8):
        for bc in br.enumerate_brackets(d):
            assert br.parse_bracket(br.render_bracket(bc)) == bc


def test_render_rejects_classes_past_one_digit():
    # a cone in Z^4 with ten distinct residues mod 2 would render as
    # "{1 2 ... 10 (...)}", which parses back as a repeated index 1; the class
    # is built directly, since `canonical_bracket` refuses ten indices
    ten = [v for v in itertools.product((0, 1), repeat=4) if any(v)][:10]
    wide = br.BracketClass((1,) * 10, frozenset(f2_kernel([cn.vector_bitmask(v) for v in ten])))
    with pytest.raises(ValueError, match=r"one digit \(at most 9\): \((1, ){9}1\)"):
        br.render_bracket(wide)
    with pytest.raises(ValueError, match=r"one digit \(at most 9\): \(10,\)"):
        br.render_bracket(br.canonical_bracket([10], []))
    assert br.render_bracket(br.canonical_bracket([9], [])) == "{1^9}"


def test_canonical_bracket_rejects_ten_indices_before_the_orbit_walk(monkeypatch):
    # the same ten residues through `cone_to_bracket`: without the bound its
    # orbit walk visits 151 200 codes (over 20 s) and returns a class that
    # `render_bracket` refuses
    ten = [v for v in itertools.product((0, 1), repeat=4) if any(v)][:10]
    monkeypatch.setattr(br, "_orbit", lambda *a: pytest.fail("orbit walked"))
    with pytest.raises(ValueError, match=r"at most 9 indices \(one digit each\), got 10"):
        br.cone_to_bracket(cn.Cone(4, ten))


def test_parse_accepts_spaced_and_compact_forms():
    assert br.parse_bracket("{1^2 2 3 4 (1234)}") == br.parse_bracket("{1^2234(1234)}")


def test_square_of_boundary():
    got = cs("{1}*{1}")
    assert got == class_sum({"{1^2}": 1, "{12}": 2})


def test_cube_of_boundary_matches_published_expansion():
    got = cs("{1}^3")
    want = class_sum({"{1^3}": 1, "{1^22}": 3, "{123}": 6, "{123(123)}": 6})
    assert got == want


def test_boundary_times_beta2_matches_published_expansion():
    got = cs("{1}*{12}")
    want = class_sum({"{1^22}": 1, "{123}": 3, "{123(123)}": 3})
    assert got == want


def test_multiply_commutative_and_associative():
    rng = random.Random(17)
    degree_le_2 = [br.parse_bracket(s) for s in ("{1}", "{1^2}", "{12}")]
    for _ in range(6):
        a, b, c = (br.ClassSum.of(rng.choice(degree_le_2)) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_unit_class():
    assert cs("") == br.ClassSum.unit()
    assert br.ClassSum.unit() * cs("{12}") == cs("{12}")


def test_cone_to_bracket_identities():
    assert br.cone_to_bracket(cn.catalog_cone("K3")) == br.parse_bracket("{123(123)}")
    assert br.cone_to_bracket(cn.catalog_cone("C4")) == br.parse_bracket("{1234(1234)}")
    assert br.cone_to_bracket(cn.catalog_cone("K3+1")) == br.parse_bracket("{1234(123)}")
    assert br.cone_to_bracket(cn.catalog_cone("K4-1")) == br.parse_bracket("{12345(123,145)}")
    c5 = br.cone_to_bracket(cn.catalog_cone("C5"))
    ns = br.cone_to_bracket(cn.catalog_cone("NS"))
    assert c5 == ns == br.parse_bracket("{12345(12345)}")


def test_cone_to_bracket_repeated_residues():
    c = cn.Cone(2, [(1, 0), (1, 2)])
    assert br.cone_to_bracket(c) == br.parse_bracket("{1^2}")


def test_cone_to_bracket_all_catalog_cones_valid():
    for e in cn.catalog(6):
        bc = br.cone_to_bracket(e.cone)
        assert bc.degree == e.dim, e.name


def test_count_pure_strata():
    assert [br.count_pure_strata(d) for d in (2, 4, 6, 8, 10, 12)] == [1, 2, 4, 8, 16, 37]


def test_algebra_dimension_bounds():
    b12 = br.algebra_dimension_bounds(12)
    assert b12.boundary == (43, 36, 79)
    assert b12.strata == (43, 37, 80)
    b10 = br.algebra_dimension_bounds(10)
    assert b10.boundary == (21, 16, 37)
    assert b10.strata == (21, 16, 37)
    # below degree 10 the two algebras agree; the degree-0 unit term is the
    # lambda coefficient alone
    for d, both in ((2, (1, 1, 2)), (4, (2, 2, 4)), (6, (5, 4, 9)), (8, (10, 8, 18))):
        bounds = br.algebra_dimension_bounds(d)
        assert (bounds.boundary, bounds.strata) == (both, both), d


def test_oracle_square_at_g3():
    got = br.oracle_expand(3, [br.parse_bracket("{1}")] * 2)
    assert got == cs("{1}*{1}")


def test_oracle_empty_product():
    assert br.oracle_expand(3, []) == br.ClassSum.unit()


def test_oracle_boundary_times_beta2_at_g4():
    got = br.oracle_expand(4, [br.parse_bracket("{1}"), br.parse_bracket("{12}")])
    assert got == cs("{1}*{12}")


def test_oracle_restriction_at_small_g():
    # at g = 2 the classes needing 3 independent indices disappear
    got = br.oracle_expand(2, [br.parse_bracket("{1}")] * 3)
    full = cs("{1}^3").as_dict()
    expected = {bc: c for bc, c in full.items() if br.representable(bc, 2)}
    assert got.as_dict() == expected


def test_representable():
    assert br.representable(br.parse_bracket("{123}"), 3)
    assert not br.representable(br.parse_bracket("{123}"), 2)
    assert br.representable(br.parse_bracket("{123(123)}"), 2)


def _tuple_monomial_class(monomial):
    ordered = sorted(monomial, key=lambda t: (-t[1], t[0]))
    vectors = [v for v, _ in ordered]
    pattern = tuple(e for _, e in ordered)
    return br.canonical_bracket(pattern, f2_kernel(vectors))


@functools.lru_cache(maxsize=None)
def _tuple_pattern_monomials(pattern, g):
    """Oracle: the monomials with the exponent pattern over distinct nonzero
    vectors of F2^g, one per unordered choice, as (vector, exponent) tuples
    sorted by (-exponent, vector), grouped by `_tuple_monomial_class`."""
    grouped = {}
    for vectors in itertools.combinations(range(1, 1 << g), len(pattern)):
        for exponents in set(itertools.permutations(pattern)):
            monomial = tuple(sorted(zip(vectors, exponents), key=lambda t: (-t[1], t[0])))
            grouped.setdefault(_tuple_monomial_class(monomial), []).append(monomial)
    return grouped


def tuple_monomials(bc, g):
    """Oracle: the class's monomials over F2^g as (vector, exponent) tuples."""
    return _tuple_pattern_monomials(bc.exponents, g).get(bc, [])


def _pack(monomial):
    """Packed key of an explicit monomial ((vector, exponent), ...)."""
    return sum(e << (3 * v) for v, e in monomial)


def tuple_oracle_expand(g, factors):
    """Oracle: the expansion with monomials as sorted (vector, exponent) tuples."""
    poly = {(): 1}
    for bc in factors:
        fact = {m: 1 for m in tuple_monomials(bc, g)}
        new = {}
        for m1, c1 in poly.items():
            d1 = dict(m1)
            for m2, c2 in fact.items():
                combined = dict(d1)
                for v, e in m2:
                    combined[v] = combined.get(v, 0) + e
                key = tuple(sorted(combined.items(), key=lambda t: (-t[1], t[0])))
                new[key] = new.get(key, 0) + c1 * c2
        poly = new
    by_class = {}
    for monomial, coeff in poly.items():
        bc = _tuple_monomial_class(monomial) if monomial else br.UNIT
        by_class.setdefault(bc, set()).add(coeff)
    data = {}
    for bc, coeffs in by_class.items():
        assert len(coeffs) == 1, (bc, coeffs)
        data[bc] = coeffs.pop()
    return br.ClassSum.from_dict(data)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_packed_oracle_matches_tuple_oracle(g):
    classes = [bc for d in range(1, 5) for bc in br.enumerate_brackets(d)]
    pairs = [
        (a, b)
        for a, b in itertools.combinations_with_replacement(classes, 2)
        if a.degree + b.degree <= 5
    ]
    assert len(pairs) == 26
    for a, b in pairs:
        assert br.oracle_expand(g, [a, b]) == tuple_oracle_expand(g, [a, b]), (g, a, b)


@pytest.mark.parametrize("g", [2, 3])
def test_packed_oracle_matches_tuple_oracle_on_three_factors(g):
    # {1}*{1} holds each D_v D_w twice, so a third factor takes the
    # convolution's pass for a running coefficient other than 1
    classes = [bc for d in (1, 2) for bc in br.enumerate_brackets(d)]
    products = [
        factors
        for factors in itertools.product(classes, repeat=3)
        if sum(bc.degree for bc in factors) <= 4
    ]
    assert len(products) == 7
    for factors in products:
        assert br.oracle_expand(g, factors) == tuple_oracle_expand(g, factors), (g, factors)


def test_oracle_detects_unequal_coefficients(monkeypatch):
    boundary = br.parse_bracket("{1}")
    realize = br.realize_class

    def drop_one(bc, g):
        monomials = realize(bc, g)
        return monomials[1:] if bc == boundary else monomials

    monkeypatch.setattr(br, "realize_class", drop_one)
    with pytest.raises(AssertionError, match="different coefficients"):
        br.oracle_expand(3, [boundary, br.parse_bracket("{12}")])


@pytest.mark.parametrize("g", [2, 3, 4])
def test_class_monomial_count_matches_listed_monomials(g):
    for d in range(1, 7):
        for bc in br.enumerate_brackets(d):
            assert br._class_monomial_count(bc, g) == len(br.realize_class(bc, g)), (g, bc)
    assert br._class_monomial_count(br.UNIT, g) == 1


def _drop_vector_1(monkeypatch):
    # every key with a nonzero field for vector 1 goes: the remaining
    # monomials of each class still share one coefficient
    realize = br.realize_class
    monkeypatch.setattr(
        br, "realize_class", lambda bc, g: [k for k in realize(bc, g) if not k >> 3 & 7]
    )


@pytest.mark.parametrize(
    "g,left,right", [(3, "{1}", "{12}"), (4, "{1}", "{12}"), (4, "{12}", "{123}"), (3, "{1}", "{1}")]
)
def test_oracle_detects_missing_monomials(monkeypatch, g, left, right):
    _drop_vector_1(monkeypatch)
    with pytest.raises(br.OracleCompletenessError, match="distinct monomials"):
        br.oracle_expand(g, [br.parse_bracket(left), br.parse_bracket(right)])


def test_verify_reports_missing_oracle_monomials_as_fail(monkeypatch):
    _drop_vector_1(monkeypatch)
    results = [verify.run_row(r) for r in verify.rows() if r.criterion == 5]
    failed = [r for r in results if r.status == verify.FAIL]
    assert [r.name for r in failed] == [
        "multiply vs oracle_expand, all products of total degree <= 4 at g = 4"
    ]
    assert failed[0].detail.startswith("OracleCompletenessError: the product has ")


def test_oracle_lists_nothing_for_a_factor_without_monomials(monkeypatch):
    monkeypatch.setattr(br, "realize_class", lambda *a: pytest.fail("listed"))
    # {123} needs three independent indices
    assert br.oracle_expand(2, [br.parse_bracket("{1}"), br.parse_bracket("{123}")]) == br.ClassSum(())


def test_oracle_rejects_total_degree_above_6():
    # the cap keeps every packed exponent below 8, so keys add without carries
    with pytest.raises(ValueError, match="total degree 6"):
        br.oracle_expand(4, [br.parse_bracket("{1^4}"), br.parse_bracket("{1^3}")])


@pytest.mark.parametrize("g", [2, 3, 4])
def test_pattern_count_matches_listed_monomials(g):
    by_pattern = {}
    for d in range(1, 5):
        for bc in br.enumerate_brackets(d):
            by_pattern.setdefault(bc.exponents, []).append(bc)
    for pattern, classes in by_pattern.items():
        listed = sum(len(br.realize_class(bc, g)) for bc in classes)
        assert br._pattern_count(pattern, g) == listed, pattern


@pytest.mark.parametrize("g", [2, 3, 4])
def test_realize_class_lists_the_packed_tuple_monomials(g):
    for d in range(1, 6):
        for bc in br.enumerate_brackets(d):
            expected = sorted(_pack(m) for m in tuple_monomials(bc, g))
            assert sorted(br.realize_class(bc, g)) == expected, (g, bc)


def packed_class(key):
    """Class of a packed key through the oracle's key -> class id table."""
    return br._class_ids.classes[br._class_ids[key]]


def test_packed_class_reads_whole_fields():
    # exponent 6 in the highest field at g = 6
    assert packed_class(_pack([(63, 6)])) == br.parse_bracket("{1^6}")
    # D1 D2^2 times D3 D1^2 is D1^3 D2^2 D3, and 1 + 2 = 3 in F2^2
    key = _pack([(1, 1), (2, 2)]) + _pack([(3, 1), (1, 2)])
    assert packed_class(key) == br.parse_bracket("{1^32^23(123)}")
    assert packed_class(0) == br.UNIT


def decoded_class(key):
    """Oracle: read the packed fields one by one, order the vectors by
    (-exponent, vector) and classify by the F2 kernel of that order."""
    fields = []
    while key:
        v = ((key & -key).bit_length() - 1) // 3
        e = key >> (3 * v) & 7
        key -= e << (3 * v)
        fields.append((-e, v))
    fields.sort()
    vectors = [v for _, v in fields]
    pattern = tuple(-e for e, _ in fields)
    return br.canonical_bracket(pattern, f2_kernel(vectors))


def _monomial_keys(pool, max_degree):
    for d in range(max_degree + 1):
        for vectors in itertools.combinations_with_replacement(pool, d):
            yield sum(1 << (3 * v) for v in vectors)


def test_packed_class_matches_decoding_oracle_on_every_small_monomial():
    keys = list(_monomial_keys(range(1, 16), 6))
    assert len(keys) == 54264
    # at g = 6, D_63 times monomials in vectors some of which sum to 63
    pool = (1, 2, 3, 12, 15, 16, 32, 48, 51, 60)
    keys += [(e << 189) + k for e in range(1, 7) for k in _monomial_keys(pool, 6 - e)]
    assert len(keys) == 54264 + 4368
    for key in keys:
        assert packed_class(key) == decoded_class(key), oct(key)


def test_verify_reports_unequal_oracle_coefficients_as_fail(monkeypatch):
    boundary = br.parse_bracket("{1}")
    realize = br.realize_class

    # one monomial twice: every monomial of the product is still there, so
    # only the coefficients can tell (a dropped one fails the completeness
    # check first, at {1}*{1})
    def repeat_one(bc, g):
        monomials = realize(bc, g)
        return monomials + monomials[:1] if bc == boundary else monomials

    monkeypatch.setattr(br, "realize_class", repeat_one)
    results = [verify.run_row(r) for r in verify.rows() if r.criterion == 5]
    failed = [r for r in results if r.status == verify.FAIL]
    assert [r.name for r in failed] == [
        "multiply vs oracle_expand, all products of total degree <= 4 at g = 4"
    ]
    assert failed[0].detail.startswith("OracleCoefficientError: monomials of class {")
    assert "different coefficients" in failed[0].detail
    assert verify.render_results(results).endswith("result: 1 check(s) FAILED")


def _parts(split):
    return tuple(sorted((e for e in split if e), reverse=True))


def all_splits(c, a, b):
    """Oracle: every exponent split of c whose halves have the sorted nonzero
    exponents of a and of b."""
    out = []
    for split in itertools.product(*(range(e + 1) for e in c.exponents)):
        rest = tuple(e - s for e, s in zip(c.exponents, split))
        if _parts(split) == a.exponents and _parts(rest) == b.exponents:
            out.append(split)
    return out


def all_splits_constants(a, b):
    """Oracle: the structure constants from every exponent split."""
    if not a.exponents:
        return ((b, 1),)
    if not b.exponents:
        return ((a, 1),)
    out = []
    for c in br.enumerate_brackets(a.degree + b.degree):
        count = sum(
            1
            for split in all_splits(c, a, b)
            if br._subtype(c, split) == a
            and br._subtype(c, tuple(e - s for e, s in zip(c.exponents, split))) == b
        )
        if count:
            out.append((c, count))
    return tuple(out)


def test_structure_constants_match_all_splits_oracle():
    classes = [bc for d in range(1, 6) for bc in br.enumerate_brackets(d)]
    pairs = [
        (a, b)
        for a, b in itertools.combinations_with_replacement(classes, 2)
        if a.degree + b.degree <= 6
    ]
    assert len(pairs) == 68
    for a, b in pairs:
        assert br._structure_constants(a, b) == all_splits_constants(a, b), (a, b)
    one = br.parse_bracket("{1^22}")
    for a, b in ((br.UNIT, one), (one, br.UNIT), (br.UNIT, br.UNIT)):
        assert br._structure_constants(a, b) == all_splits_constants(a, b)


def _nontrivial_splits(c):
    """Every exponent split of c with two nonempty halves."""
    splits = itertools.product(*(range(e + 1) for e in c.exponents))
    return [s for s in splits if any(s) and s != c.exponents]


@pytest.mark.filterwarnings("ignore:bracket classes of degree 7")
def test_split_table_counts_every_ordered_split_once():
    for d in range(2, 8):
        for c in br.enumerate_brackets(d):
            table = br._split_table(c)
            assert sum(table.values()) == math.prod(e + 1 for e in c.exponents) - 2, c


def test_each_split_is_enumerated_and_typed_once(monkeypatch, fresh_bracket_caches):
    classes = [bc for d in range(1, 6) for bc in br.enumerate_brackets(d)]
    pairs = [
        (a, b)
        for a, b in itertools.combinations_with_replacement(classes, 2)
        if a.degree + b.degree <= 6
    ]
    assert len(pairs) == 68
    typed = []
    subtype = br._subtype
    monkeypatch.setattr(br, "_subtype", lambda c, split: typed.append((c, split)) or subtype(c, split))
    for a, b in pairs:
        br.ClassSum.of(a) * br.ClassSum.of(b)
    products = [c for d in range(2, 7) for c in br.enumerate_brackets(d)]
    assert br._split_table.cache_info().misses == len(products) == 66
    # {s, e - s} is one unordered split, and s = e - s only when every e_j is even
    unordered = sum(
        (len(_nontrivial_splits(c)) + all(e % 2 == 0 for e in c.exponents)) // 2
        for c in products
    )
    assert len(typed) == 2 * unordered
    assert set(typed) == {(c, s) for c in products for s in _nontrivial_splits(c)}


def test_enumeration_rejects_degree_above_bound():
    with pytest.raises(ValueError, match="through degree 7"):
        br.enumerate_brackets(8)


def test_parse_factors_expands_powers():
    one, two = br.parse_bracket("{1}"), br.parse_bracket("{12}")
    assert br.parse_factors(" {1}^2 * {12} ") == [one, one, two]
    assert br.parse_factors("") == []
    with pytest.raises(ValueError, match="through degree 7"):
        br.parse_factors("{1}^8")


# ---------------------------------------------------------------------------
# Orbit walk, subspace generation and the Burnside count against brute force
# ---------------------------------------------------------------------------


def _pattern_permutations(exponents):
    """Oracle: every permutation of the positions preserving the pattern."""
    blocks = {}
    for j, e in enumerate(exponents):
        blocks.setdefault(e, []).append(j)
    perms = [tuple(range(len(exponents)))]
    for positions in blocks.values():
        new = []
        for base in perms:
            for img in itertools.permutations(positions):
                p = list(base)
                for src, dst in zip(positions, img):
                    p[src] = base[dst]
                new.append(tuple(p))
        perms = new
    return perms


def brute_canonical(exponents, code):
    """Oracle: sort the positions by exponent, then minimize the sorted code
    over the whole pattern group, one permutation at a time."""
    order = sorted(range(len(exponents)), key=lambda j: (-exponents[j], j))
    to_sorted = [0] * len(exponents)
    for newpos, j in enumerate(order):
        to_sorted[j] = newpos
    pattern = tuple(exponents[j] for j in order)
    moved = [br._remap(v, to_sorted) for v in br._span(code)]
    best = min(
        tuple(sorted(br._remap(v, perm) for v in moved))
        for perm in _pattern_permutations(pattern)
    )
    return br.BracketClass(pattern, frozenset(best))


@functools.lru_cache(maxsize=None)
def bfs_weight3_subspaces(l):
    """Oracle: weight->=3 subspaces of F2^l by a breadth-first search over
    spans, which meets each subspace once per basis order."""
    good = [v for v in range(1, 1 << l) if bin(v).count("1") >= 3]
    good_set = set(good)
    seen = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        span = frontier.pop()
        for v in good:
            if v in span:
                continue
            new_vecs = {v ^ x for x in span} | {v}
            if not new_vecs <= good_set:
                continue
            fs = frozenset(span | new_vecs)
            if fs not in seen:
                seen.add(fs)
                frontier.append(fs)
    return seen


@pytest.mark.parametrize("l", range(1, 8))
def test_weight3_subspaces_match_bfs_oracle(l):
    got = br._weight3_subspaces(l)
    assert len(got) == len(set(got)) == [1, 1, 2, 6, 32, 248, 2960][l - 1]
    assert set(got) == bfs_weight3_subspaces(l)


@pytest.mark.parametrize("d", range(1, 7))
def test_canonical_bracket_matches_brute_force_on_every_subspace(d):
    for pattern in br._partitions(d):
        classes = set()
        for code in bfs_weight3_subspaces(len(pattern)):
            want = brute_canonical(pattern, code)
            assert br.canonical_bracket(pattern, code) == want, (pattern, sorted(code))
            classes.add(want)
        assert br._burnside_class_count(pattern) == len(classes), pattern


def test_canonical_bracket_matches_brute_force_on_random_kernels():
    rng = random.Random(6)
    for _ in range(300):
        vectors = rng.sample(range(1, 16), rng.randint(1, 6))
        exponents = [rng.randint(1, 3) for _ in vectors]
        kernel = f2_kernel(vectors)
        want = brute_canonical(exponents, kernel)
        assert br.canonical_bracket(exponents, kernel) == want, (vectors, exponents)


@pytest.mark.filterwarnings("ignore:bracket classes of degree 7")
def test_burnside_count_matches_enumeration_per_pattern():
    for d in range(1, 8):
        classes = br.enumerate_brackets(d)
        for pattern in br._partitions(d):
            found = sum(1 for bc in classes if bc.exponents == pattern)
            assert br._burnside_class_count(pattern) == found, pattern
        assert len(classes) == sum(map(br._burnside_class_count, br._partitions(d)))


# sha256 of repr([(exponents, sorted code), ...]) for enumerate_brackets(7) as
# computed by the permutation-list canonicalizer this module keeps as oracle
DEGREE7_SHA256 = "da9640a7eec0a31b78bdf714b56c34f8835b6e9188f52f14dbff2ee66a824355"


def test_degree7_enumeration_warns_and_matches_recorded_classes():
    with pytest.warns(UserWarning, match="unvalidated beyond degree 6"):
        classes = br.enumerate_brackets.__wrapped__(7)
    assert len(classes) == 80
    listing = repr([(bc.exponents, tuple(sorted(bc.code))) for bc in classes])
    assert hashlib.sha256(listing.encode()).hexdigest() == DEGREE7_SHA256


def _drop_last_swap(monkeypatch):
    swaps = br._block_swaps
    monkeypatch.setattr(br, "_block_swaps", lambda exponents: swaps(exponents)[:-1])


def test_orbit_walk_missing_a_transposition_fails_the_count(monkeypatch, fresh_bracket_caches):
    _drop_last_swap(monkeypatch)
    with pytest.raises(br.BracketCountError, match=r"pattern \(1, 1, 1, 1\).* 4 classes.* 3"):
        br.enumerate_brackets(4)


def test_verify_reports_count_error_as_fail(monkeypatch, fresh_bracket_caches):
    _drop_last_swap(monkeypatch)
    results = [verify.run_row(r) for r in verify.rows() if r.criterion == 4]
    assert len(results) == 5
    # the degree-3 codes, none and (123), are fixed by every swap: that list still matches
    assert [r.status for r in results] == [verify.FAIL, verify.PASS] + [verify.FAIL] * 3
    assert results[0].detail == (
        "BracketCountError: pattern (1, 1, 1, 1): the orbit walk finds 4 classes, Burnside counts 3"
    )
    text = verify.render_results(results)
    assert "criterion  4  [FAIL]  bracket-class counts for degrees 1-6" in text
    assert "criterion  4  [FAIL]  degree-6 class set matches the published list" in text
    assert text.endswith("result: 4 check(s) FAILED")


def test_each_orbit_is_walked_once(monkeypatch, fresh_bracket_caches):
    for d in range(1, 7):
        br.enumerate_brackets(d)
    patterns = [p for d in range(1, 7) for p in br._partitions(d)]
    expected = {
        (p, code): br.BracketClass(p, br._least(br._orbit(p, code)))
        for p in patterns
        for code in br._weight3_subspaces(len(p))
    }
    walks = []
    orbit = br._orbit
    monkeypatch.setattr(br, "_orbit", lambda *a: walks.append(a) or orbit(*a))
    for (p, code), want in expected.items():
        assert br.canonical_bracket(p, code) == want, (p, sorted(code))
    assert walks == []
    # every class, sub-monomial and product monomial of the benchmark's 68
    # products at g = 4, classified afresh, meets only orbits already walked
    monkeypatch.setattr(br, "_class_ids", br._ClassIds())
    classes = [bc for d in range(1, 6) for bc in br.enumerate_brackets(d)]
    for a, b in itertools.combinations_with_replacement(classes, 2):
        if a.degree + b.degree <= 6:
            product = br.ClassSum.of(a) * br.ClassSum.of(b)
            assert br.oracle_expand(4, [a, b]) == product.restricted(4)
    assert walks == []
