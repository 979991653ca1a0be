import itertools
import random
from fractions import Fraction

import pytest

from perfcone import brackets as br
from perfcone import cones as cn
from perfcone.matrices import f2_kernel


def cs(text):
    return br.parse_expression(text)


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


def test_codes_have_minimum_weight_3():
    for d in range(1, 7):
        for bc in br.enumerate_brackets(d):
            for v in bc.code:
                assert bin(v).count("1") >= 3


def test_parse_rejects_bad_classes():
    with pytest.raises(ValueError):
        br.parse_bracket("{12(12)}")  # weight-2 relation
    with pytest.raises(ValueError):
        br.parse_bracket("{1 1 2}")  # repeated index
    with pytest.raises(ValueError):
        br.parse_bracket("{1 3}")  # gap in indices


def test_render_parse_roundtrip():
    for d in range(1, 7):
        for bc in br.enumerate_brackets(d):
            assert br.parse_bracket(br.render_bracket(bc)) == bc


def test_parse_accepts_spaced_and_compact_forms():
    assert br.parse_bracket("{1^2 2 3 4 (1234)}") == br.parse_bracket("{1^2234(1234)}")


def test_square_of_boundary():
    got = cs("{1}*{1}")
    assert got == cs("{1^2}") + cs("{12}").scale(2)


def test_cube_of_boundary_matches_published_expansion():
    got = cs("{1}^3")
    want = (
        cs("{1^3}")
        + cs("{1^22}").scale(3)
        + cs("{123}").scale(6)
        + cs("{123(123)}").scale(6)
    )
    assert got == want


def test_boundary_times_beta2_matches_published_expansion():
    got = cs("{1}*{12}")
    want = cs("{1^22}") + cs("{123}").scale(3) + cs("{123(123)}").scale(3)
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
        if e.cone is None:
            continue
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


def tuple_oracle_expand(g, factors):
    """Oracle: the expansion with monomials as sorted (vector, exponent) tuples."""
    poly = {(): 1}
    for bc in factors:
        fact = {m: 1 for m in br.realize_class(bc, g)}
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


def test_oracle_detects_unequal_coefficients(monkeypatch):
    boundary = br.parse_bracket("{1}")
    realize = br.realize_class

    def drop_one(bc, g):
        monomials = realize(bc, g)
        return monomials[1:] if bc == boundary else monomials

    monkeypatch.setattr(br, "realize_class", drop_one)
    with pytest.raises(AssertionError, match="different coefficients"):
        br.oracle_expand(3, [boundary, br.parse_bracket("{12}")])


def test_oracle_rejects_total_degree_above_6():
    # the cap keeps every packed exponent below 8, so keys add without carries
    with pytest.raises(ValueError, match="total degree 6"):
        br.oracle_expand(4, [br.parse_bracket("{1^4}"), br.parse_bracket("{1^3}")])


def test_packed_class_reads_whole_fields():
    # exponent 6 in the highest field at g = 6
    assert br._packed_class(br._pack([(63, 6)])) == br.parse_bracket("{1^6}")
    # D1 D2^2 times D3 D1^2 is D1^3 D2^2 D3, and 1 + 2 = 3 in F2^2
    key = br._pack([(1, 1), (2, 2)]) + br._pack([(3, 1), (1, 2)])
    assert br._packed_class(key) == br.parse_bracket("{1^32^23(123)}")


def test_enumeration_rejects_degree_above_bound():
    with pytest.raises(ValueError, match="through degree 7"):
        br.enumerate_brackets(8)


def test_parse_factors_expands_powers():
    one, two = br.parse_bracket("{1}"), br.parse_bracket("{12}")
    assert br.parse_factors(" {1}^2 * {12} ") == [one, one, two]
    assert br.parse_factors("") == []
    with pytest.raises(ValueError, match="through degree 7"):
        br.parse_factors("{1}^8")
