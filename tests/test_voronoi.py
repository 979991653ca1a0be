import itertools
import random

import pytest

from perfcone import cones as cn
from perfcone import matrices as mx
from perfcone import voronoi as vr


A2 = ((2, 1), (1, 2))
D4 = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))


def brute_short(matrix, radius, bound):
    """Oracle: scan an explicit coordinate box."""
    n = len(matrix)
    out = []
    for x in itertools.product(range(-radius, radius + 1), repeat=n):
        if not any(x):
            continue
        v = sum(matrix[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if v <= bound:
            out.append((v, mx.sign_canonical(x)))
    return sorted(set(out))


def test_min_vectors_identity():
    q = vr.QuadraticForm(2, ((1, 0), (0, 1)))
    mu, vecs = vr.min_vectors(q)
    assert mu == 1
    assert set(vecs) == {(1, 0), (0, 1)}


def test_min_vectors_a2():
    q = vr.QuadraticForm(2, A2)
    mu, vecs = vr.min_vectors(q)
    assert mu == 2
    assert len(vecs) == 3
    expected = {v for val, v in brute_short(A2, 2, 2) if val == 2}
    assert set(vecs) == expected


def test_min_vectors_d4():
    q = vr.QuadraticForm(4, D4)
    mu, vecs = vr.min_vectors(q)
    assert mu == 2
    assert len(vecs) == 12
    expected = {v for val, v in brute_short(D4, 2, 2) if val == 2}
    assert set(vecs) == expected


def test_min_vectors_random_forms_match_brute_force():
    rng = random.Random(29)
    count = 0
    while count < 8:
        b = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        m = [[sum(b[k][i] * b[k][j] for k in range(3)) + (i == j) for j in range(3)] for i in range(3)]
        m = tuple(tuple(x) for x in m)
        q = vr.QuadraticForm(3, m)
        mu, vecs = vr.min_vectors(q)
        ref = brute_short(m, 4, mu)
        assert {v for val, v in ref if val == mu} == set(vecs)
        assert all(val >= mu for val, _ in ref)
        count += 1


def test_rejects_non_positive_definite():
    with pytest.raises(ValueError):
        vr.QuadraticForm(2, ((1, 2), (2, 1)))


def test_domain_a2_is_k3():
    p = vr.perfect_form(A2)
    c = vr.domain(p)
    assert cn.cone_dim(c) == 3
    assert cn.cones_equivalent(c, cn.catalog_cone("K3")) is not None


def test_domain_rejects_imperfect_form():
    # diag(1, 2) has minimum 1 with the single vector e1: not perfect
    p = vr.perfect_form(((1, 0), (0, 2)))
    with pytest.raises(ValueError):
        vr.domain(p)


def test_a2_neighbors_close_up():
    p = vr.perfect_form(A2)
    c = vr.domain(p)
    fs = vr.facets(c)
    assert len(fs) == 3  # simplicial: one facet per ray
    for f in fs:
        q = vr.neighbor(p, f)
        assert vr.equivalent_forms(p, q)


def test_genus3_domain_is_the_dim6_graphical_cone():
    p = vr.first_perfect_form(3)
    c = vr.domain(p)
    assert len(c.generators) == 6
    assert cn.cone_dim(c) == 6
    assert cn.cones_equivalent(c, cn.catalog_cone("K4")) is not None


def test_neighbor_walk_is_symmetric():
    # crossing back over the shared facet returns to an equivalent form
    p = vr.first_perfect_form(3)
    c = vr.domain(p)
    facet = vr.facets(c)[0]
    shared = {p.min_vectors[i] for i in facet.rays}
    q = vr.neighbor(p, facet)
    back = None
    for f2 in vr.facets(vr.domain(q)):
        if {q.min_vectors[i] for i in f2.rays} == shared:
            back = vr.neighbor(q, f2)
            break
    assert back is not None
    assert vr.equivalent_forms(back, p)


def test_walk_forms_are_perfect():
    for g in (2, 3):
        for p in vr.enumerate_perfect(g):
            c = vr.domain(p)  # raises when not perfect
            assert cn.cone_dim(c) == g * (g + 1) // 2


def test_equivalence_scaled_and_conjugated():
    p = vr.perfect_form(A2)
    doubled = vr.perfect_form(tuple(tuple(2 * x for x in row) for row in A2))
    assert vr.equivalent_forms(p, doubled)
    u = ((1, 1), (0, 1))
    moved = tuple(
        tuple(sum(u[k][i] * A2[k][l] * u[l][j] for k in range(2) for l in range(2)) for j in range(2))
        for i in range(2)
    )
    assert vr.equivalent_forms(p, vr.perfect_form(moved))


def test_equivalence_of_d4_with_doubled_conjugate():
    u = ((1, 1, 0, 0), (0, 1, 0, 1), (1, 1, 1, 0), (0, 0, 0, 1))
    assert mx.det(u) in (1, -1)
    moved = tuple(
        tuple(
            sum(u[k][i] * 2 * D4[k][l] * u[l][j] for k in range(4) for l in range(4))
            for j in range(4)
        )
        for i in range(4)
    )
    conjugate = vr.perfect_form(moved)
    assert conjugate.form.matrix != D4
    assert vr.equivalent_forms(vr.perfect_form(D4), conjugate)


def test_a4_d4_not_equivalent():
    a4 = vr.first_perfect_form(4)
    d4 = vr.perfect_form(D4)
    assert len(a4.min_vectors) == 10
    assert len(d4.min_vectors) == 12
    assert not vr.equivalent_forms(a4, d4)


def test_enumerate_perfect_small_genus():
    assert len(vr.enumerate_perfect(1)) == 1
    assert len(vr.enumerate_perfect(2)) == 1
    assert len(vr.enumerate_perfect(3)) == 1


@pytest.mark.slow
def test_enumerate_perfect_genus4():
    forms = vr.enumerate_perfect(4)
    assert len(forms) == 2
    # the two classes are the walk start and the 12-pair form
    counts = sorted(len(p.min_vectors) for p in forms)
    assert counts == [10, 12]
    assert any(vr.equivalent_forms(p, vr.perfect_form(D4)) for p in forms)


def test_enumerate_rejects_large_genus():
    with pytest.raises(ValueError):
        vr.enumerate_perfect(5)


@pytest.mark.slow
def test_classify_faces_g4_matches_catalog():
    faces = vr.classify_faces(4, 6)
    # no non-simplicial behavior this far from codimension 10
    assert all(cn.is_simplicial(c) for c in faces)
    dim6rank4 = [c for c in faces if cn.cone_dim(c) == 6 and cn.cone_rank(c) == 4]
    assert len(dim6rank4) == 4
    catalog_small = [e for e in cn.catalog(6) if e.cone is not None and e.dim <= 5]
    matched = set()
    for c in faces:
        if cn.cone_dim(c) <= 5:
            names = [
                e.name for e in catalog_small if cn.cones_equivalent(c, e.cone) is not None
            ]
            assert len(names) == 1, (cn.cone_dim(c), cn.cone_rank(c))
            matched.add(names[0])
    # all catalog entries of rank <= 4 appear among the faces
    assert matched == {
        "1", "1+1", "K3", "1+1+1", "1+1+1+1", "K3+1", "C4",
        "K4-1", "K3+1+1", "C4+1", "C5",
    }


def test_classify_faces_g2():
    faces = vr.classify_faces(2, 6)
    key = [(cn.cone_dim(c), cn.cone_rank(c)) for c in faces]
    assert key == [(1, 1), (2, 2), (3, 2)]
    for c, name in zip(faces, ("1", "1+1", "K3")):
        assert cn.cones_equivalent(c, cn.catalog_cone(name)) is not None


def test_classify_faces_g3_matches_catalog():
    faces = vr.classify_faces(3, 6)
    # dimension 6 rank 3: exactly one class (the full domain)
    top = [c for c in faces if cn.cone_dim(c) == 6 and cn.cone_rank(c) == 3]
    assert len(top) == 1
    assert cn.cones_equivalent(top[0], cn.catalog_cone("K4")) is not None
    # every face of dim <= 5 matches a catalog entry of rank <= 3
    catalog_small = [e for e in cn.catalog(6) if e.cone is not None and e.dim <= 5]
    for c in faces:
        if cn.cone_dim(c) <= 5:
            matches = [
                e.name for e in catalog_small if cn.cones_equivalent(c, e.cone) is not None
            ]
            assert len(matches) == 1
    names = set()
    for c in faces:
        if cn.cone_dim(c) <= 5:
            for e in catalog_small:
                if cn.cones_equivalent(c, e.cone) is not None:
                    names.add(e.name)
    assert names == {"1", "1+1", "K3", "1+1+1", "K3+1", "C4", "K4-1"}


def test_render_forms_roundtrip():
    text = vr.render_forms([vr.perfect_form(A2)])
    parsed = cn.parse_catalog(text)
    assert len(parsed) == 1
    assert parsed[0].dim == 3
    assert cn.cones_equivalent(parsed[0].cone, cn.catalog_cone("K3")) is not None
