import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from perfcone import cones as cn
from perfcone import matrices as mx
from perfcone import polyhedral as ph
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


# ---------------------------------------------------------------------------
# Oracle: the Fraction Cholesky recursion that found shortest vectors and
# decided positive-definiteness before the integer LDL^T search.
# ---------------------------------------------------------------------------


def fraction_cholesky(matrix):
    """Q(x) = sum_i d_i (x_i + sum_{j>i} l_ij x_j)^2, exact."""
    n = len(matrix)
    a = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    l = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(i + 1, n):
            l[i][j] = a[i][j] / d[i]
        for r in range(i + 1, n):
            for s in range(r, n):
                a[r][s] -= a[i][r] * a[i][s] / d[i]
                a[s][r] = a[r][s]
    return d, l


def fraction_short_vectors(matrix, bound):
    """All x != 0 (up to sign) with Q(x) <= bound, with exact values."""
    n = len(matrix)
    d, l = fraction_cholesky(matrix)
    results = []
    x = [0] * n

    def rec(i, remaining):
        if i < 0:
            if any(x):
                v = tuple(x)
                if mx.sign_canonical(v) == v:
                    results.append((bound - remaining, v))
            return
        center = sum(l[i][j] * x[j] for j in range(i + 1, n))

        def contribution(xi):
            return d[i] * (xi + center) ** 2

        # the admissible x_i form an interval around -center: scan outward
        base = math.floor(-center)
        xi = base
        while contribution(xi) <= remaining:
            x[i] = xi
            rec(i - 1, remaining - contribution(xi))
            xi -= 1
        xi = base + 1
        while contribution(xi) <= remaining:
            x[i] = xi
            rec(i - 1, remaining - contribution(xi))
            xi += 1
        x[i] = 0

    rec(n - 1, bound)
    return results


def fraction_min(matrix):
    """Oracle: (minimum, minimal vectors up to sign), or None unless the
    rational form is positive definite."""
    try:
        fraction_cholesky(matrix)
    except ValueError:
        return None
    bound = min(Fraction(matrix[i][i]) for i in range(len(matrix)))
    shorts = fraction_short_vectors(matrix, bound)
    best = min(v for v, _ in shorts)
    return best, tuple(sorted(vec for val, vec in shorts if val == best))


def integral(matrix):
    """(S * matrix, S) for the least S > 0 that makes the rational matrix
    integral: forms in the package are integer matrices only."""
    scale = math.lcm(*(Fraction(x).denominator for row in matrix for x in row))
    return [[int(x * scale) for x in row] for row in matrix], scale


def positive_definite(m):
    """`QuadraticForm`'s verdict on the symmetric integer matrix m."""
    try:
        vr.QuadraticForm(len(m), m)
    except ValueError as e:
        assert str(e) == "form is not positive definite"
        return False
    return True


def integer_min(matrix):
    """The integer path on a rational form, in the oracle's terms."""
    m, scale = integral(matrix)
    found = vr._minimum(m)
    if found is None:
        return None
    best, vecs = found
    return Fraction(best, scale), vecs


def random_rational_symmetric(rng, n):
    """A rational symmetric matrix, positive definite about two times in
    three: B^T B plus a positive diagonal, or B + B^T."""
    b = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.6:
        return [
            [
                sum(b[k][i] * b[k][j] for k in range(n))
                + (Fraction(1, rng.randint(1, 3)) if i == j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
    return [[b[i][j] + b[j][i] for j in range(n)] for i in range(n)]


def assert_matches_fraction_oracle(matrix):
    expected = fraction_min(matrix)
    assert positive_definite(integral(matrix)[0]) == (expected is not None), matrix
    assert integer_min(matrix) == expected, matrix


def test_integer_search_matches_fraction_oracle_on_random_forms():
    rng = random.Random(47)
    verdicts = []
    for _ in range(400):
        matrix = random_rational_symmetric(rng, rng.randint(1, 4))
        assert_matches_fraction_oracle(matrix)
        verdicts.append(positive_definite(integral(matrix)[0]))
    assert 100 < sum(verdicts) < 350


def fraction_neighbor(p, facet, pencils):
    """Oracle: the line search of `neighbor` over `Fraction`, on the Fraction
    shortest-vector search; each form Q + rho*R it tries goes to pencils."""
    g, q, mu = p.form.g, p.form.matrix, p.minimum
    r = vr._normal_form_matrix(facet.normal, g)
    facet_set = {p.min_vectors[i] for i in facet.rays}
    rho, good, bad = Fraction(1), Fraction(0), None
    for _ in range(1000):
        m = [[q[i][j] + rho * r[i][j] for j in range(g)] for i in range(g)]
        pencils.append(m)
        found = fraction_min(m)
        if found is None:
            bad, rho = rho, (good + rho) / 2
            continue
        mur, vecs = found
        if mur == mu:
            if any(v not in facet_set for v in vecs):
                return vr.perfect_form(integral(m)[0])
            good = rho
            rho = (good + bad) / 2 if bad is not None else 2 * rho
            continue
        crossings = [
            Fraction(mu - vr._form_value(q, v), vr._form_value(r, v))
            for v in vecs
            if vr._form_value(r, v) < 0
        ]
        assert mur < mu and good < min(crossings) <= rho
        bad, rho = rho, min(crossings)
    raise AssertionError("Fraction line search did not terminate")


def primitive(matrix):
    content = math.gcd(*(x for row in matrix for x in row))
    return [[x // content for x in row] for row in matrix]


def test_integer_search_matches_fraction_oracle_on_neighbor_pencils(monkeypatch):
    # every facet of every g <= 4 walk domain: the integer search tries the
    # same pencils, each scaled to d*Q + n*R, and finds the same neighbor
    search = vr._minimum
    pencils = []
    monkeypatch.setattr(vr, "_minimum", lambda m: pencils.append(m) or search(m))
    total = 0
    for g in (2, 3, 4):
        for p in vr.enumerate_perfect(g):
            for facet in vr.facets(p):
                if mx.rank([p.min_vectors[i] for i in facet.rays]) != g:
                    continue
                expected = []
                oracle = fraction_neighbor(p, facet, expected)
                pencils.clear()
                assert vr.neighbor(p, facet) == oracle
                # the last search is `perfect_form`'s, on the neighbor itself
                assert pencils[-1] == oracle.form.matrix
                tried = pencils[:-1]
                assert len(tried) == len(expected)
                for m, f in zip(tried, expected):
                    assert all(type(x) is int for row in m for x in row)
                    assert primitive(m) == primitive(integral(f)[0])
                    assert_matches_fraction_oracle(m)
                total += len(tried)
    assert total > 50


def leading_minors_positive(matrix):
    n = len(matrix)
    return all(mx.det(tuple(tuple(row[:k]) for row in matrix[:k])) > 0 for k in range(1, n + 1))


HYPERBOLIC_SUM = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))


@pytest.mark.parametrize(
    "matrix",
    [
        HYPERBOLIC_SUM,  # indefinite, though pivoting elimination sees det +1
        ((1, 1), (1, 1)),  # singular positive semidefinite
        ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),  # singular positive semidefinite
        ((1, 2), (2, 1)),
        ((-1,),),
        ((0,),),
        A2,
        D4,
    ],
)
def test_positive_definite_verdict_is_sylvester(matrix):
    assert positive_definite(matrix) == leading_minors_positive(matrix)
    assert integer_min(matrix) == fraction_min(matrix)


def test_pivoting_elimination_cannot_decide_positive_definiteness():
    # why `_ldl` does not reuse `matrices._bareiss`: with row swaps the
    # indefinite hyperbolic sum shows positive pivots and sign +1
    m = [list(row) for row in HYPERBOLIC_SUM]
    pivots, sign = mx._bareiss(m, 4)
    assert (len(pivots), sign) == (4, 1)
    assert all(m[k][k] > 0 for k in range(4))
    assert vr._ldl(HYPERBOLIC_SUM) is None


def test_positive_definite_verdicts_on_random_integer_forms():
    rng = random.Random(53)
    for _ in range(300):
        n = rng.randint(1, 4)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m = tuple(tuple(b[i][j] + b[j][i] + rng.randint(0, 4) * (i == j) for j in range(n)) for i in range(n))
        assert positive_definite(m) == leading_minors_positive(m), m


def test_ldl_rows_give_the_form():
    # diagonal = leading minors, and Q(x) = sum_k (row_k . x)^2 / (D_k D_{k+1})
    rng = random.Random(59)
    for _ in range(50):
        n = rng.randint(1, 4)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m = [[sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
        rows = vr._ldl(m)
        minors = [1] + [mx.det(tuple(tuple(row[:k]) for row in m[:k])) for k in range(1, n + 1)]
        assert [rows[k][k] for k in range(n)] == minors[1:]
        for _ in range(5):
            x = [rng.randint(-4, 4) for _ in range(n)]
            value = sum(
                Fraction(mx.vec_dot(rows[k], x) ** 2, minors[k] * minors[k + 1]) for k in range(n)
            )
            assert value == sum(m[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


def test_rejects_non_positive_definite():
    with pytest.raises(ValueError):
        vr.QuadraticForm(2, ((1, 2), (2, 1)))
    with pytest.raises(ValueError, match="form is not positive definite"):
        vr.perfect_form(((0, 0), (0, 0)))


def test_forms_reject_an_entry_that_is_not_an_integer():
    # positive definite over Q, but a form is an integer matrix
    matrix = ((2, Fraction(1, 2)), (Fraction(1, 2), 2))
    message = re.escape("entry Fraction(1, 2) is not an integer")
    with pytest.raises(ValueError, match=message):
        vr.QuadraticForm(2, matrix)
    with pytest.raises(ValueError, match=message):
        vr.perfect_form(matrix)


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
    fs = vr.facets(p)
    assert len(fs) == 3  # simplicial: one facet per ray
    for f in fs:
        q = vr.neighbor(p, f)
        assert vr.equivalent_forms(p, q)


def test_neighbor_line_search_leaving_its_bracket_raises(monkeypatch):
    # a shortest-vector search that reports a lower minimum with no vector
    # on the far side of the facet leaves no crossing value to move rho to
    p = vr.perfect_form(A2)
    facet = vr.facets(p)[0]
    monkeypatch.setattr(vr, "_minimum", lambda m: (0, ()))
    with pytest.raises(vr.NeighborSearchError, match="left its bracket"):
        vr.neighbor(p, facet)


def test_neighbor_takes_the_exact_crossing_of_a_scaled_normal(monkeypatch):
    # a normal scaled by 3 puts the crossing value at a non-dyadic rho, which
    # doubling and halving never reach: each neighbor the walk takes at g <= 4
    # must come from the exact crossing (mu - Q(v)) / R(v) in a few searches
    crossed = []
    step = vr.neighbor
    monkeypatch.setattr(vr, "neighbor", lambda p, f: crossed.append((p, f)) or step(p, f))
    vr.enumerate_perfect.cache_clear()
    for g in (2, 3, 4):
        vr.enumerate_perfect(g)
    monkeypatch.undo()
    assert len(crossed) == 5
    calls = []
    search = vr._minimum

    def capped(m):
        calls.append(m)
        if len(calls) > 20:
            raise RuntimeError("neighbor needed more than 20 shortest-vector searches")
        return search(m)

    monkeypatch.setattr(vr, "_minimum", capped)
    for p, facet in crossed:
        calls.clear()
        scaled = vr.Facet(tuple(3 * x for x in facet.normal), facet.rays)
        assert vr.neighbor(p, scaled) == step(p, facet)


def test_genus3_domain_is_the_dim6_graphical_cone():
    p = vr.first_perfect_form(3)
    c = vr.domain(p)
    assert len(c.generators) == 6
    assert cn.cone_dim(c) == 6
    assert cn.cones_equivalent(c, cn.catalog_cone("K4")) is not None


def test_neighbor_walk_is_symmetric():
    # crossing back over the shared facet returns to an equivalent form
    p = vr.first_perfect_form(3)
    facet = vr.facets(p)[0]
    shared = {p.min_vectors[i] for i in facet.rays}
    q = vr.neighbor(p, facet)
    back = None
    for f2 in vr.facets(q):
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


def test_enumerate_perfect_genus4():
    forms = vr.enumerate_perfect(4)
    assert len(forms) == 2
    # the two classes are the walk start and the 12-pair form
    counts = sorted(len(p.min_vectors) for p in forms)
    assert counts == [10, 12]
    assert any(vr.equivalent_forms(p, vr.perfect_form(D4)) for p in forms)


def test_enumerate_perfect_genus5():
    # A5, D5 and A5^3 (Korkine-Zolotarev 1877), in walk order
    forms = vr.enumerate_perfect(5)
    assert [len(p.min_vectors) for p in forms] == [15, 20, 15]
    assert forms[0] == vr.first_perfect_form(5)


def test_enumerate_rejects_large_genus():
    with pytest.raises(ValueError, match="needs g <= 5, got g = 6"):
        vr.enumerate_perfect(6)
    with pytest.raises(ValueError, match="needs g <= 5, got g = 6"):
        vr.classify_faces(6, 2)


@pytest.mark.parametrize("max_dim", (-1, 7))
def test_classify_faces_rejects_max_dim_out_of_range(max_dim):
    with pytest.raises(ValueError, match=f"0 <= max_dim <= 6, got max_dim = {max_dim}"):
        vr.classify_faces(3, max_dim)


def test_voronoi_walk_runs_once_per_genus(monkeypatch):
    calls = []
    step = vr.neighbor

    def counted(p, facet):
        calls.append(p)
        return step(p, facet)

    monkeypatch.setattr(vr, "neighbor", counted)
    vr.enumerate_perfect.cache_clear()
    forms = vr.enumerate_perfect(4)
    walked = len(calls)
    assert walked > 0
    assert vr.enumerate_perfect(4) is forms
    vr.classify_faces(4, 2)
    assert len(calls) == walked


def test_facets_run_once_per_walk_domain(monkeypatch):
    # the walk and the face lattice share each domain's facets
    calls = []
    step = vr.polyhedral.facets

    def counted(rays, ambient):
        calls.append(len(rays))
        return step(rays, ambient)

    monkeypatch.setattr(vr.polyhedral, "facets", counted)
    vr.enumerate_perfect.cache_clear()
    vr.facets.cache_clear()
    forms = [p for g in (2, 3, 4) for p in vr.enumerate_perfect(g)]
    for g in (2, 3, 4):
        vr.classify_faces(g)
    assert sorted(calls) == sorted(len(p.min_vectors) for p in forms) == [3, 6, 10, 12]


def test_automorphism_group_built_once_per_walk_domain(monkeypatch):
    # the walk's facet orbits and the face orbits share each domain's group
    calls = []
    step = vr.permutation_group

    def counted(vectors, *args):
        calls.append(len(vectors))
        return step(vectors, *args)

    monkeypatch.setattr(vr, "permutation_group", counted)
    vr.enumerate_perfect.cache_clear()
    vr.domain_automorphism_perms.cache_clear()
    for g in (2, 3, 4):
        vr.enumerate_perfect(g)
    for g in (2, 3, 4):
        vr.classify_faces(g)
    assert sorted(calls) == [3, 6, 10, 12]


def test_facets_are_indexed_by_the_forms_own_vector_order():
    # equal cones with their generators in another order: a cache keyed on
    # the cone would hand one of them facets indexed for the other
    p = vr.first_perfect_form(3)
    moved = vr.PerfectForm(p.form, p.minimum, p.min_vectors[::-1])
    assert vr.domain(moved) == vr.domain(p)
    assert vr.facets(moved) != vr.facets(p)
    for q in (p, moved):
        for f in vr.facets(q):
            coords = [cn.sym2_coordinates(v) for v in q.min_vectors]
            assert {i for i, x in enumerate(coords) if mx.vec_dot(f.normal, x) == 0} == f.rays


def test_classify_faces_g4_matches_catalog():
    faces = vr.classify_faces(4, 6)
    # no non-simplicial behavior this far from codimension 10
    assert all(cn.cone_dim(c) == c.n_generators for c in faces)
    catalog = cn.catalog(6)
    matched = set()
    for c in faces:
        names = [e.name for e in catalog if cn.cones_equivalent(c, e.cone) is not None]
        assert len(names) == 1, (cn.cone_dim(c), cn.cone_rank(c))
        matched.add(names[0])
    # all catalog entries of rank <= 4 appear among the faces
    assert matched == {e.name for e in catalog if e.rank <= 4}
    # the catalog names the dim-6 rank-4 classes in the walk's sort order
    dim6rank4 = [c for c in faces if cn.cone_dim(c) == 6 and cn.cone_rank(c) == 4]
    assert len(dim6rank4) == 4
    for c, suffix in zip(dim6rank4, "abcd"):
        assert cn.cones_equivalent(c, cn.catalog_cone(f"6d-g4-{suffix}")) is not None


G5_FACE_CLASSES = [
    "1", "1+1", "K3", "1+1+1", "K3+1", "C4", "1+1+1+1", "K4-1", "K3+1+1", "C4+1", "C5",
    "1+1+1+1+1", "NS", "K4", "6d-g4-a", "6d-g4-b", "6d-g4-c", "6d-g4-d", "C3+1+1+1",
    "C4+1+1", "C5+1", "6d-g5-x", "C6",
]


def test_classify_faces_g5_matches_catalog():
    faces = vr.classify_faces(5, 6)
    catalog = cn.catalog(6)
    assert len(catalog) == 26
    names = []
    for c in faces:
        hits = [e.name for e in catalog if cn.cones_equivalent(c, e.cone) is not None]
        assert len(hits) == 1, c.generators
        names += hits
    assert names == G5_FACE_CLASSES


def test_a6_domain_faces_are_the_matroidal_catalog_entries():
    # the A6 domain alone, with no walk: its faces of dim <= 6 fall into
    # exactly the 22 matroidal classes, which certifies 1+1+1+1+1+1, the one
    # entry of rank 6 that the g <= 5 faces cannot reach
    p = vr.first_perfect_form(6)
    facet_sets = [f.rays for f in vr.facets(p)]
    perms = vr.domain_automorphism_perms(p)
    assert len(perms) == 5040
    reps = ph.face_ray_sets(facet_sets, len(p.min_vectors), perms, 6)
    assert len(reps) == 80
    classes = []
    for rays in reps:
        red = cn.reduce_to_span(cn.Cone(6, [p.min_vectors[i] for i in sorted(rays)]))
        if not any(cn.cones_equivalent(red, c) is not None for c in classes):
            classes.append(red)
    assert len(classes) == 22
    catalog = cn.catalog(6)
    names = []
    for c in classes:
        hits = [e.name for e in catalog if cn.cones_equivalent(c, e.cone) is not None]
        assert len(hits) == 1, c.generators
        names += hits
    assert sorted(names) == sorted(e.name for e in catalog if e.matroidal)
    assert "1+1+1+1+1+1" in names


# integral positive definite forms whose minimal vectors are exactly +- the
# generators of the non-matroidal catalog cells, so each cone is the cell of
# its form in the perfect cone decomposition
WITNESSES = {
    "6d-g5-x": (
        10,
        [[28, 14, 14, 18, 9], [14, 12, 7, 9, 4], [14, 7, 12, 10, 5], [18, 9, 10, 18, 9], [9, 4, 5, 9, 10]],
    ),
    "6d-g6-x": (
        8,
        [
            [36, 15, 21, 17, 15, 11],
            [15, 10, 9, 7, 6, 4],
            [21, 9, 16, 10, 9, 7],
            [17, 7, 10, 14, 9, 3],
            [15, 6, 9, 9, 12, 6],
            [11, 4, 7, 3, 6, 8],
        ],
    ),
    "6d-g6-y": (
        2,
        [
            [6, 3, 3, 3, 4, 2],
            [3, 3, 2, 1, 2, 1],
            [3, 2, 3, 2, 2, 1],
            [3, 1, 2, 3, 2, 1],
            [4, 2, 2, 2, 4, 2],
            [2, 1, 1, 1, 2, 2],
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_witness_form_certifies_catalog_cell(name):
    minimum, form = WITNESSES[name]
    generators = tuple(sorted(cn.catalog_cone(name).generators))
    assert vr._minimum(tuple(map(tuple, form))) == (minimum, generators)


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
    catalog_small = cn.catalog(5)
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


# ---------------------------------------------------------------------------
# Oracles: the Gram-pairing backtrackers that searched forms on their own
# before `equivalent_forms` and `domain_automorphism_perms` went through
# `cones._assignment_search`.
# ---------------------------------------------------------------------------


def pairing(q, x, y):
    """The bilinear form of q on x and y."""
    return sum(q.matrix[i][j] * x[i] * y[j] for i in range(q.g) for j in range(q.g))


def _independent_basis(vectors, g):
    basis = []
    for v in vectors:
        if mx.rank(basis + [v]) > len(basis):
            basis.append(v)
        if len(basis) == g:
            break
    return basis


def gram_equivalent_forms(p1, p2):
    """Oracle: assign a basis of minimal vectors of Q1 to signed minimal
    vectors of Q2 with matching Q-pairings."""
    q1, q2 = p1.form, p2.form
    if q1.g != q2.g or p1.minimum != p2.minimum:
        return False
    if len(p1.min_vectors) != len(p2.min_vectors):
        return False
    g = q1.g
    basis = _independent_basis(p1.min_vectors, g)
    adj, d = mx.adjugate(mx.transpose(basis))
    targets = list(p2.min_vectors) + [tuple(-x for x in v) for v in p2.min_vectors]
    basis_gram = [[pairing(q1, a, b) for b in basis] for a in basis]

    def extend(assigned):
        k = len(assigned)
        if k == g:
            u = mx.integral_map(adj, d, assigned)
            return u is not None and mx.det(u) in (1, -1)
        for w in targets:
            if vr._form_value(q2.matrix, w) != p1.minimum:
                continue
            if any(pairing(q2, w, assigned[t]) != basis_gram[k][t] for t in range(k)):
                continue
            if pairing(q2, w, w) != basis_gram[k][k]:
                continue
            if extend(assigned + [w]):
                return True
        return False

    return extend([])


def gram_automorphism_perms(p):
    """Oracle: every basis assignment with matching Q-pairings, kept when
    its integral map permutes the minimal vectors up to sign."""
    q = p.form
    g = q.g
    vectors = p.min_vectors
    basis = _independent_basis(vectors, g)
    adj, d = mx.adjugate(mx.transpose(basis))
    gram = [[pairing(q, a, b) for b in basis] for a in basis]
    targets = list(vectors) + [tuple(-x for x in v) for v in vectors]
    index = {v: i for i, v in enumerate(vectors)}
    perms = set()

    def extend(assigned):
        k = len(assigned)
        if k == g:
            u = mx.integral_map(adj, d, assigned)
            if u is None:
                return
            images = [mx.sign_canonical(mx.mat_vec(u, v)) for v in vectors]
            if all(w in index for w in images):
                perms.add(tuple(index[w] for w in images))
            return
        for w in targets:
            if any(pairing(q, w, assigned[t]) != gram[k][t] for t in range(k)):
                continue
            if vr._form_value(q.matrix, w) != gram[k][k]:
                continue
            extend(assigned + [w])

    extend([])
    return tuple(sorted(perms))


def _neighbors(g):
    """Every contiguous form the walk meets at genus g, before equivalence."""
    out = []
    for p in vr.enumerate_perfect(g):
        for facet in vr.facets(p):
            if mx.rank([p.min_vectors[i] for i in facet.rays]) == g:
                out.append(vr.neighbor(p, facet))
    return out


@pytest.mark.parametrize("g", (2, 3, 4))
def test_every_neighbor_is_equivalent_to_exactly_one_class(g):
    classes = vr.enumerate_perfect(g)
    for q in _neighbors(g):
        assert sum(vr.equivalent_forms(q, p) for p in classes) == 1


def test_walk_crosses_the_first_facet_of_each_orbit(monkeypatch):
    crossed = []
    step = vr.neighbor

    def counted(p, facet):
        crossed.append((p, facet.rays))
        return step(p, facet)

    monkeypatch.setattr(vr, "neighbor", counted)
    vr.enumerate_perfect.cache_clear()
    forms = [p for g in (2, 3, 4) for p in vr.enumerate_perfect(g)]
    for p in forms:
        perms = gram_automorphism_perms(p)
        orbits, expected = set(), []
        for f in vr.facets(p):
            orbit = frozenset(frozenset(perm[i] for i in f.rays) for perm in perms)
            if orbit not in orbits:
                orbits.add(orbit)
                expected.append(f.rays)
        assert [rays for q, rays in crossed if q is p] == expected
    assert len(crossed) == 5


def test_e6_domain_group_is_the_weyl_group():
    # Aut(E6) = W(E6) x {+-1}, and -1 fixes every minimal-vector pair, so
    # the 36 pairs carry |W(E6)| = 51 840 permutations in one orbit
    e6 = vr.perfect_form(
        (
            (2, -1, 0, 0, 0, 0),
            (-1, 2, -1, 0, 0, 0),
            (0, -1, 2, -1, 0, -1),
            (0, 0, -1, 2, -1, 0),
            (0, 0, 0, -1, 2, 0),
            (0, 0, -1, 0, 0, 2),
        )
    )
    perms = vr.domain_automorphism_perms(e6)
    assert len(e6.min_vectors) == 36
    assert len(perms) == 51840
    assert {perm[0] for perm in perms} == set(range(36))


@pytest.mark.parametrize("g", (2, 3, 4))
def test_domain_automorphism_perms_match_gram_oracle(g):
    for p in vr.enumerate_perfect(g):
        assert vr.domain_automorphism_perms(p) == gram_automorphism_perms(p)


def test_domain_automorphism_perms_rejects_non_perfect_form():
    # the identity form's two minimal vectors do not span Sym^2, so a map
    # permuting them need not preserve the form
    with pytest.raises(ValueError, match="not perfect"):
        vr.domain_automorphism_perms(vr.perfect_form(((1, 0), (0, 1))))


def test_walk_form_automorphism_counts():
    counts = [len(vr.domain_automorphism_perms(p)) for g in (2, 3, 4) for p in vr.enumerate_perfect(g)]
    assert counts == [6, 24, 120, 576]


def test_equivalent_forms_match_gram_oracle_on_walk_forms():
    forms = [p for g in (2, 3, 4) for p in vr.enumerate_perfect(g)]
    for p1, p2 in itertools.product(forms, repeat=2):
        assert vr.equivalent_forms(p1, p2) == gram_equivalent_forms(p1, p2)


@pytest.mark.parametrize("g", (3, 4))
def test_equivalent_forms_match_gram_oracle_on_neighbors(g):
    neighbors = _neighbors(g)
    assert neighbors
    for q in neighbors:
        answers = [vr.equivalent_forms(q, p) for p in vr.enumerate_perfect(g)]
        assert answers == [gram_equivalent_forms(q, p) for p in vr.enumerate_perfect(g)]
        assert any(answers)  # the walk is complete


def test_equivalent_forms_match_gram_oracle_on_doubled_and_conjugated():
    a2 = vr.perfect_form(A2)
    doubled = vr.perfect_form(tuple(tuple(2 * x for x in row) for row in A2))
    u2 = ((1, 1), (0, 1))
    u4 = ((1, 1, 0, 0), (0, 1, 0, 1), (1, 1, 1, 0), (0, 0, 0, 1))
    d4 = vr.perfect_form(D4)
    d4_moved = mx.matmul(mx.matmul(mx.transpose(u4), D4), u4)
    pairs = [
        (a2, doubled),
        (a2, vr.perfect_form(mx.matmul(mx.matmul(mx.transpose(u2), A2), u2))),
        (d4, vr.perfect_form(tuple(tuple(2 * x for x in row) for row in d4_moved))),
        (vr.first_perfect_form(4), d4),
    ]
    assert [vr.equivalent_forms(p1, p2) for p1, p2 in pairs] == [True, True, True, False]
    for p1, p2 in pairs + [(b, a) for a, b in pairs]:
        assert vr.equivalent_forms(p1, p2) == gram_equivalent_forms(p1, p2)


def test_equivalent_forms_checks_the_congruence():
    # neither form is perfect: both have minimum 5 and minimal vectors
    # +-e1, +-e2, so the integral maps between the vectors exist, but the
    # determinants 24 and 21 differ
    p1 = vr.perfect_form(((5, 1), (1, 5)))
    p2 = vr.perfect_form(((5, 2), (2, 5)))
    assert (p1.minimum, p1.min_vectors) == (p2.minimum, p2.min_vectors) == (5, ((0, 1), (1, 0)))
    assert (mx.det(p1.form.matrix), mx.det(p2.form.matrix)) == (24, 21)
    assert not vr.equivalent_forms(p1, p2)
    assert not gram_equivalent_forms(p1, p2)
    assert vr.equivalent_forms(p1, p1)


def test_equivalent_forms_rejects_non_spanning_minimal_vectors():
    # minimum 4 on both; the second form's minimal vectors span only a plane
    spanning = vr.perfect_form(((4, 1, 1), (1, 4, 1), (1, 1, 4)))
    planar = vr.perfect_form(((4, 2, 0), (2, 4, 0), (0, 0, 5)))
    assert spanning.minimum == planar.minimum == 4
    assert len(spanning.min_vectors) == len(planar.min_vectors) == 3
    for p1, p2 in ((spanning, planar), (planar, spanning)):
        with pytest.raises(ValueError, match="full-rank"):
            vr.equivalent_forms(p1, p2)


def test_render_forms_roundtrip():
    text = vr.render_forms([vr.perfect_form(A2)])
    parsed = cn.parse_catalog(text)
    assert len(parsed) == 1
    assert parsed[0].dim == 3
    assert cn.cones_equivalent(parsed[0].cone, cn.catalog_cone("K3")) is not None


@pytest.mark.parametrize("g", (1, 2, 3, 4, 5))
def test_face_catalog_text_parses_back(g):
    # the text `perfcone voronoi faces` prints, below its count line
    faces = vr.classify_faces(g, 6)
    entries = tuple(cn.describe(c.with_name(f"face-{k + 1}")) for k, c in enumerate(faces))
    text = cn.render_catalog(entries)
    assert cn.parse_catalog(text) == entries
    assert cn.render_catalog(cn.parse_catalog(text)) == text


def test_verify_reports_a_neighbor_search_error_as_fail(monkeypatch):
    from perfcone import verify

    def broken(p, facet):
        raise vr.NeighborSearchError("neighbor line search did not terminate")

    monkeypatch.setattr(vr, "neighbor", broken)
    vr.enumerate_perfect.cache_clear()
    results = [verify.run_row(r) for r in verify.rows() if r.criterion == 10]
    assert [r.status for r in results] == [verify.FAIL] * 3
    assert all(
        r.detail == "NeighborSearchError: neighbor line search did not terminate" for r in results
    )
    assert "Traceback" not in verify.render_results(results)
