import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from perfcone import cones as cn
from perfcone import matrices as mx
from perfcone import verify
from perfcone import voronoi as vr

from test_matrices import assert_span_basis
from test_polyhedral import extremal_generators


def path_graph(n):
    return cn.Graph(n, tuple((k, k + 1) for k in range(1, n)))


CAT = cn.catalog(6)
NAMED = {e.name: e for e in CAT}


def test_catalog_counts_by_dim():
    by_dim = {}
    for e in CAT:
        by_dim.setdefault(e.dim, []).append(e)
    assert [len(by_dim[d]) for d in range(1, 7)] == [1, 1, 2, 3, 6, 13]


def test_dim4_entries_are_the_three_torus_rank_3_and_4_strata():
    assert [e.name for e in CAT if e.dim == 4] == ["1+1+1+1", "K3+1", "C4"]


def test_cone_dim_examples():
    assert cn.cone_dim(cn.catalog_cone("K3")) == 3
    for i in (1, 2, 3, 4, 5):
        std = cn.Cone(i, mx.identity(i))
        assert cn.cone_dim(std) == i
    assert cn.cone_dim(cn.Cone(3, [(1, 0, 0)])) == 1


def test_cone_rank_examples():
    assert cn.cone_rank(cn.catalog_cone("C4")) == 3
    assert cn.cone_rank(cn.catalog_cone("NS")) == 5
    assert cn.cone_rank(cn.Cone(1, [(1,)])) == 1


def test_unknown_catalog_name_is_a_value_error():
    with pytest.raises(ValueError, match="unknown catalog cone 'Zeta'"):
        cn.catalog_entry("Zeta")
    with pytest.raises(ValueError, match="unknown catalog cone 'Zeta'"):
        cn.catalog_cone("Zeta")


def test_all_catalog_cones_dim_le_5_simplicial():
    for e in CAT:
        if e.dim <= 5:
            assert cn.describe(e.cone).simplicial, e.name


def test_k3_is_basic():
    c = cn.catalog_cone("K3")
    assert cn.describe(c).basic
    assert mx.lattice_index(c.sym2_matrix()) == 1


def test_dependent_generators_not_simplicial():
    c = cn.Cone(2, [(1, 0), (0, 1), (1, 1), (1, -1)])
    assert not cn.describe(c).simplicial


def test_ns_generator_matrix_snf():
    c = cn.catalog_cone("NS")
    # Smith divisors (1, 1, 1, 1, 2): the generators span an index-2 sublattice
    assert mx.lattice_index(c.generators) == 2
    assert mx.lattice_index(mx.transpose(c.generators)) == 2


def test_matroidal_flags():
    assert not cn.is_matroidal(cn.catalog_cone("NS"))
    assert cn.is_matroidal(cn.catalog_cone("C5"))
    for i in (1, 2, 3, 4, 5):
        assert cn.is_matroidal(cn.Cone(i, mx.identity(i)))


def test_matroidal_matches_catalog_flags():
    for e in CAT:
        assert cn.is_matroidal(e.cone) == e.matroidal, e.name
        # the flag does not change when the span has lower rank than Z^i
        assert cn.is_matroidal(embedded(e.cone)) == e.matroidal, e.name


def test_criterion_12_fails_on_a_flipped_published_flag(monkeypatch):
    [row] = [r for r in verify.rows() if r.criterion == 12]
    assert verify.run_row(row).status == verify.PASS
    for name in ("NS", "K3"):
        flipped = tuple(
            e._replace(matroidal=not e.matroidal) if e.name == name else e
            for e in CAT
        )
        monkeypatch.setattr(cn, "catalog", lambda max_dim=6: flipped)
        result = verify.run_row(row)
        assert result.status == verify.FAIL and result.detail == f"disagrees on {[name]}"


def test_matroidal_implies_simplicial_on_catalog():
    for e in CAT:
        if cn.is_matroidal(e.cone):
            assert cn.describe(e.cone).simplicial, e.name


def pivot_is_matroidal(c):
    """Oracle: pivot on a determinant +-1 basis of the saturated span, then
    test every square submatrix for total unimodularity."""
    if mx.lattice_index(c.generators) != 1:
        return False
    red = cn.reduce_to_span(c)
    r, n = red.ambient, red.n_generators
    a = mx.transpose(red.generators)
    for sel in itertools.combinations(range(n), r):
        sub = tuple(tuple(a[i][j] for j in sel) for i in range(r))
        if mx.det(sub) in (1, -1):
            return totally_unimodular(mx.matmul(mx.invert_unimodular(sub), a))
    return False


def totally_unimodular(a):
    rows, cols = len(a), len(a[0])
    return all(
        mx.det(tuple(tuple(a[i][j] for j in csel) for i in rsel)) in (-1, 0, 1)
        for k in range(1, min(rows, cols) + 1)
        for rsel in itertools.combinations(range(rows), k)
        for csel in itertools.combinations(range(cols), k)
    )


def random_families(rng, count):
    """`count` cones of 1-7 distinct primitive generators in Z^1..Z^5 with
    entries in -2..2, mostly in -1..1 so that both answers occur often."""
    out = []
    while len(out) < count:
        n = rng.randint(1, 5)
        bound = 2 if rng.random() < 0.25 else 1
        gens = set()
        for _ in range(rng.randint(1, 7)):
            v = tuple(rng.randint(-bound, bound) for _ in range(n))
            if any(v) and mx.vec_content(v) == 1:
                gens.add(mx.sign_canonical(v))
        if gens:
            out.append(cn.Cone(n, sorted(gens)))
    return out


def embedded(c):
    """The cone in one more dimension, moved off the coordinate subspace by
    a fixed unimodular map, so that its span has lower rank."""
    n = c.ambient + 1
    lower = [[1 if i == j else (j + 1 if i == n - 1 else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (-1 if j == i + 1 else 0) for j in range(n)] for i in range(n)]
    u = mx.matmul(lower, upper)
    assert mx.det(u) == 1
    return cn.Cone(n, [mx.mat_vec(u, g + (0,)) for g in c.generators])


def test_matroidal_agrees_with_pivot_oracle():
    cones = [e.cone for e in CAT] + [embedded(e.cone) for e in CAT]
    for g in (2, 3, 4):
        cones += [vr.domain(p) for p in vr.enumerate_perfect(g)]
        cones += list(vr.classify_faces(g, 6))
    cones += random_families(random.Random(13), 3000)
    got = [cn.is_matroidal(c) for c in cones]
    assert got == [pivot_is_matroidal(c) for c in cones]
    # both answers occur often, on cones of lower rank than their ambient too
    assert 1000 < sum(got) < len(cones) - 1000
    lower = [m for c, m in zip(cones, got) if cn.cone_rank(c) < c.ambient]
    assert 100 < sum(lower) < len(lower) - 100


def test_equivalence_invariants_are_order_blind():
    # the cache is keyed on the order-blind cone, so whichever order is
    # computed first must give the invariants of the other
    inv = cn._equivalence_invariants
    for e in CAT:
        rev = cn.Cone(e.cone.ambient, e.cone.generators[::-1])
        assert rev == e.cone
        for first, second in ((e.cone, rev), (rev, e.cone)):
            inv.cache_clear()
            assert inv(first) == inv(second) == inv.__wrapped__(second), e.name


def test_equivalence_invariants_computed_once_per_cone(monkeypatch):
    calls = []
    weights = cn._f2_word_weights

    def counted(c):
        calls.append(c)
        return weights(c)

    monkeypatch.setattr(cn, "_f2_word_weights", counted)
    cn._equivalence_invariants.cache_clear()
    small = [e.cone for e in cn.catalog(5)]
    for g in (2, 3, 4):
        for face in vr.classify_faces(g, 6):
            if cn.cone_dim(face) <= 5:
                assert sum(cn.cones_equivalent(face, c) is not None for c in small) == 1
    assert calls and len(calls) == len(set(calls))


def test_orth_lattice_standard_cones():
    w = cn.orth_lattice(cn.catalog_cone("1+1"))
    assert w == ((0, 1, 0),)  # tau_12
    w3 = cn.orth_lattice(cn.Cone(3, mx.identity(3)))
    # tau_12, tau_13, tau_23 in the (11),(12),(13),(22),(23),(33) ordering
    assert sorted(w3) == sorted(((0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)))


def test_orth_lattice_full_dimensional_cone_is_zero():
    assert cn.orth_lattice(cn.catalog_cone("K3")) == ()
    assert cn.orth_lattice(cn.catalog_cone("K4")) == ()


def test_graphical_cone_c4_equivalent_to_catalog():
    c = cn.graphical_cone(cn.cycle_graph(4))
    assert cn.cones_equivalent(c, cn.catalog_cone("C4")) is not None


def test_graphical_cone_k3_equivalent_to_catalog():
    c = cn.graphical_cone(cn.complete_graph(3))
    assert cn.cones_equivalent(c, cn.catalog_cone("K3")) is not None


def test_graphical_cone_single_edge():
    c = cn.graphical_cone(cn.Graph(2, ((1, 2),)))
    assert c == cn.Cone(1, [(1,)])


def test_graphical_cone_rejects_disconnected():
    with pytest.raises(ValueError):
        cn.graphical_cone(cn.Graph(4, ((1, 2), (3, 4))))


def is_connected(g):
    """Oracle for the rank rule of `graphical_cone`: a depth-first search
    from vertex 1."""
    if g.vertices == 0:
        return False
    adj = {v: set() for v in range(1, g.vertices + 1)}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.vertices


def test_graphical_cone_connectivity_matches_search_oracle():
    # every simple graph on 1-5 vertices, with 0-2 extra standard generators;
    # this includes graphs whose grounded last vertex is isolated
    cases = isolated_ground = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            g = cn.Graph(n, tuple(e for t, e in enumerate(pairs) if mask >> t & 1))
            isolated_ground += n > 1 and all(n not in e for e in g.edges)
            for plus_ones in range(3):
                cases += 1
                if not is_connected(g):
                    with pytest.raises(ValueError, match="require a connected graph"):
                        cn.graphical_cone(g, plus_ones)
                elif n - 1 + plus_ones < 1:
                    with pytest.raises(ValueError, match="empty ambient space"):
                        cn.graphical_cone(g, plus_ones)
                else:
                    c = cn.graphical_cone(g, plus_ones)
                    assert cn.cone_rank(c) == c.ambient == n - 1 + plus_ones
    assert cases == 3 * (1 + 2 + 8 + 64 + 1024)
    assert isolated_ground > 0


def test_tree_graphical_cones_are_standard():
    for k in (2, 3, 4):
        c = cn.graphical_cone(path_graph(k + 1))
        std = cn.Cone(k, mx.identity(k))
        assert cn.cones_equivalent(c, std) is not None
    # a star is a tree too
    star = cn.Graph(5, ((1, 2), (1, 3), (1, 4), (1, 5)))
    assert cn.cones_equivalent(cn.graphical_cone(star), cn.Cone(4, mx.identity(4))) is not None


def test_cones_equivalent_self_is_identity():
    for name in ("K3", "C4", "NS"):
        c = cn.catalog_cone(name)
        assert cn.cones_equivalent(c, c) == mx.identity(c.ambient)


def test_cones_equivalent_action_maps_generators():
    c1 = cn.graphical_cone(cn.complete_graph(3))
    c2 = cn.catalog_cone("K3")
    q = cn.cones_equivalent(c1, c2)
    r = mx.transpose(mx.invert_unimodular(q))
    images = {mx.sign_canonical(mx.mat_vec(r, g)) for g in c1.generators}
    assert images == set(c2.generators)


def test_cones_equivalent_rejects_cones_that_do_not_span():
    k3_in_4 = cn.Cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, -1, 0, 0)])
    std = cn.Cone(4, mx.identity(4))
    pairs = [
        # equivalent, and with equal invariants
        (k3_in_4, cn.Cone(4, [(0, 0, 1, 0), (0, 1, 1, 0), (0, 1, 0, 0)])),
        # the invariants differ, in either order, or the ambients do
        (k3_in_4, std),
        (std, k3_in_4),
        (k3_in_4, cn.catalog_cone("K3")),
    ]
    for a, b in pairs:
        with pytest.raises(ValueError, match="reduce_to_span"):
            cn.cones_equivalent(a, b)


def f2_relation_weights(c):
    """Oracle: the sorted weights of all F2 relations among the generators."""
    masks = [cn.vector_bitmask(g) for g in c.generators]
    return tuple(sorted(bin(v).count("1") for v in mx.f2_kernel(masks)))


def test_f2_word_weights_separate_the_pairs_the_relation_weights_do():
    # by the MacWilliams identity either list determines the other for equal
    # ambient and generator count, so both split every such group of cones
    # into the same classes
    cones = [e.cone for e in CAT] + [embedded(e.cone) for e in CAT]
    for g in (2, 3, 4, 5):
        cones += [vr.domain(p) for p in vr.enumerate_perfect(g)]
    for g in (2, 3, 4):
        cones += list(vr.classify_faces(g, 6))
    cones += random_families(random.Random(43), 3000)
    groups = {}
    for c in set(cones):
        key = (c.ambient, c.n_generators)
        both = (cn._f2_word_weights(c), f2_relation_weights(c))
        groups.setdefault(key, collections.Counter())[both] += 1
    for key, classes in groups.items():
        words = {w for w, _ in classes}
        relations = {r for _, r in classes}
        assert len(words) == len(relations) == len(classes), key
    # both answers occur often: pairs of cones told apart, and pairs not
    pairs = sum(math.comb(sum(c.values()), 2) for c in groups.values())
    together = sum(math.comb(k, 2) for c in groups.values() for k in c.values())
    assert 10000 < together < pairs - 10000


def test_c5_ns_not_equivalent():
    assert cn.cones_equivalent(cn.catalog_cone("C5"), cn.catalog_cone("NS")) is None


def test_catalog_representatives_pairwise_inequivalent():
    cones = [e.cone for e in CAT]
    for a, b in itertools.combinations(cones, 2):
        assert cn.cones_equivalent(a, b) is None, (a.name, b.name)


def test_catalog_dim_rank_bounds():
    for e in CAT:
        assert e.rank <= e.dim <= e.rank * (e.rank + 1) // 2


def test_catalog_rejects_deep_request():
    with pytest.raises(ValueError):
        cn.catalog(7)


def test_extremal_rays_simplicial():
    c = cn.catalog_cone("K3")
    assert extremal_generators(c) == (0, 1, 2)


def test_extremal_rays_drops_interior_generator():
    # x^2, y^2, (x+y)^2 and (x-y)^2: no rank-1 form is a positive combination
    # of others (the rank-1 locus is curved), so all four are extremal rays
    # of this 3-dim cone
    c = cn.Cone(2, [(1, 0), (0, 1), (1, 1), (1, -1)])
    assert extremal_generators(c) == (0, 1, 2, 3)


def test_serialization_roundtrip_bit_exact():
    text = cn.render_catalog(CAT)
    parsed = cn.parse_catalog(text)
    assert parsed == CAT
    assert cn.render_catalog(parsed) == text


def test_parse_catalog_rejects_placeholder_block():
    text = "[placeholder]\nname = 6d-g4-a\ndim = 6\nrank = 4\ninvariant-series = 1\n"
    with pytest.raises(ValueError, match="unknown block type 'placeholder'"):
        cn.parse_catalog(text)


@pytest.mark.parametrize(
    "old,new,named",
    [
        ("dim = 3\n", "", "'K3': expected 'dim = ...', got 'rank = 2'"),
        ("matroidal = yes", "matroidal = maybe", "'K3': bad value in 'matroidal = maybe'"),
        ("ambient = 2", "ambient = two", "'K3': bad value in 'ambient = two'"),
        ("generators:", "gens:", "'K3': expected 'generators:', got 'gens:'"),
        ("  (1, -1)", "  (1 -1)", "'K3': bad generator line '  (1 -1)'"),
        ("  (1, -1)", "  (2, -2)", "'K3': generator (2, -2) is not primitive"),
        ("multiplicity = 1", "multiplicity = 2", "'K3': bad value in 'multiplicity = 2'"),
    ],
    ids=["no-dim", "bad-flag", "bad-int", "no-generators", "bad-generator", "not-primitive",
         "bad-multiplicity"],
)
def test_parse_catalog_names_the_block_and_the_bad_line(old, new, named):
    text = cn.render_catalog([cn.catalog_entry("K3")])
    assert old in text
    with pytest.raises(ValueError) as caught:
        cn.parse_catalog(text.replace(old, new))
    assert str(caught.value) == f"catalog block {named}"


@pytest.mark.parametrize("read,text", [(cn._flag_parse, "maybe"), (cn._multiplicity_parse, "2")])
def test_catalog_value_readers_reject_with_value_error(read, text):
    with pytest.raises(ValueError):
        read(text)


def test_parse_catalog_of_empty_text_is_empty():
    assert cn.parse_catalog("") == cn.parse_catalog("\n\n") == ()


def test_reduce_to_span():
    c = cn.Cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, -1, 0, 0)])
    red = cn.reduce_to_span(c)
    assert red.ambient == 2
    assert cn.cones_equivalent(red, cn.catalog_cone("K3")) is not None


def test_complete_to_unimodular():
    # span_basis completes the saturated basis of a span to GL(n, Z); here
    # on random non-saturated spans of lower rank, as reduce_to_span meets
    # them
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(2, 5)
        r = rng.randint(1, n - 1)
        basis = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        combos = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(rng.randint(1, 4))]
        assert_span_basis(mx.matmul(combos, basis), n)
    assert_span_basis([(2, 4, 6), (0, 2, 1)], 3)


# ---------------------------------------------------------------------------
# The integral-symmetry search against its Fraction Gauss-Jordan predecessor
# ---------------------------------------------------------------------------


def _solve_linear_map(vmat, wmat):
    """Integer matrix R with R * vmat = wmat (columns are vectors), or None."""
    vrows = mx.transpose(vmat)
    rows = []
    for t in range(len(vmat)):
        sol = mx.solve_rational(vrows, tuple(wmat[t]))
        if sol is None or any(x.denominator != 1 for x in sol):
            return None
        rows.append(tuple(int(x) for x in sol))
    return tuple(rows)


def fraction_assignment_search(src, dst, ambient):
    """Oracle: the search solving over Q at every node and at every leaf."""
    n = len(src)
    if len(dst) != n:
        return
    if mx.rank(src) != ambient or mx.rank(dst) != ambient:
        raise ValueError("assignment search requires full-rank vector families")
    order = []
    chosen = []
    for j, v in enumerate(src):
        if mx.rank(chosen + [v]) > len(chosen):
            chosen.append(v)
            order.append(j)
    order += [j for j in range(n) if j not in order]
    dst_lookup = {mx.sign_canonical(w): k for k, w in enumerate(dst)}
    perm = [-1] * n
    used = [False] * n
    indep_pairs = []

    def extend(pos):
        if pos == n:
            vmat = mx.transpose([v for v, _ in indep_pairs])
            wmat = mx.transpose([w for _, w in indep_pairs])
            r_matrix = _solve_linear_map(vmat, wmat)
            if r_matrix is None or mx.det(r_matrix) not in (1, -1):
                return
            yield r_matrix, tuple(perm)
            return
        j = order[pos]
        v = src[j]
        coeffs = (
            mx.solve_rational(mx.transpose([p[0] for p in indep_pairs]), v)
            if indep_pairs
            else None
        )
        if coeffs is not None:
            forced = [Fraction(0)] * ambient
            for a, (_, w) in zip(coeffs, indep_pairs):
                for t in range(ambient):
                    forced[t] += a * w[t]
            if any(x.denominator != 1 for x in forced):
                return
            k = dst_lookup.get(mx.sign_canonical(tuple(int(x) for x in forced)))
            if k is None or used[k]:
                return
            perm[j] = k
            used[k] = True
            yield from extend(pos + 1)
            used[k] = False
            perm[j] = -1
            return
        signs = (1,) if not indep_pairs else (1, -1)
        for k in range(n):
            if used[k]:
                continue
            for s in signs:
                perm[j] = k
                used[k] = True
                indep_pairs.append((v, tuple(s * x for x in dst[k])))
                yield from extend(pos + 1)
                indep_pairs.pop()
                used[k] = False
                perm[j] = -1

    yield from extend(0)


TABLES_CONES = [e.cone for e in cn.catalog(5)] + [cn.catalog_cone("K4")]
# the minimal vectors of the root forms A2 and A3, as the Voronoi code searches them
MIN_VECTOR_CONES = [cn.Cone(g, vr.first_perfect_form(g).min_vectors, f"A{g}-min") for g in (2, 3)]


@pytest.mark.parametrize("cone", TABLES_CONES + MIN_VECTOR_CONES, ids=lambda c: c.name)
def test_assignment_search_matches_fraction_oracle(cone):
    # the oracle does not prune, so equal sequences show that the fingerprint
    # only cuts branches without a leaf
    rays = cone.generators
    expected = list(fraction_assignment_search(rays, rays, cone.ambient))
    assert list(cn._assignment_search(rays, rays, cone.ambient)) == expected


def test_search_setup_raises_rank_error_on_every_call():
    # the set-up is cached per family, but a failed set-up is not
    flat = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    before = cn._family.cache_info()
    for _ in range(2):
        with pytest.raises(ValueError, match="full-rank"):
            next(cn._assignment_search(flat, flat, 3))
    after = cn._family.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (2, 0)
    assert after.currsize == before.currsize


def _equivalence_pairs():
    """(equivalent pairs, inequivalent pairs) from the catalog and the
    graphical cones above."""
    explicit = [e.cone for e in CAT]
    k3_in_4 = cn.Cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, -1, 0, 0)])
    star = cn.Graph(5, ((1, 2), (1, 3), (1, 4), (1, 5)))
    equivalent = [(c, c) for c in explicit] + [
        (cn.graphical_cone(cn.cycle_graph(4)), cn.catalog_cone("C4")),
        (cn.graphical_cone(cn.complete_graph(3)), cn.catalog_cone("K3")),
        (cn.reduce_to_span(k3_in_4), cn.catalog_cone("K3")),
        (cn.graphical_cone(star), cn.Cone(4, mx.identity(4))),
    ]
    equivalent += [
        (cn.graphical_cone(path_graph(k + 1)), cn.Cone(k, mx.identity(k))) for k in (2, 3, 4)
    ]
    return equivalent, list(itertools.combinations(explicit, 2))


def test_assignment_search_between_two_families_matches_fraction_oracle():
    # leaves that map the dependent generators of one family onto another,
    # against the oracle that solves over Q at every node
    forced = [c for c in TABLES_CONES if c.n_generators > c.ambient]
    assert [c.name for c in forced] == ["K3", "K3+1", "C4", "K4-1", "K3+1+1", "C4+1", "C5", "K4"]
    pairs = []
    for c in forced:
        # the generators in reversed order, moved by a map of determinant 1
        u = [[int(j >= i) for j in range(c.ambient)] for i in range(c.ambient)]
        pairs.append((c.generators, [mx.mat_vec(u, g) for g in reversed(c.generators)]))
    equivalent, _ = _equivalence_pairs()
    pairs += [(a.generators, b.generators) for a, b in equivalent if a is not b]
    for src, dst in pairs:
        ambient = len(src[0])
        expected = list(fraction_assignment_search(src, dst, ambient))
        assert list(cn._assignment_search(src, dst, ambient)) == expected


def test_cones_equivalent_matrices_match_fraction_oracle(monkeypatch):
    equivalent, inequivalent = _equivalence_pairs()
    pairs = equivalent + inequivalent
    found = [cn.cones_equivalent(a, b) for a, b in pairs]
    assert all(q is not None for q in found[: len(equivalent)])
    monkeypatch.setattr(cn, "_assignment_search", fraction_assignment_search)
    assert found == [cn.cones_equivalent(a, b) for a, b in pairs]
