import itertools
import random

import pytest

from perfcone import polyhedral as ph
from perfcone import cones as cn
from perfcone import matrices as mx
from perfcone import voronoi as vr


# ---------------------------------------------------------------------------
# Oracles: the (r-1)-subset facet search and the top-down whole-lattice
# closure that `polyhedral.facets` and `polyhedral.face_ray_sets` used before
# the double description and the bottom-up walk by orbits.  The subset search
# also handles cones of lower rank, which `facets` rejects.
# ---------------------------------------------------------------------------


def subset_facets(rays, ambient):
    """(inward primitive normal, ray set) of every facet, sorted by ray set:
    each rank-(r-1) subset of rays spans a candidate hyperplane."""
    rays = [tuple(r) for r in rays]
    r = mx.rank(rays) if rays else 0
    if r == 0:
        return ()
    if r == 1:
        v = rays[0]
        j = next(i for i, x in enumerate(v) if x != 0)
        n = tuple((1 if v[j] > 0 else -1) if i == j else 0 for i in range(ambient))
        return ((n, frozenset()),)
    found = {}
    for subset in itertools.combinations(range(len(rays)), r - 1):
        sub = [rays[i] for i in subset]
        if mx.rank(sub) != r - 1:
            continue
        # all functionals vanishing on the subset; their value vectors on the
        # rays form a 1-dimensional space, spanned by the facet functional
        vanish = mx.kernel_basis(tuple(sub), cols=ambient)
        cand = next((f for f in vanish if any(mx.vec_dot(f, ray) != 0 for ray in rays)), None)
        if cand is None:
            continue
        pos = [mx.vec_dot(cand, ray) for ray in rays]
        if all(x <= 0 for x in pos):
            cand = tuple(-x for x in cand)
            pos = [-x for x in pos]
        if any(x < 0 for x in pos):
            continue
        zero_set = frozenset(i for i, x in enumerate(pos) if x == 0)
        found.setdefault(zero_set, cand)
    return tuple((found[s], s) for s in sorted(found, key=lambda s: sorted(s)))


def closure_faces(facet_sets, n):
    """Every proper nonempty face: the closure of the facets' ray sets under
    intersection, sorted by (size, sorted indices)."""
    all_idx = frozenset(range(n))
    seen = {all_idx}
    queue = [all_idx]
    out = set()
    while queue:
        f = queue.pop()
        for h in facet_sets:
            g = f & h
            if g not in seen:
                seen.add(g)
                if g:
                    out.add(g)
                    queue.append(g)
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


# ---------------------------------------------------------------------------
# Oracle: exact cone membership by span equations and facet inequalities, and
# the extremal rays it finds.  The package needs no such search, because
# every generator of a `Cone` is extremal (proof in
# `stabilizers.stabilizer_action`); the oracle checks that claim.
# ---------------------------------------------------------------------------


def in_cone(rays, v, ambient):
    """Exact membership of v in the cone generated by the rays."""
    if all(x == 0 for x in v):
        return True
    if not rays:
        return False
    if any(mx.vec_dot(eq, v) != 0 for eq in mx.kernel_basis(tuple(rays), cols=ambient)):
        return False
    return all(mx.vec_dot(n, v) >= 0 for n, _ in subset_facets(rays, ambient))


def extremal_ray_indices(rays, ambient):
    """Indices of rays not contained in the cone of the other rays."""
    return tuple(
        j
        for j in range(len(rays))
        if not in_cone([r for i, r in enumerate(rays) if i != j], rays[j], ambient)
    )


def extremal_generators(c):
    coords = c.sym2_matrix()
    return extremal_ray_indices(coords, len(coords[0]))


def test_simplicial_facet_count_equals_ray_count():
    for name in ("K3", "C4", "NS"):
        c = cn.catalog_cone(name)
        coords = c.sym2_matrix()
        fs = subset_facets(coords, len(coords[0]))
        assert len(fs) == len(coords)


def test_single_ray_has_one_facet():
    fs = subset_facets([(2, 3)], 2)
    assert len(fs) == 1
    assert fs[0][1] == frozenset()


def test_facets_reject_lower_rank():
    with pytest.raises(ValueError, match="full rank 2, got rank 1"):
        ph.facets([(2, 3)], 2)
    with pytest.raises(ValueError, match="full rank 3, got rank 2"):
        ph.facets([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3)


def test_double_description_matches_subset_search_on_domains():
    # every g <= 4 domain, and A5 (15 rays in Sym^2 Z^5)
    forms = [p for g in (1, 2, 3, 4) for p in vr.enumerate_perfect(g)]
    for p in forms + [vr.first_perfect_form(5)]:
        coords = vr.domain(p).sym2_matrix()
        assert ph.facets(coords, len(coords[0])) == subset_facets(coords, len(coords[0]))


def test_double_description_combines_only_adjacent_pairs():
    # a pair sharing D - 2 = 3 zero rays whose intersection lies in a third
    # zero set: combining it too adds an eighth, redundant inequality
    rays = [
        (-1, -1, -1, 0, -1), (-1, 0, 0, -1, 0), (-1, 0, 1, -1, 0), (-1, 1, -1, 1, -1),
        (0, -1, -1, 1, 1), (0, -1, 0, 0, 0), (0, 0, -1, 1, 1), (1, -1, -1, 1, -1),
    ]
    fs = ph.facets(rays, 5)
    assert len(fs) == 7
    assert fs == subset_facets(rays, 5)


def test_double_description_matches_subset_search_on_random_cones():
    rng = random.Random(61)
    checked = 0
    while checked < 150:
        ambient = rng.randint(2, 5)
        vectors = (tuple(rng.randint(-2, 2) for _ in range(ambient)) for _ in range(rng.randint(2, 10)))
        rays = sorted({v for v in vectors if mx.vec_content(v) == 1})
        if not rays or mx.rank(rays) != ambient:
            continue
        # pointed cones only: their facet normals span the dual space
        expected = subset_facets(rays, ambient)
        if mx.rank([n for n, _ in expected]) != ambient:
            continue
        assert ph.facets(rays, ambient) == expected, rays
        checked += 1


def test_in_cone_2d():
    rays = [(1, 0), (1, 2)]
    assert in_cone(rays, (2, 2), 2)
    assert in_cone(rays, (0, 0), 2)
    assert not in_cone(rays, (0, 1), 2)
    assert not in_cone(rays, (-1, 0), 2)


def test_in_cone_lower_dimensional():
    rays = [(1, 0, 0), (0, 1, 0)]
    assert in_cone(rays, (2, 3, 0), 3)
    assert not in_cone(rays, (2, 3, 1), 3)
    assert not in_cone(rays, (-1, 0, 0), 3)


def test_extremal_ray_indices():
    rays = [(1, 0), (1, 1), (0, 1)]
    assert extremal_ray_indices(rays, 2) == (0, 2)


def test_face_ray_sets_of_simplex():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    facet_sets = [s for _, s in ph.facets(rays, 3)]
    faces = ph.face_ray_sets(facet_sets, 3, [(0, 1, 2)], 3)
    assert sorted(len(f) for f in faces) == [1, 1, 1, 2, 2, 2, 3]
    assert ph.face_ray_sets(facet_sets, 3, [(0, 1, 2)], 2) == faces[:-1]
    assert ph.face_ray_sets(facet_sets, 3, [(0, 1, 2)], 0) == ()


def _key(s):
    return (len(s), sorted(s))


def _check_walk_to_every_dimension(coords, facet_sets, perms):
    """At every max_dim up to the full dimension, the walk under the
    identity is the whole-lattice closure plus the cone, cut to that
    dimension, and the walk under perms gives least orbit members whose
    orbits partition it."""
    n = len(coords)
    lattice = closure_faces(facet_sets, n) + (frozenset(range(n)),)
    dims = {f: mx.rank([coords[i] for i in f]) for f in lattice}
    assert max(dims.values()) == mx.rank(coords)
    for max_dim in range(mx.rank(coords) + 1):
        expected = tuple(f for f in lattice if dims[f] <= max_dim)
        assert ph.face_ray_sets(facet_sets, n, [tuple(range(n))], max_dim) == expected
        reps = ph.face_ray_sets(facet_sets, n, perms, max_dim)
        assert list(reps) == sorted(reps, key=_key)
        covered = []
        for rep in reps:
            orbit = {frozenset(perm[i] for i in rep) for perm in perms}
            assert min(orbit, key=_key) == rep
            covered += orbit
        assert sorted(covered, key=_key) == list(expected)


def test_face_ray_sets_of_square_pyramid():
    # the cone over a square pyramid: rays 0..3 around the base, 4 the apex
    pyramid = [(0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)]
    facet_sets = [frozenset(s) for s in ({0, 1, 4}, {1, 2, 4}, {2, 3, 4}, {0, 3, 4}, {0, 1, 2, 3})]
    assert {s for _, s in ph.facets(pyramid, 4)} == set(facet_sets)
    faces = ph.face_ray_sets(facet_sets, 5, [(0, 1, 2, 3, 4)], 4)
    assert [len(f) for f in faces] == [1] * 5 + [2] * 8 + [3] * 4 + [4] + [5]
    assert frozenset({0, 2}) not in faces
    # the rotations of the base: one orbit per face kind, least member first
    rotations = [tuple((i + k) % 4 for i in range(4)) + (4,) for k in range(4)]
    reps = ph.face_ray_sets(facet_sets, 5, rotations, 4)
    assert [sorted(f) for f in reps] == [
        [0], [4], [0, 1], [0, 4], [0, 1, 4], [0, 1, 2, 3], [0, 1, 2, 3, 4]
    ]
    _check_walk_to_every_dimension(pyramid, facet_sets, rotations)


@pytest.mark.parametrize("g", (1, 2, 3, 4))
def test_face_orbits_partition_the_face_lattice(g):
    for p in vr.enumerate_perfect(g):
        facet_sets = [f.rays for f in vr.facets(p)]
        perms = vr.domain_automorphism_perms(p)
        _check_walk_to_every_dimension(vr.domain(p).sym2_matrix(), facet_sets, perms)


def _random_families(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ambient = rng.randint(2, 4)
        vectors = set()
        for _ in range(rng.randint(2, 7)):
            v = tuple(rng.randint(-2, 2) for _ in range(ambient))
            if any(v) and mx.vec_content(v) == 1:
                vectors.add(mx.sign_canonical(v))
        if vectors:
            out.append(cn.Cone(ambient, sorted(vectors)))
    return out


def _cones_to_check():
    cones = [e.cone for e in cn.catalog(6)]
    cones += [vr.domain(p) for g in (2, 3, 4) for p in vr.enumerate_perfect(g)]
    cones += [c for g in (2, 3, 4) for c in vr.classify_faces(g, 6)]
    return cones + [cn.Cone(2, [(1, 0), (0, 1), (1, 1), (1, -1)])] + _random_families(9, 200)


def test_every_generator_is_extremal():
    # the proof in `stabilizers.stabilizer_action`, checked by the oracle on
    # the catalog, the walk domains, the g <= 4 faces and random families
    cones = _cones_to_check()
    assert len(cones) > 250
    for c in cones:
        assert extremal_generators(c) == tuple(range(c.n_generators)), c.generators

