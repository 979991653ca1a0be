import random

from perfcone import polyhedral as ph
from perfcone import cones as cn
from perfcone import matrices as mx
from perfcone import voronoi as vr


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
    return all(mx.vec_dot(n, v) >= 0 for n, _ in ph.facets(rays, ambient))


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
        fs = ph.facets(coords, len(coords[0]))
        assert len(fs) == len(coords)


def test_single_ray_has_one_facet():
    fs = ph.facets([(2, 3)], 2)
    assert len(fs) == 1
    assert fs[0][1] == frozenset()


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
    faces = ph.face_ray_sets([s for _, s in ph.facets(rays, 3)], 3)
    assert sorted(len(f) for f in faces) == [1, 1, 1, 2, 2, 2]


def test_face_ray_sets_of_square_pyramid():
    # rays 0..3 around the base, 4 the apex
    facet_sets = [frozenset(s) for s in ({0, 1, 4}, {1, 2, 4}, {2, 3, 4}, {0, 3, 4}, {0, 1, 2, 3})]
    faces = ph.face_ray_sets(facet_sets, 5)
    assert [len(f) for f in faces] == [1] * 5 + [2] * 8 + [3] * 4 + [4]
    assert frozenset({0, 2}) not in faces


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

