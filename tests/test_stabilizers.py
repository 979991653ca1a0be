import math
import random

import pytest

from perfcone import cones as cn
from perfcone import matrices as mx
from perfcone import stabilizers
from perfcone import voronoi as vr
from perfcone.stabilizers import GroupAction, invariant_dim_degree1, stabilizer_action


def test_k3_stabilizer_is_s3_on_generators():
    action = stabilizer_action(cn.catalog_cone("K3"))
    assert action.order == 6
    assert sorted(action.perms) == sorted(
        [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    )
    assert action.orbits == ((0, 1, 2),)


def test_c4_stabilizer_order_24():
    action = stabilizer_action(cn.catalog_cone("C4"))
    assert action.order == 24
    assert action.orbits == ((0, 1, 2, 3),)


def test_ns_stabilizer_order_120():
    action = stabilizer_action(cn.catalog_cone("NS"))
    assert action.order == 120
    assert action.orbits == ((0, 1, 2, 3, 4),)


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
def test_standard_cone_stabilizer_full_symmetric(i):
    action = stabilizer_action(cn.Cone(i, mx.identity(i)))
    assert action.order == math.factorial(i)


@pytest.mark.parametrize(
    "name,order",
    [("C6", 720), ("C5+1", 120), ("C4+1+1", 48), ("C3+1+1+1", 36), ("1+1+1+1+1+1", 720)],
)
def test_dim6_stabilizer_orders_are_matroid_automorphism_groups(name, order):
    # the cycle matroids of C6 and C5+1 are U(5,6) and U(4,5) plus a coloop,
    # C4+1+1 is U(3,4) plus two coloops and C3+1+1+1 is U(2,3) plus three:
    # S6, S5, S4 x S2, S3 x S3 and S6 for the standard cone
    assert stabilizer_action(cn.catalog_cone(name)).order == order


def test_codim5_invariant_dims_in_catalog_order():
    names = [e.name for e in cn.catalog(6) if e.dim == 5]
    assert names == ["K4-1", "K3+1+1", "C4+1", "C5", "1+1+1+1+1", "NS"]
    dims = [invariant_dim_degree1(cn.catalog_cone(n)) for n in names]
    assert dims == [2, 2, 2, 1, 1, 1]


def test_stabilizer_requires_full_rank():
    c = cn.Cone(3, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        stabilizer_action(c)


def test_stabilizer_rejects_non_simplicial_cone():
    # the Voronoi domain of D4: 12 minimal vector pairs, forms spanning only 10 dimensions
    d4 = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
    p = vr.perfect_form(d4)
    assert len(p.min_vectors) == 12
    with pytest.raises(ValueError, match="simplicial"):
        stabilizer_action(vr.domain(p))


def test_group_order_divides_permutation_bound():
    for name in ("K3", "C4", "K4-1"):
        c = cn.catalog_cone(name)
        action = stabilizer_action(c)
        assert math.factorial(c.n_generators) % action.order == 0


def test_conjugated_cone_has_same_group_order():
    rng = random.Random(11)
    c = cn.catalog_cone("C4")
    base = stabilizer_action(c)
    for _ in range(3):
        # random unimodular conjugation
        u = mx.identity(3)
        for _ in range(4):
            a, b = rng.sample(range(3), 2)
            shear = [list(row) for row in mx.identity(3)]
            shear[a][b] = rng.randint(-2, 2)
            u = mx.matmul(u, tuple(map(tuple, shear)))
        r = mx.transpose(mx.invert_unimodular(u))
        moved = cn.Cone(3, [mx.mat_vec(r, g) for g in c.generators])
        action = stabilizer_action(moved)
        assert action.order == base.order
        assert sorted(len(o) for o in action.orbits) == sorted(len(o) for o in base.orbits)


def test_invariant_dim_cross_checks_orbits_by_burnside(monkeypatch):
    # three fixed points on average, but the orbits claim one
    wrong = GroupAction(dim=3, order=1, perms=((0, 1, 2),), orbits=((0, 1, 2),))
    monkeypatch.setattr(stabilizers, "stabilizer_action", lambda c: wrong)
    with pytest.raises(AssertionError, match="disagree"):
        invariant_dim_degree1(cn.catalog_cone("K3"))
