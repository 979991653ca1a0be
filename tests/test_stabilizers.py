import math
import random

import pytest

from perfcone import cones as cn
from perfcone import matrices as mx
from perfcone import betti, stabilizers, verify
from perfcone.cli import main
from perfcone.invariants import molien
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


@pytest.mark.parametrize(
    "name,order,prefix",
    [
        ("6d-g4-a", 8, (1, 3, 8, 17, 34)),
        ("6d-g4-b", 72, (1, 1, 3, 5, 10)),
        ("6d-g4-c", 12, (1, 3, 8, 17, 33)),
        ("6d-g4-d", 48, (1, 1, 3, 5, 10)),
        ("6d-g5-x", 120, (1, 2, 4, 7, 12)),
        ("6d-g6-x", 120, (1, 2, 4, 7, 12)),
        ("6d-g6-y", 720, (1, 1, 2, 3, 5)),
    ],
)
def test_certified_dim6_orders_and_molien_prefixes(name, order, prefix):
    action = stabilizer_action(cn.catalog_cone(name))
    assert action.order == order
    assert molien(action, 4).coeffs == prefix


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
    wrong = GroupAction(perms=((0, 1, 2),), orbits=((0, 1, 2),))
    monkeypatch.setattr(stabilizers, "stabilizer_action", lambda c: wrong)
    with pytest.raises(stabilizers.StabilizerGroupError, match="disagree"):
        invariant_dim_degree1(cn.catalog_cone("K3"))


def _only_criteria(monkeypatch, criteria):
    """Cut the acceptance table down to the given criteria, so that
    `perfcone verify` runs only their rows."""
    table = verify.rows

    def only(full_oracle=False):
        return [r for r in table(full_oracle) if r.criterion in criteria]

    monkeypatch.setattr(verify, "rows", only)


def test_verify_reports_a_burnside_mismatch_as_fail(monkeypatch, capsys):
    wrong = GroupAction(perms=((0, 1, 2),), orbits=((0, 1, 2),))
    monkeypatch.setattr(stabilizers, "stabilizer_action", lambda c: wrong)
    _only_criteria(monkeypatch, {7})
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    [failed] = [line for line in captured.out.splitlines() if "[FAIL]" in line]
    assert failed.startswith(
        "criterion  7  [FAIL]  codimension-5 invariant dimensions equal 2,2,2,1,1,1"
        "  -- StabilizerGroupError: "
    )
    assert "disagree" in failed
    assert "Traceback" not in captured.out + captured.err


# ---------------------------------------------------------------------------
# The stabilizer chain against the all-leaves search
# ---------------------------------------------------------------------------

EXPLICIT = [e.cone for e in cn.catalog(6)]


def all_leaves_stabilizer(c):
    """Oracle: the permutations of every leaf of the unprescribed search,
    proved a group by multiplying every pair."""
    perms = sorted({perm for _, perm in cn._assignment_search(c.generators, c.generators, c.ambient)})
    members = set(perms)
    assert tuple(range(len(perms[0]))) in members
    for p in perms:
        for q in perms:
            assert tuple(p[x] for x in q) in members
    return tuple(perms)


def test_chain_covers_every_explicit_cone():
    assert len(EXPLICIT) == 26


@pytest.mark.parametrize("cone", EXPLICIT, ids=lambda c: c.name)
def test_chain_matches_all_leaves_oracle(cone):
    perms = all_leaves_stabilizer(cone)
    action = stabilizer_action(cone)
    assert action.perms == perms
    assert action.order == len(perms)


@pytest.mark.parametrize(
    "name,lengths",
    [
        ("C6", [6, 5, 4, 3, 2, 1]),
        ("C3+1+1+1", [3, 2, 3, 2, 1, 1]),
        ("K4", [6, 4, 1, 1, 1, 1]),
        ("K4-1", [4, 2, 1, 1, 1]),
    ],
)
def test_transversal_lengths(name, lengths):
    c = cn.catalog_cone(name)
    transversals = stabilizers._transversals(c.generators, c.ambient)
    assert [len(level) for level in transversals] == lengths
    assert math.prod(lengths) == stabilizer_action(c).order


PRESCRIBED_CONES = ["K3", "C4", "K4-1", "C5", "NS", "K4"]


@pytest.mark.parametrize("name", PRESCRIBED_CONES)
def test_prescribed_map_filters_the_unprescribed_leaves(name):
    # single images at every position, branched or forced, and pairs of them
    c = cn.catalog_cone(name)
    rays = c.generators
    n = len(rays)
    leaves = list(cn._assignment_search(rays, rays, c.ambient))
    maps = [{j: k} for j in range(n) for k in range(n)]
    maps += [{0: k, n - 1: m} for k in range(n) for m in range(n) if k != m]
    for prescribed in maps:
        got = list(cn._assignment_search(rays, rays, c.ambient, prescribed))
        assert all(perm[j] == k for _, perm in got for j, k in prescribed.items())
        assert got == [
            leaf for leaf in leaves if all(leaf[1][j] == k for j, k in prescribed.items())
        ]


def test_stabilizer_of_reordered_cone_is_indexed_by_its_own_order():
    # equal cones, generators in another order: the cached action of one
    # must not answer for the other
    c = cn.catalog_cone("K3+1")
    moved = cn.Cone(c.ambient, c.generators[::-1])
    assert moved == c
    assert stabilizer_action(c).orbits == ((0, 1, 2), (3,))
    assert stabilizer_action(moved).orbits == ((0,), (1, 2, 3))


def test_stabilizer_of_the_same_generators_is_built_once(fresh_stabilizer_cache):
    # a name only labels errors: the same ordered generators under another
    # name reuse the group
    named = cn.catalog_cone("1+1+1+1+1+1")
    unnamed = cn.Cone(6, mx.identity(6))
    assert (named.name, unnamed.name) == ("1+1+1+1+1+1", None)
    assert stabilizer_action(named).order == stabilizer_action(unnamed).order == 720
    info = stabilizers._stabilizer_action_cached.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_stabilizer_group_error_names_the_cone_it_was_asked_for(
    monkeypatch, fresh_stabilizer_cache
):
    _break_first_transversal(monkeypatch, "K3", _drop_last)
    k3 = cn.catalog_cone("K3")
    unnamed = cn.Cone(k3.ambient, k3.generators)
    for c, label in [(k3, "K3"), (unnamed, str(k3.generators)), (k3, "K3")]:
        with pytest.raises(stabilizers.StabilizerGroupError) as raised:
            stabilizer_action(c)
        assert str(raised.value).startswith(f"stabilizer image of {label}: the transversals")


@pytest.fixture
def fresh_stabilizer_cache():
    stabilizers._stabilizer_action_cached.cache_clear()
    yield
    stabilizers._stabilizer_action_cached.cache_clear()


def _break_first_transversal(monkeypatch, name, edit):
    """Replace the first transversal of the named cone's chain by edit(it);
    K3's is [id, (0 1), (0 2 1)]."""
    chain = stabilizers._transversals
    rays = cn.catalog_cone(name).generators

    def broken(vectors, ambient):
        transversals = chain(vectors, ambient)
        if tuple(vectors) == rays:
            transversals[0] = edit(transversals[0])
        return transversals

    monkeypatch.setattr(stabilizers, "_transversals", broken)


def _drop_last(level):
    # lengths 2*2*1 = 4, but the kept elements still generate S3
    return level[:-1]


def _foreign_last(level):
    # K3+1 fixes ray 3; a permutation moving it into the K3 rays is no
    # automorphism, and with S3 it generates S4
    return level[:-1] + [(0, 1, 3, 2)]


@pytest.mark.parametrize(
    "name,edit,message",
    [
        ("K3", _drop_last, "K3: the transversals generate 6 permutations, .* multiply to 4"),
        ("K3", lambda level: level[1:], "K3: the transversals generate 6 .* multiply to 4"),
        ("K3", lambda level: level + level[-1:], "K3: the transversals generate 6 .* multiply to 8"),
        ("K3+1", _foreign_last, "K3\\+1: the transversals generate 24 .* multiply to 6"),
    ],
    ids=["drop-representative", "drop-identity", "repeat-representative", "foreign-permutation"],
)
def test_closure_check_rejects_a_broken_transversal(
    monkeypatch, fresh_stabilizer_cache, name, edit, message
):
    _break_first_transversal(monkeypatch, name, edit)
    with pytest.raises(stabilizers.StabilizerGroupError, match=message):
        stabilizer_action(cn.catalog_cone(name))


# the FAIL detail of a row that reaches K3's stabilizer after `_drop_last`
BROKEN_K3 = "StabilizerGroupError: stabilizer image of K3: the transversals generate 6"


def test_verify_reports_stabilizer_group_error_as_fail(monkeypatch, fresh_stabilizer_cache):
    _break_first_transversal(monkeypatch, "K3", _drop_last)
    results = [verify.run_row(r) for r in verify.rows() if r.criterion == 8]
    assert [r.status for r in results] == [verify.FAIL, verify.FAIL, verify.PASS]
    assert all(r.detail.startswith(BROKEN_K3) for r in results[:2])
    text = verify.render_results(results)
    assert "criterion  8  [FAIL]  molien equals hilbert_free" in text
    assert "Traceback" not in text
    assert text.endswith("result: 2 check(s) FAILED")


def test_run_checks_reports_a_broken_chain_as_fail(monkeypatch, fresh_stabilizer_cache, capsys):
    # criteria 1-3 reach K3's stabilizer through the cached Molien prefixes
    betti._molien_prefix.cache_clear()
    _break_first_transversal(monkeypatch, "K3", _drop_last)
    _only_criteria(monkeypatch, {1, 2, 3})
    text = verify.render_results(verify.run_checks())
    assert text.count("[FAIL]") == 6
    assert text.count(f"  -- {BROKEN_K3}") == 6
    assert "Traceback" not in text
    assert main(["verify"]) == 1
    assert capsys.readouterr().out == text + "\n"


def test_a_broken_chain_fails_only_its_own_row(monkeypatch, fresh_stabilizer_cache):
    _break_first_transversal(monkeypatch, "K3", _drop_last)
    results = [verify.run_row(r) for r in verify.rows() if r.criterion == 7]
    assert [(r.name, r.status) for r in results] == [
        ("stabilizer image orders: K3 -> 6, C4 -> 24, NS -> 120", verify.FAIL),
        ("standard rank-i stabilizer image has order i! for i <= 6", verify.PASS),
        ("codimension-5 invariant dimensions equal 2,2,2,1,1,1", verify.PASS),
    ]
    assert results[0].detail.startswith(BROKEN_K3)


@pytest.mark.parametrize(
    "label,detail",
    [
        ("standard rank-i stabilizer image has order i! for i <= 6", ""),
        (
            "molien equals hilbert_free for the full-symmetric catalog actions",
            "fails on 1+1+1+1+1+1",
        ),
    ],
)
def test_rank_6_rows_fail_on_a_wrong_rank_6_group(monkeypatch, label, detail):
    # every rank-6 stabilizer made trivial: a row that stops at rank 5 still passes
    real = verify.stabilizer_action
    trivial = GroupAction(perms=(tuple(range(6)),), orbits=tuple((j,) for j in range(6)))
    monkeypatch.setattr(
        verify, "stabilizer_action", lambda c: trivial if c.ambient == 6 else real(c)
    )
    [row] = [r for r in verify.rows() if r.label == label]
    assert verify.run_row(row) == verify.CheckResult(row.criterion, label, verify.FAIL, detail)
