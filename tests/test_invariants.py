import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from perfcone import cones as cn
from perfcone import matrices as mx
from perfcone import invariants, verify
from perfcone.cli import main
from perfcone.invariants import MolienSumError, koszul_check, molien
from perfcone.series import product_free, rational_inverse
from perfcone.stabilizers import GroupAction, invariant_dim_degree1, stabilizer_action

# not a group: its degree-1 Molien sum is 3, which |G| = 2 does not divide
NON_GROUP = GroupAction(perms=((0, 1, 2), (1, 2, 0)), orbits=((0, 1, 2),))


def brute_molien_permutations(perms, max_deg):
    """Oracle: count monomials fixed on average, via explicit orbit counting.

    For a permutation action the Molien coefficient in degree d is the number
    of orbits of monomials of degree d, counted by Burnside's lemma with
    exact cycle-index arithmetic done the slow way: average the number of
    monomials fixed by each permutation.
    """
    import itertools

    n = len(perms[0])
    out = []
    for d in range(max_deg + 1):
        total = Fraction(0)
        monos = list(itertools.combinations_with_replacement(range(n), d))
        for p in perms:
            fixed = 0
            for mono in monos:
                image = tuple(sorted(p[i] for i in mono))
                if image == mono:
                    fixed += 1
            total += fixed
        val = total / len(perms)
        assert val.denominator == 1
        out.append(int(val))
    return tuple(out)


def span_basis_matrices(c):
    """Exact matrices of the stabilizer image on a basis of Span(sigma).

    The basis is an independent subset of the rank-1 forms of the
    generators; each group element maps the basis forms to permuted forms, written
    in that basis by exact rational solves.
    """
    rays = c.generators
    forms = [cn.sym2_coordinates(v) for v in rays]
    basis_idx = []
    for j, f in enumerate(forms):
        if mx.rank([forms[i] for i in basis_idx] + [f]) > len(basis_idx):
            basis_idx.append(j)
    basis_rows = tuple(forms[i] for i in basis_idx)
    coords = [mx.solve_rational(mx.transpose(basis_rows), f) for f in forms]
    return [
        mx.transpose([coords[perm[b]] for b in basis_idx])
        for perm in stabilizer_action(c).perms
    ]


def det_one_minus_t(e):
    """Coefficients of det(1 - t*E) via the characteristic polynomial.

    Faddeev-LeVerrier: det(lambda - E) = sum c_k lambda^(d-k) gives
    det(1 - tE) = sum c_k t^k with c_0 = 1.
    """
    d = len(e)
    m = [[Fraction(x) for x in row] for row in e]
    coeffs = [Fraction(1)]
    aux = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        prod = [
            [sum(m[i][t] * aux[t][j] for t in range(d)) for j in range(d)]
            for i in range(d)
        ]
        tr = sum(prod[i][i] for i in range(d))
        ck = -tr / k
        coeffs.append(ck)
        aux = [
            [prod[i][j] + (ck if i == j else 0) for j in range(d)] for i in range(d)
        ]
    return tuple(coeffs)


def matrix_molien(c, max_deg):
    """Oracle: Molien's theorem on the span-basis matrices, averaged over Q."""
    elements = span_basis_matrices(c)
    total = [Fraction(0)] * (max_deg + 1)
    for e in elements:
        inv = rational_inverse(det_one_minus_t(e), max_deg)
        for k in range(max_deg + 1):
            total[k] += inv[k]
    return tuple(x / len(elements) for x in total)


def test_molien_trivial_group():
    action = stabilizer_action(cn.catalog_cone("1"))
    assert action.order == 1
    assert molien(action, 6).coeffs == (1, 1, 1, 1, 1, 1, 1)


def test_molien_trivial_group_higher_dim_is_free_on_degree_ones():
    action = GroupAction(perms=((0, 1, 2),), orbits=((0,), (1,), (2,)))
    assert molien(action, 6).coeffs == product_free([1, 1, 1], 6).coeffs


def test_molien_matches_matrix_oracle_on_tables_cones():
    # every explicit catalog cone of dim <= 5, plus K4
    tables_cones = [e.cone for e in cn.catalog(5)]
    tables_cones.append(cn.catalog_cone("K4"))
    assert len(tables_cones) == 14
    for c in tables_cones:
        assert molien(stabilizer_action(c), 8).coeffs == matrix_molien(c, 8), c.name


def test_molien_rejects_non_group():
    with pytest.raises(MolienSumError, match=r"\|G\| = 2"):
        molien(NON_GROUP, 1)


def test_verify_molien_check_fails_on_non_group(monkeypatch):
    monkeypatch.setattr(verify, "stabilizer_action", lambda c: NON_GROUP)
    results = {r.label: verify.run_row(r) for r in verify.rows() if r.criterion == 8}
    integral = results["molien coefficients are nonnegative integers (catalog, depth 8)"]
    assert integral.status == verify.FAIL
    assert "K3:" in integral.detail
    full_sym = results["molien equals hilbert_free for the full-symmetric catalog actions"]
    assert full_sym.status == verify.FAIL and full_sym.detail == "fails on 1+1"


def test_koszul_row_reaches_every_dim_6_cone(monkeypatch):
    real = verify.koszul_check

    def fail_on_one(c, max_total):
        return SimpleNamespace(passed=False) if c.name == "6d-g6-y" else real(c, max_total)

    monkeypatch.setattr(verify, "koszul_check", fail_on_one)
    [row] = [r for r in verify.rows() if r.label.startswith("koszul")]
    failed = verify.CheckResult(8, row.label, verify.FAIL, "failing: ['6d-g6-y']")
    assert verify.run_row(row) == failed


def test_molien_s3_brute_force_oracle():
    action = stabilizer_action(cn.catalog_cone("K3"))
    s = molien(action, 6)
    assert s.coeffs == (1, 1, 2, 3, 4, 5, 7)
    assert s.coeffs == brute_molien_permutations(action.perms, 6)
    assert s.coeffs == product_free([1, 2, 3], 6).coeffs


def test_molien_s4_low_degrees():
    action = stabilizer_action(cn.catalog_cone("C4"))
    assert molien(action, 3).coeffs == (1, 1, 2, 3)


def test_molien_full_symmetric_catalog_cones_match_hilbert_free():
    for name, k in (("1+1", 2), ("K3", 3), ("C4", 4), ("NS", 5), ("1+1+1+1+1", 5)):
        action = stabilizer_action(cn.catalog_cone(name))
        if action.order != [1, 1, 2, 6, 24, 120][k]:
            continue
        assert molien(action, 6).coeffs == product_free(list(range(1, k + 1)), 6).coeffs


def test_molien_coefficient_one_equals_invariant_dim():
    for e in cn.catalog(5):
        action = stabilizer_action(e.cone)
        assert molien(action, 1).coeffs[1] == invariant_dim_degree1(e.cone), e.name


def test_molien_conjugation_invariance():
    rng = random.Random(23)
    c = cn.catalog_cone("K3+1")
    base = molien(stabilizer_action(c), 6)
    u = mx.identity(3)
    for _ in range(5):
        a, b = rng.sample(range(3), 2)
        shear = [list(row) for row in mx.identity(3)]
        shear[a][b] = rng.randint(-2, 2)
        u = mx.matmul(u, tuple(map(tuple, shear)))
    r = mx.transpose(mx.invert_unimodular(u))
    moved = cn.Cone(3, [mx.mat_vec(r, g) for g in c.generators])
    assert molien(stabilizer_action(moved), 6).coeffs == base.coeffs


def test_hilbert_free_examples():
    assert product_free([1, 2, 3], 6).coeffs == (1, 1, 2, 3, 4, 5, 7)
    assert product_free([], 4).coeffs == (1, 0, 0, 0, 0)
    lam = product_free([2, 6, 10], 12)
    assert tuple(lam.coeffs[k] for k in range(0, 13, 2)) == (1, 1, 1, 2, 2, 3, 4)


def test_koszul_sigma1_trivial():
    rep = koszul_check(cn.catalog_cone("1"), 6)
    assert rep.w_rank == 0
    assert rep.passed
    assert rep.bottom_row == (1, 1, 1, 1, 1, 1, 1)


def test_koszul_sigma_1_plus_1_bottom_row():
    rep = koszul_check(cn.catalog_cone("1+1"), 6)
    assert rep.passed
    assert rep.bottom_row == (1, 2, 3, 4, 5, 6, 7)


def test_koszul_k3_full_dimensional():
    rep = koszul_check(cn.catalog_cone("K3"), 6)
    assert rep.w_rank == 0
    assert rep.passed
    # dim Sym^k(Sym^2 Q^2)
    assert rep.bottom_row == tuple(math.comb(k + 2, k) for k in range(7))


def test_koszul_standard_rank3():
    rep = koszul_check(cn.catalog_cone("1+1+1"), 8)
    assert rep.passed
    # bottom row : dim Sym^k(Q^3)
    assert rep.bottom_row == tuple((k + 1) * (k + 2) // 2 for k in range(9))


def dense_strand_cohomology(c, n):
    """Oracle for `koszul_check`: brute-force cohomology of one strand with
    explicit monomial bases.

    Only usable for small cones, where the monomial bases stay tiny.
    Monomials are ordered lexicographically.
    """
    w_basis = [list(map(Fraction, v)) for v in cn.orth_lattice(c)]
    w = len(w_basis)
    m = len(cn.sym2_pairs(c.ambient))

    def monomials(deg):
        return list(itertools.combinations_with_replacement(range(m), deg))

    def wedge_basis(q):
        return list(itertools.combinations(range(w), q))

    spaces = []
    for q in range(n + 1):
        spaces.append([(s, mu) for s in wedge_basis(q) for mu in monomials(n - q)])
    index = [{b: t for t, b in enumerate(sp)} for sp in spaces]

    mats = []
    for q in range(1, n + 1):
        rows = len(spaces[q - 1])
        matrix = [[Fraction(0)] * len(spaces[q]) for _ in range(rows)]
        for cidx, (s, mu) in enumerate(spaces[q]):
            for pos, j in enumerate(s):
                rest = tuple(x for x in s if x != j)
                sign = (-1) ** pos
                for var in range(m):
                    coef = w_basis[j][var]
                    if coef == 0:
                        continue
                    new_mu = tuple(sorted(mu + (var,)))
                    ridx = index[q - 1][(rest, new_mu)]
                    matrix[ridx][cidx] += sign * coef
        mats.append(matrix)

    out = []
    for q in range(n + 1):
        dim_q = len(spaces[q])
        r_in = mx.rank(mats[q - 1]) if 1 <= q <= len(mats) and mats[q - 1] else 0
        r_out = mx.rank(mats[q]) if q < len(mats) and mats[q] else 0
        out.append(dim_q - r_in - r_out)
    return tuple(out)


def test_koszul_matches_dense_oracle_small_cones():
    for name in ("1+1", "1+1+1", "K3+1"):
        c = cn.catalog_cone(name)
        rep = koszul_check(c, 4)
        for n in range(5):
            dense = dense_strand_cohomology(c, n)
            assert (rep.bottom_row[n],) + (0,) * n == dense, (name, n)


def test_koszul_depth_capped():
    with pytest.raises(ValueError):
        koszul_check(cn.catalog_cone("1+1"), 9)
    with pytest.raises(ValueError, match="nonnegative"):
        koszul_check(cn.catalog_cone("1+1"), -1)


def _broken_orth_lattice(kind):
    """orth_lattice with W scaled by 2, or with a functional that is
    positive on the first generator's rank-1 form added to its first
    vector; the rank of W stays the same either way."""
    real = cn.orth_lattice

    def broken(c):
        w = real(c)
        if not w:
            return w
        if kind == "scaled":
            return tuple(tuple(2 * x for x in f) for f in w)
        s = cn.sym2_coordinates(c.generators[0])
        return (tuple(x + y for x, y in zip(w[0], s)),) + w[1:]

    return broken


@pytest.mark.parametrize("kind", ["scaled", "not vanishing"])
def test_koszul_check_fails_on_a_broken_w(monkeypatch, capsys, kind):
    monkeypatch.setattr(invariants, "orth_lattice", _broken_orth_lattice(kind))
    rep = koszul_check(cn.catalog_cone("1+1"), 4)
    assert rep.w_rank == 1 and not rep.passed
    assert main(["koszul", "1+1", "--max-total", "4"]) == 1
    assert capsys.readouterr().out.endswith("FAILED\n")
    rows = [verify.run_row(r) for r in verify.rows() if r.label.startswith("koszul")]
    assert [r.status for r in rows] == [verify.FAIL]
