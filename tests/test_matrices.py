import itertools
import random
from fractions import Fraction

import pytest

from perfcone import cones as cn
from perfcone import matrices as mx


def max_minors(a, r):
    """All r x r minors, in lexicographic order of (row subset, column subset)."""
    rows, cols = mx.shape(a)
    if r > rows or r > cols:
        return ()
    out = []
    for rsel in itertools.combinations(range(rows), r):
        for csel in itertools.combinations(range(cols), r):
            out.append(mx.det(tuple(tuple(a[i][j] for j in csel) for i in rsel)))
    return tuple(out)


def brute_reduce_divisors(a):
    """Oracle for snf: repeated gcd row/column reduction, no normal form code."""
    import math

    m = [list(r) for r in a]
    rows, cols = len(m), len(m[0]) if m else 0
    divs = []
    k = 0
    while k < min(rows, cols):
        entries = [abs(m[i][j]) for i in range(k, rows) for j in range(k, cols) if m[i][j]]
        if not entries:
            break
        # the k-th divisor is the gcd of all (k+1)x(k+1) minors divided by the
        # gcd of all k x k minors
        k += 1
        divs.append(None)
        if k > min(rows, cols):
            break
    # simpler: compute determinantal divisors directly
    out = []
    prev = 1
    for r in range(1, min(rows, cols) + 1):
        minors = max_minors(tuple(map(tuple, a)), r)
        g = 0
        for x in minors:
            g = math.gcd(g, abs(x))
        if g == 0:
            out.append(0)
        else:
            out.append(g // prev)
            prev = g
    return tuple(out)


def test_hnf_identity():
    h, u = mx.hnf(mx.identity(3))
    assert h == mx.identity(3)
    assert u == mx.identity(3)


def test_hnf_transform_relation():
    a = mx.mat([[2, 0], [0, 3]])
    h, u = mx.hnf(a)
    assert mx.matmul(u, a) == h
    assert mx.det(u) in (1, -1)
    assert mx.snf(h) == mx.snf(a) == (1, 6)


def test_hnf_column_vector_gcd():
    a = mx.mat([[4], [6]])
    h, u = mx.hnf(a)
    assert mx.matmul(u, a) == h
    assert h[0][0] == 2
    assert h[1][0] == 0


def test_snf_identity_and_zero():
    assert mx.snf(mx.identity(4)) == (1, 1, 1, 1)
    assert mx.snf(mx.zeros(3, 3)) == (0, 0, 0)


def test_snf_divisibility_and_unimodular_invariance():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = mx.mat([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        d = mx.snf(a)
        for x, y in zip(d, d[1:]):
            if y:
                assert x and y % x == 0
            # trailing zeros allowed
        assert d == brute_reduce_divisors(a)
        # multiply by small unimodular matrices on both sides
        u = mx.mat([[1, rng.randint(-2, 2)], [0, 1]]) if rows == 2 else mx.identity(rows)
        v = mx.identity(cols)
        assert mx.snf(mx.matmul(u, a)) == d
        assert mx.snf(mx.matmul(a, v)) == d


def test_saturate_scaling():
    assert mx.saturate([(2, 0)]) == ((1, 0),)


def test_saturate_index_two():
    basis = mx.saturate([(1, 1), (1, -1)])
    # the span has index 2 in Z^2; the saturation is all of Z^2
    assert len(basis) == 2
    assert abs(mx.det(basis)) == 1


def test_saturate_empty_and_idempotent():
    assert mx.saturate([]) == ()
    basis = mx.saturate([(2, 4, 0), (0, 6, 0)])
    again = mx.saturate(basis)
    assert mx.rank(basis) == mx.rank(again) == 2
    # same lattice: each basis vector of one is an integer combination of the other
    for v in basis:
        sol = mx.solve_rational(mx.transpose(again), v)
        assert sol is not None and all(x.denominator == 1 for x in sol)


def test_rank_identity_and_snf_consistency():
    assert mx.rank(mx.identity(5)) == 5
    rng = random.Random(3)
    for _ in range(20):
        a = mx.mat([[rng.randint(-4, 4) for _ in range(3)] for _ in range(4)])
        nonzero = sum(1 for d in mx.snf(a) if d)
        assert mx.rank(a) == nonzero


def test_kernel_basis_is_saturated_kernel():
    a = mx.mat([[1, 2, 3], [2, 4, 6]])
    ker = mx.kernel_basis(a)
    assert len(ker) == 2
    for v in ker:
        assert mx.mat_vec(a, v) == (0, 0)
    # saturated: content of any primitive combination stays 1
    assert mx.lattice_index(ker) == 1


def test_solve_rational():
    a = mx.mat([[2, 0], [0, 4]])
    assert mx.solve_rational(a, (1, 2)) == (Fraction(1, 2), Fraction(1, 2))
    assert mx.solve_rational(mx.mat([[1, 1], [1, 1]]), (0, 1)) is None


def test_invert_unimodular():
    a = mx.mat([[1, 2], [2, 5]])
    inv = mx.invert_unimodular(a)
    assert mx.matmul(a, inv) == mx.identity(2)
    with pytest.raises(ValueError):
        mx.invert_unimodular(mx.mat([[2, 0], [0, 1]]))


def test_max_minors_cofactor_oracle():
    a = mx.mat([[1, 0, 1], [0, 1, 0], [0, 0, -1]])
    minors = max_minors(a, 3)
    assert minors == (mx.det(a),)
    assert 1 in minors or -1 in minors
    two = max_minors(a, 2)
    # oracle: direct 2x2 determinants
    expected = []
    for rs in itertools.combinations(range(3), 2):
        for cs in itertools.combinations(range(3), 2):
            expected.append(
                a[rs[0]][cs[0]] * a[rs[1]][cs[1]] - a[rs[0]][cs[1]] * a[rs[1]][cs[0]]
            )
    assert list(two) == expected


def test_primitive_and_sign_canonical():
    assert mx.primitive_vector((Fraction(1, 2), Fraction(-3, 2))) == (1, -3)
    assert mx.sign_canonical((-1, 2)) == (1, -2)
    assert mx.sign_canonical((0, -2)) == (0, 2)


def fraction_rank(a):
    """Oracle: Gauss-Jordan over Fraction."""
    m = [[Fraction(x) for x in row] for row in a]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _random_matrix(rng, rows, cols, rank_at_most=None):
    if rank_at_most is None:
        return mx.mat([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
    left = [[rng.randint(-2, 2) for _ in range(rank_at_most)] for _ in range(rows)]
    right = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rank_at_most)]
    return mx.matmul(left, right)


def leibniz_det(a):
    """Oracle: the permutation expansion of the determinant."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def test_det_matches_leibniz_oracle():
    # sparse entries, so that zero leading columns and row swaps are common
    rng = random.Random(61)
    for _ in range(500):
        n = rng.randint(0, 5)
        a = tuple(tuple(rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)) for _ in range(n))
        assert mx.det(a) == leibniz_det(a), a
    with pytest.raises(ValueError):
        mx.det(((1, 2),))


def cofactor_det(a):
    """Oracle: Laplace expansion along the first row."""
    if not a:
        return 1
    return sum(
        (-1) ** j * x * cofactor_det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j, x in enumerate(a[0])
        if x
    )


def cofactor_rank(a):
    """Oracle: the largest r with a nonzero r x r minor, each minor by
    cofactor expansion."""
    rows, cols = len(a), len(a[0])
    for r in range(min(rows, cols), 0, -1):
        for rsel in itertools.combinations(range(rows), r):
            for csel in itertools.combinations(range(cols), r):
                if cofactor_det([[a[i][j] for j in csel] for i in rsel]):
                    return r
    return 0


def test_bareiss_det_and_rank_match_cofactor_oracle():
    # full-rank and rank-deficient 4x4 and 5x5 matrices, so that some columns
    # have no pivot and the forward elimination skips them
    rng = random.Random(97)
    for _ in range(120):
        n = rng.choice((4, 5))
        low = rng.choice([None, None, 1, 2, n - 1])
        a = [list(row) for row in _random_matrix(rng, n, n, low)]
        assert mx.det(a) == cofactor_det(a), a
        assert mx.rank(a) == cofactor_rank(a), a


def test_adjugate_times_matrix_is_determinant_times_identity():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 6)
        # most are singular: of rank n - 1 (a nonzero adjugate) or less
        low = rng.choice([None, n - 1, max(n - 2, 0)])
        a = _random_matrix(rng, n, n, low if low else None)
        adj, d = mx.adjugate(a)
        assert d == mx.det(a)
        scalar = tuple(tuple(d if i == j else 0 for j in range(n)) for i in range(n))
        assert mx.matmul(adj, a) == scalar
        assert mx.matmul(a, adj) == scalar


def test_adjugate_of_rank_deficient_matrices():
    adj, d = mx.adjugate(mx.mat([[1, 2], [2, 4]]))
    assert (adj, d) == (((4, -2), (-2, 1)), 0)
    assert mx.adjugate(mx.zeros(3, 3)) == (mx.zeros(3, 3), 0)
    with pytest.raises(ValueError):
        mx.adjugate(mx.mat([[1, 2, 3], [4, 5, 6]]))


def test_bareiss_rank_matches_fraction_oracle_on_integer_matrices():
    rng = random.Random(5)
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        low = rng.choice([None, 1, 2, 3])
        a = _random_matrix(rng, rows, cols, low)
        assert mx.rank(a) == fraction_rank(a)


def test_bareiss_rank_matches_fraction_oracle_on_rational_matrices():
    rng = random.Random(6)
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows > 1 and rng.random() < 0.5:
            a[-1] = [x + Fraction(1, 3) * y for x, y in zip(a[0], a[1 % rows])]
        assert mx.rank(a) == fraction_rank(a)
    assert mx.rank([]) == 0
    assert mx.rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1


def test_integral_map_solves_or_rejects():
    basis = [(1, 1), (1, -1)]
    adj, d = mx.adjugate(mx.transpose(basis))
    # (1, 1) -> (1, 0) and (1, -1) -> (0, 1) needs halves
    assert mx.integral_map(adj, d, [(1, 0), (0, 1)]) is None
    r = mx.integral_map(adj, d, [(2, 0), (0, 2)])
    assert r == ((1, 1), (1, -1))
    assert [mx.mat_vec(r, v) for v in basis] == [(2, 0), (0, 2)]


def test_assignment_search_rejects_non_unimodular_map():
    # every linear map sends (2, 0) to +-(1, 0) or +-(0, 1): not integral
    assert list(cn._assignment_search([(2, 0), (0, 1)], [(1, 0), (0, 1)], 2)) == []
    # the other way round each map is integral, but of determinant +-2
    assert list(cn._assignment_search([(1, 0), (0, 1)], [(2, 0), (0, 1)], 2)) == []


def test_assignment_search_rejects_non_integral_forced_image(monkeypatch):
    # (1, 0) is half of (1, 1) + (1, -1), and every signed sum of two of the
    # targets below is odd somewhere, so each forced image fails to divide
    leaves = []
    monkeypatch.setattr(cn, "integral_map", lambda *args: leaves.append(args))
    src = [(1, 1), (1, -1), (1, 0)]
    dst = [(1, 0), (0, 1), (1, 1)]
    assert list(cn._assignment_search(src, dst, 2)) == []
    assert leaves == []
