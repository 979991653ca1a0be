import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from perfcone import cones as cn
from perfcone import matrices as mx


def mat(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


def zeros(r, c):
    return tuple((0,) * c for _ in range(r))


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
    """Oracle: the Smith normal form divisors, as quotients of determinantal
    divisors (gcds of minors), with no normal form code."""
    import math

    rows, cols = len(a), len(a[0]) if a else 0
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
    a = mat([[2, 0], [0, 3]])
    h, u = mx.hnf(a)
    assert mx.matmul(u, a) == h
    assert mx.det(u) in (1, -1)
    assert mx.lattice_index(h) == mx.lattice_index(a) == 6


def test_hnf_column_vector_gcd():
    a = mat([[4], [6]])
    h, u = mx.hnf(a)
    assert mx.matmul(u, a) == h
    assert h[0][0] == 2
    assert h[1][0] == 0


def snf_index(a):
    """Oracle for `lattice_index`: the product of the nonzero Smith divisors."""
    return prod(d for d in brute_reduce_divisors(a) if d)


def random_unimodular(rng, n):
    u = mx.identity(n)
    for _ in range(2 * n):
        if n < 2:
            break
        a, b = rng.sample(range(n), 2)
        shear = [list(row) for row in mx.identity(n)]
        shear[a][b] = rng.randint(-2, 2)
        u = mx.matmul(u, tuple(map(tuple, shear)))
    return u


def assert_span_basis(a, cols):
    """m is unimodular, coords reproduce the rows of a on the first r rows
    of m, and those rows are the kernel of the kernel of a."""
    a = tuple(map(tuple, a))
    m, coords = mx.span_basis(a, cols)
    r = mx.rank(a) if a else 0
    assert mx.det(m) in (1, -1), a
    assert len(coords) == len(a) and all(len(c) == r for c in coords), a
    if r:
        assert mx.matmul(coords, m[:r]) == a, a
    else:
        assert not any(any(row) for row in a), a
    assert m[:r] == mx.kernel_basis(mx.kernel_basis(a, cols=cols), cols=cols), a


def test_snf_identity_and_zero():
    assert mx.lattice_index(mx.identity(4)) == snf_index(mx.identity(4)) == 1
    assert mx.lattice_index(zeros(3, 3)) == snf_index(zeros(3, 3)) == 1
    assert mx.lattice_index(()) == 0


def test_snf_divisibility_and_unimodular_invariance():
    # the index of a span in its saturation is the product of the nonzero
    # Smith divisors, and row or column operations keep it
    rng = random.Random(7)
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        low = rng.choice([None, None, 1, 2])
        a = _random_matrix(rng, rows, cols, low)
        index = mx.lattice_index(a)
        assert index == snf_index(a), a
        assert mx.lattice_index(mx.matmul(random_unimodular(rng, rows), a)) == index
        assert mx.lattice_index(mx.matmul(a, random_unimodular(rng, cols))) == index


def test_saturate_scaling():
    assert mx.span_basis([(2, 0)], 2) == (((1, 0), (0, 1)), ((2,),))


def test_saturate_index_two():
    # the span has index 2 in Z^2; the saturation is all of Z^2
    vectors = ((1, 1), (1, -1))
    assert mx.span_basis(vectors, 2) == (mx.identity(2), vectors)
    assert mx.lattice_index(vectors) == 2


def test_saturate_empty_and_idempotent():
    assert mx.span_basis([], 3) == (mx.identity(3), ())
    m, _ = mx.span_basis([(2, 4, 0), (0, 6, 0)], 3)
    again, back = mx.span_basis(m[:2], 3)
    # the same lattice: each basis is an integer combination of the other
    assert mx.matmul(back, again[:2]) == m[:2]
    assert mx.det(back) in (1, -1)


def test_span_basis_properties_on_random_matrices():
    rng = random.Random(23)
    for _ in range(300):
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        low = rng.choice([None, 1, 2, 3])
        assert_span_basis(_random_matrix(rng, rows, cols, low) if rows else (), cols)


def test_rank_identity_and_snf_consistency():
    assert mx.rank(mx.identity(5)) == 5
    rng = random.Random(3)
    for _ in range(20):
        a = mat([[rng.randint(-4, 4) for _ in range(3)] for _ in range(4)])
        nonzero = sum(1 for d in brute_reduce_divisors(a) if d)
        assert mx.rank(a) == nonzero


def test_kernel_basis_is_saturated_kernel():
    a = mat([[1, 2, 3], [2, 4, 6]])
    ker = mx.kernel_basis(a)
    assert len(ker) == 2
    for v in ker:
        assert mx.mat_vec(a, v) == (0, 0)
    # saturated: content of any primitive combination stays 1
    assert mx.lattice_index(ker) == 1


def test_solve_rational():
    a = mat([[2, 0], [0, 4]])
    assert mx.solve_rational(a, (1, 2)) == (Fraction(1, 2), Fraction(1, 2))
    assert mx.solve_rational(mat([[1, 1], [1, 1]]), (0, 1)) is None


def test_invert_unimodular():
    a = mat([[1, 2], [2, 5]])
    inv = mx.invert_unimodular(a)
    assert mx.matmul(a, inv) == mx.identity(2)
    with pytest.raises(ValueError):
        mx.invert_unimodular(mat([[2, 0], [0, 1]]))


def test_max_minors_cofactor_oracle():
    a = mat([[1, 0, 1], [0, 1, 0], [0, 0, -1]])
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
    # a kernel basis row is a row of a unimodular matrix, so primitive
    rng = random.Random(41)
    for _ in range(100):
        a = _random_matrix(rng, rng.randint(1, 3), rng.randint(2, 5), rng.choice([None, 1]))
        assert all(mx.vec_content(v) == 1 for v in mx.kernel_basis(a))
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
        return mat([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
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
        a = _random_matrix(rng, n, n)
        while mx.det(a) == 0:
            a = _random_matrix(rng, n, n)
        adj, d = mx.adjugate(a)
        assert d == mx.det(a)
        scalar = tuple(tuple(d if i == j else 0 for j in range(n)) for i in range(n))
        assert mx.matmul(adj, a) == scalar
        assert mx.matmul(a, adj) == scalar


def test_adjugate_of_rank_deficient_matrices():
    # every caller inverts a basis or a positive definite Gram matrix, so a
    # singular matrix is an error, not a zero determinant
    for a in (mat([[1, 2], [2, 4]]), zeros(3, 3)):
        with pytest.raises(ValueError, match="singular"):
            mx.adjugate(a)
    with pytest.raises(ValueError, match="non-square"):
        mx.adjugate(mat([[1, 2, 3], [4, 5, 6]]))


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


def test_independent_indices_match_greedy_rank_loop():
    rng = random.Random(23)
    for _ in range(300):
        ambient, count = rng.randint(1, 6), rng.randint(0, 8)
        low = rng.choice([None, 1, 2, 3])
        vectors = _random_matrix(rng, count, ambient, low) if count else ()
        greedy = []
        for i, v in enumerate(vectors):
            if mx.rank([vectors[j] for j in greedy] + [v]) > len(greedy):
                greedy.append(i)
        assert mx.independent_indices(vectors) == tuple(greedy), vectors


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
    # targets below is odd somewhere, so no map is integral; the fingerprints
    # differ already on the diagonal, so no branch reaches a leaf
    leaves = []
    monkeypatch.setattr(cn, "integral_map", lambda *args: leaves.append(args))
    src = [(1, 1), (1, -1), (1, 0)]
    dst = [(1, 0), (0, 1), (1, 1)]
    assert list(cn._assignment_search(src, dst, 2)) == []
    assert leaves == []


def test_assignment_search_rejects_non_integral_map_at_the_leaf(monkeypatch):
    # (1, 1) -> (1, 0), (1, -1) -> (0, 2) is the rational map ((1, 1), (2, -2)) / 2
    # of determinant -1, and it sends (1, 3) to (2, -2): the leaves pass the
    # fingerprint, and only the integrality of the map rejects them
    maps = []
    integral_map = cn.integral_map

    def record(*args):
        maps.append(integral_map(*args))
        return maps[-1]

    monkeypatch.setattr(cn, "integral_map", record)
    src = [(1, 1), (1, -1), (1, 3)]
    dst = [(1, 0), (0, 2), (2, -2)]
    assert cn._pairings(src, 2) == cn._pairings(dst, 2)
    assert list(cn._assignment_search(src, dst, 2)) == []
    assert maps and maps == [None] * len(maps)


def test_f2_kernel_matches_every_zero_sum_column_subset():
    # oracle: the nonzero subsets of columns whose XOR is 0, as bitmasks
    rng = random.Random(11)
    families = [[], [0], [5, 5], [0, 3, 0, 3]]
    families += [[rng.randrange(16) for _ in range(rng.randrange(1, 9))] for _ in range(300)]
    for cols in families:
        want = []
        for subset in range(1, 1 << len(cols)):
            xor = 0
            for j, c in enumerate(cols):
                if subset >> j & 1:
                    xor ^= c
            if xor == 0:
                want.append(subset)
        assert mx.f2_kernel(cols) == want, cols
