"""Desk-scale Voronoi reduction: shortest vectors, perfect domains, the
neighbor walk, arithmetic equivalence and face classification for g <= 5.

Everything is exact, in integers.  A rational form from outside is scaled to
integers once (`_integral`); a fraction-free LDL^T (`_ldl`, Bareiss without
pivoting) both tests positive-definiteness and drives a Fincke-Pohst
shortest-vector search in integers (`_short_vectors`).  Neighbors come from
an exact line search on the integer pencils d*Q + n*R, for rho = n/d kept as
a pair of integers.  Equivalence of forms comes from
`cones._assignment_search`, the one integral-symmetry search, over the
minimal vectors, with a congruence check on every map it yields; their
automorphisms come from the stabilizer chain on the same search
(`stabilizers.permutation_group`).  Each perfect domain's facets and
automorphism group are found once per process (`facets`,
`domain_automorphism_perms`), and the walk and the face lattice share them;
both work once per Aut(Q)-orbit, crossing one facet and keeping one face of
each.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import NamedTuple, Optional, Sequence

from . import polyhedral
from .cones import (
    Cone,
    _assignment_search,
    cone_dim,
    cones_equivalent,
    describe,
    reduce_to_span,
    render_catalog,
    sym2_pairs,
)
from .matrices import IntMatrix, IntVector, matmul, rank, sign_canonical, transpose, vec_content
from .stabilizers import StabilizerGroupError, permutation_group


class _QuadraticFormFields(NamedTuple):
    g: int
    matrix: tuple[tuple[int, ...], ...]


class QuadraticForm(_QuadraticFormFields):
    """Positive-definite integral quadratic form, as a symmetric matrix."""

    __slots__ = ()

    def __new__(cls, g, matrix):
        if len(matrix) != g or any(len(r) != g for r in matrix):
            raise ValueError("matrix size does not match rank")
        for i in range(g):
            for j in range(g):
                if matrix[i][j] != matrix[j][i]:
                    raise ValueError("matrix is not symmetric")
        if not _is_positive_definite(matrix):
            raise ValueError("form is not positive definite")
        return _QuadraticFormFields.__new__(cls, g, matrix)


class PerfectForm(NamedTuple):
    """A perfect form with its cached minimum and minimal vectors (up to sign).

    Built only by `perfect_form`, so the matrix is always primitive and
    integral.
    """

    form: QuadraticForm
    minimum: int
    min_vectors: tuple[IntVector, ...]


def _integral(matrix) -> tuple[list[list[int]], int]:
    """(S * matrix, S) for the least S > 0 that makes the rational matrix
    integral."""
    scale = lcm(*(x.denominator for row in matrix for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in matrix], scale


def _ldl(m) -> Optional[list[list[int]]]:
    """Bareiss LDL^T of a symmetric integer matrix, or None unless it is
    positive definite.

    Fraction-free elimination without pivoting: row k ends with the leading
    principal minor D_{k+1} on the diagonal, and x^T m x =
    sum_k (row_k . x)^2 / (D_k D_{k+1}) with D_0 = 1.  A pivot <= 0 is a
    leading minor <= 0, so the matrix is not positive definite (Sylvester).
    `matrices._bareiss` pivots and cannot serve: [[0,1],[1,0]] (+) [[0,1],[1,0]]
    is indefinite, yet its row swaps give positive pivots and sign +1.
    """
    rows = [list(row) for row in m]
    prev = 1
    for k, top in enumerate(rows):
        p = top[k]
        if p <= 0:
            return None
        for i in range(k + 1, len(rows)):
            f = rows[i][k]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = p
    return rows


def _is_positive_definite(matrix) -> bool:
    return _ldl(_integral(matrix)[0]) is not None


def _short_vectors(m, bound: int) -> Optional[list[tuple[int, IntVector]]]:
    """All x != 0 (up to sign) with x^T m x <= bound, with their values, or
    None unless the integer matrix m is positive definite.

    Fincke-Pohst with denominators cleared: for N = lcm(D_k D_{k+1}) and
    c_k = N / (D_k D_{k+1}), N x^T m x = sum_k c_k (row_k . x)^2 over the rows
    of `_ldl`.  With x_{k+1}, ... fixed, s = sum_{j>k} row_k[j] x_j and R left
    of N * bound, the admissible x_k are the integers with
    |D_{k+1} x_k + s| <= isqrt(R // c_k).
    """
    rows = _ldl(m)
    if rows is None:
        return None
    n = len(rows)
    minors = [1] + [rows[k][k] for k in range(n)]
    weights = [minors[k] * minors[k + 1] for k in range(n)]
    big = lcm(*weights)
    coeffs = [big // w for w in weights]
    results: list[tuple[int, IntVector]] = []
    x = [0] * n

    def rec(k: int, left: int):
        if k < 0:
            v = tuple(x)
            if any(v) and sign_canonical(v) == v:
                results.append((bound - left // big, v))
            return
        row, d, c = rows[k], minors[k + 1], coeffs[k]
        s = sum(row[j] * x[j] for j in range(k + 1, n))
        t = isqrt(left // c)
        for xk in range(-((t + s) // d), (t - s) // d + 1):
            x[k] = xk
            y = d * xk + s
            rec(k - 1, left - c * y * y)
        x[k] = 0

    rec(n - 1, big * bound)
    return results


def _minimum(m) -> Optional[tuple[int, tuple[IntVector, ...]]]:
    """Minimum of the integer form m over nonzero lattice vectors, with all
    minimizers up to sign, or None unless m is positive definite."""
    shorts = _short_vectors(m, min(m[i][i] for i in range(len(m))))
    if shorts is None:
        return None
    best = min(v for v, _ in shorts)
    return best, tuple(sorted(vec for val, vec in shorts if val == best))


def min_vectors(q: QuadraticForm) -> tuple[int, tuple[IntVector, ...]]:
    """Minimum of the form over nonzero lattice vectors, with all minimizers
    up to sign."""
    return _minimum(q.matrix)


def perfect_form(matrix) -> PerfectForm:
    """Normalize to a primitive integral matrix and cache the minimum data."""
    m, _ = _integral(matrix)
    content = vec_content([x for row in m for x in row])
    m = tuple(tuple(x // content for x in row) for row in m)
    q = QuadraticForm(len(m), m)
    mu, vecs = min_vectors(q)
    return PerfectForm(form=q, minimum=mu, min_vectors=vecs)


def domain(p: PerfectForm) -> Cone:
    """The cone spanned by the rank-1 forms of the minimal vectors.

    Full-dimensional exactly when the form is perfect; non-perfect input is
    rejected.
    """
    c = Cone(p.form.g, p.min_vectors)
    g = p.form.g
    if cone_dim(c) != g * (g + 1) // 2:
        raise ValueError("form is not perfect: its domain is not full-dimensional")
    return c


class Facet(NamedTuple):
    """A facet of a perfect domain: inward normal (in the dual coordinates of
    `sym2_pairs`) and the indices of the rays lying on it."""

    normal: IntVector
    rays: frozenset[int]


@lru_cache(maxsize=None)
def facets(p: PerfectForm) -> tuple[Facet, ...]:
    """Facets of the perfect domain of p, once per form per process.

    Keyed on the form, whose hash includes the order of its minimal vectors,
    and not on the `Cone`: cone equality ignores generator order, so a cone
    key could return facets indexed for another order.
    """
    coords = domain(p).sym2_matrix()
    return tuple(
        Facet(normal=n, rays=s) for n, s in polyhedral.facets(coords, len(coords[0]))
    )


def _normal_form_matrix(normal: IntVector, g: int):
    """Symmetric matrix R with sign(R(xi)) = sign(normal . sym2(xi))."""
    pairs = sym2_pairs(g)
    r = [[0] * g for _ in range(g)]
    for c, (i, j) in zip(normal, pairs):
        if i == j:
            r[i][i] = 2 * c
        else:
            r[i][j] = c
            r[j][i] = c
    return tuple(tuple(row) for row in r)


def _form_value(matrix, x):
    n = len(matrix)
    return sum(matrix[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


class NeighborSearchError(AssertionError):
    """The exact line search of `neighbor` broke its own invariants."""


def _below(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """a < b for rationals given as (numerator, denominator > 0)."""
    return a[0] * b[1] < b[0] * a[1]


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, for den > 0."""
    k = gcd(num, den)
    return num // k, den // k


def _midpoint(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """(a + b) / 2 in lowest terms."""
    return _lowest(a[0] * b[1] + b[0] * a[1], 2 * a[1] * b[1])


def neighbor(p: PerfectForm, facet: Facet) -> PerfectForm:
    """The contiguous perfect form across the facet.

    Exact line search on the pencil Q + rho*R for the inward normal R: rho is
    tightened until a vector outside the facet reaches the minimum exactly.
    rho = n/d is kept as an integer pair in lowest terms, so each pencil is
    the integer form d*Q + n*R, whose minimum is mu*d exactly when that of
    Q + rho*R is mu; rationals compare by cross-multiplication.  A bisection
    bracket handles losses of positive definiteness; whenever a vector drops
    strictly below the minimum, the exact crossing value
    (mu - Q(v)) / R(v) replaces rho, and must lie in the bracket
    (`NeighborSearchError`).  Invalid facet data signals a non-facet input.
    """
    g = p.form.g
    q = p.form.matrix
    facet_rays = [p.min_vectors[i] for i in sorted(facet.rays)]
    others = [v for i, v in enumerate(p.min_vectors) if i not in facet.rays]
    if rank(facet_rays) != g:
        raise ValueError("facet lies on the boundary of the rational closure")
    r = _normal_form_matrix(facet.normal, g)
    if any(_form_value(r, v) != 0 for v in facet_rays) or any(
        _form_value(r, v) <= 0 for v in others
    ):
        raise ValueError("normal does not cut out a facet of the domain")

    mu = p.minimum
    facet_set = set(facet_rays)
    rho = (1, 1)
    good = (0, 1)  # largest rho known to keep exactly the facet vectors
    bad = None  # smallest rho known to lie beyond the neighbor
    for _ in range(100000):
        n, d = rho
        m = [[d * q[i][j] + n * r[i][j] for j in range(g)] for i in range(g)]
        found = _minimum(m)
        if found is None:
            bad, rho = rho, _midpoint(good, rho)
            continue
        mur, vecs = found
        if mur == mu * d:
            if any(v not in facet_set for v in vecs):
                return perfect_form(m)
            good = rho
            rho = _midpoint(good, bad) if bad is not None else _lowest(2 * n, d)
            continue
        # a vector v with R(v) < 0 meets the minimum at rho = (Q(v) - mu) / -R(v)
        crossing = None
        for v in vecs:
            rv = _form_value(r, v)
            if rv < 0:
                c = (_form_value(q, v) - mu, -rv)
                if crossing is None or _below(c, crossing):
                    crossing = c
        if mur > mu * d or crossing is None or not _below(good, crossing) or _below(rho, crossing):
            raise NeighborSearchError(f"neighbor line search left its bracket at rho = {n}/{d}")
        bad, rho = rho, _lowest(*crossing)
    raise NeighborSearchError("neighbor line search did not terminate")


def _pull_back(matrix, u: IntMatrix) -> IntMatrix:
    """U^T Q U."""
    return matmul(matmul(transpose(u), matrix), u)


def equivalent_forms(p1: PerfectForm, p2: PerfectForm) -> bool:
    """Arithmetic equivalence: some U in GL(g,Z) with U^T Q2 U = Q1.

    Such a U maps the minimal vectors of Q1 onto those of Q2 up to sign, so
    it is among the maps of `_assignment_search`; the congruence is checked
    on each, which for perfect forms always holds but keeps the meaning on
    other input.  Both forms are primitive and integral already, so scaled
    forms compare equal.
    """
    q1, q2 = p1.form, p2.form
    if q1.g != q2.g or p1.minimum != p2.minimum:
        return False
    return any(
        _pull_back(q2.matrix, u) == q1.matrix
        for u, _ in _assignment_search(p1.min_vectors, p2.min_vectors, q1.g)
    )


def first_perfect_form(g: int) -> PerfectForm:
    """The classical starting point of the walk: x_i^2 terms plus all cross
    terms (the root lattice A_g)."""
    m = tuple(tuple(2 if i == j else 1 for j in range(g)) for i in range(g))
    return perfect_form(m)


MAX_GENUS = 5


@lru_cache(maxsize=None)
def enumerate_perfect(g: int) -> tuple[PerfectForm, ...]:
    """Complete neighbor walk up to arithmetic equivalence, once per genus.

    Facets in one Aut(Q)-orbit have equivalent neighbors, so the walk
    crosses only the first facet of each orbit, in `facets` order; the
    classes and their representatives are those of crossing every facet.
    """
    if g < 1:
        raise ValueError(f"perfect-form enumeration needs genus g >= 1, got g = {g}")
    if g > MAX_GENUS:
        raise ValueError(
            f"perfect-form enumeration is out of desk-scale scope: "
            f"needs g <= {MAX_GENUS}, got g = {g}"
        )
    start = first_perfect_form(g)
    classes = [start]
    queue = [start]
    while queue:
        p = queue.pop(0)
        perms = domain_automorphism_perms(p)
        crossed: set[frozenset] = set()
        for facet in facets(p):
            if facet.rays in crossed:
                continue
            crossed |= {frozenset(perm[i] for i in facet.rays) for perm in perms}
            rays = [p.min_vectors[i] for i in sorted(facet.rays)]
            if rank(rays) != g:
                continue  # boundary facet: no contiguous domain
            q = neighbor(p, facet)
            if not any(equivalent_forms(q, known) for known in classes):
                classes.append(q)
                queue.append(q)
    return tuple(classes)


@lru_cache(maxsize=None)
def domain_automorphism_perms(p: PerfectForm) -> tuple[tuple[int, ...], ...]:
    """Permutations of the minimal-vector rays induced by Aut(Q) in GL(g,Z),
    sorted, once per form per process; a non-perfect form raises
    `ValueError` (from `domain`).

    For a perfect Q the rank-1 forms of the minimal vectors span Sym^2, so Q
    is the only form taking the value mu on all of them.  A U that permutes
    them up to sign therefore has U^T Q U = Q, and Aut(Q) acts on them as
    the group of all such permutations: the stabilizer chain of
    `stabilizers.permutation_group`.  Keyed on the form, like `facets`.
    """
    domain(p)
    try:
        return permutation_group(p.min_vectors, p.form.g)
    except StabilizerGroupError as e:
        label = f"the perfect form {p.form.matrix}"
        raise StabilizerGroupError(f"stabilizer image of {label}: {e}") from None


def classify_faces(g: int, max_dim: int = 6) -> tuple[Cone, ...]:
    """GL(g,Z)-inequivalent faces of the perfect domains, up to max_dim,
    for 1 <= g <= MAX_GENUS.

    Each domain gives one face per orbit of its own automorphism group,
    the domain itself included, found bottom-up to max_dim
    (`polyhedral.face_ray_sets`); these are fused across domains by
    `cones_equivalent`, whose cached invariants reject most pairs at once.
    Results are reduced to their spans (ambient rank equals cone rank), so
    catalog representatives can be matched directly with `cones_equivalent`.
    """
    if not 0 <= max_dim <= 6:
        raise ValueError(
            f"face classification is validated for 0 <= max_dim <= 6, got max_dim = {max_dim}"
        )
    found: list[Cone] = []
    for p in enumerate_perfect(g):
        perms = domain_automorphism_perms(p)
        facet_sets = [f.rays for f in facets(p)]
        for rays in polyhedral.face_ray_sets(facet_sets, len(p.min_vectors), perms, max_dim):
            red = reduce_to_span(Cone(g, [p.min_vectors[i] for i in sorted(rays)]))
            if not any(cones_equivalent(red, other) is not None for other in found):
                found.append(red)
    found.sort(key=lambda c: (cone_dim(c), c.ambient, c.n_generators, c.generators))
    return tuple(found)


def render_forms(forms: Sequence[PerfectForm]) -> str:
    """Discovered forms in the cone-catalog text format, for diffing."""
    return render_catalog(
        [describe(domain(p).with_name(f"perfect-{p.form.g}-{k + 1}")) for k, p in enumerate(forms)]
    )
