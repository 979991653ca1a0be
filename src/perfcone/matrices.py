"""Exact integer and rational linear algebra on small dense matrices.

Matrices are tuples of tuples (rows) of Python ints or Fractions; vectors are
tuples.  Everything is exact: no floating point is used anywhere in this
package.  Sizes stay tiny (at most ~25 rows/columns), so the algorithms favour
clarity over asymptotics.

Elimination is fraction-free (Bareiss): `det`, `rank`, `independent_indices`
and `adjugate` work in integers, dividing only where the division is exact.
An integral map is found by inverting its source basis once, as an integer
adjugate and a determinant, after which each candidate costs one integer
product and a divisibility test (`integral_map`).

`_hermite` is the one lattice kernel.  Integer kernels (`kernel_basis`) and
the saturation of a span with coordinates on it, completed to a unimodular
matrix (`span_basis`), are one or two `hnf` calls, which keep the transform;
the index of a span in its saturation (`lattice_index`) is two eliminations
without one.
`solve_rational`, Gauss-Jordan over Q, has no caller in the package; it is
the rational oracle of the tests.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(a: Sequence[Sequence]) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def transpose(a):
    return tuple(zip(*a)) if a else ()


def matmul(a, b):
    if not a or not b:
        return ()
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vec_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def vec_content(v) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def sign_canonical(v: Sequence[int]) -> IntVector:
    """Flip the sign so the first nonzero entry is positive."""
    for x in v:
        if x != 0:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def _bareiss(m: list[list[int]], ncols: int, jordan: bool = False) -> tuple[list[int], int]:
    """Fraction-free elimination of the integer rows `m`, in place.

    Pivots on the first `ncols` columns in order, skipping a column with no
    nonzero entry at or below the current row.  Each step replaces every row
    below the pivot row (with `jordan`, every other row) by
    pivot * row - entry * pivot_row, divided exactly by the previous pivot
    (Bareiss, Math. Comp. 1968), so every entry stays a minor of the input.
    Without `jordan` the rows below the pivot are already zero left of the
    pivot column, so only the columns from it on are rebuilt.
    Returns the pivot columns and the sign of the row permutation.
    """
    rows = len(m)
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == rows:
            break
        piv = r
        while piv < rows and m[piv][c] == 0:
            piv += 1
        if piv == rows:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        start = 0 if jordan else c
        tail = top[start:]
        for i in range(rows) if jordan else range(r + 1, rows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            if f == 0 and p == prev:
                continue
            row[start:] = [(p * x - f * y) // prev for x, y in zip(row[start:], tail)]
        pivots.append(c)
        prev = p
        r += 1
    return pivots, sign


def det(a: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination: the sign of the
    row permutation times the last pivot, 0 when a column has no pivot."""
    n = len(a)
    if n and len(a[0]) != n:
        raise ValueError("determinant of non-square matrix")
    m = [list(row) for row in a]
    pivots, sign = _bareiss(m, n)
    if len(pivots) < n:
        return 0
    return sign * m[-1][-1] if n else 1


def rank(a: Sequence[Sequence]) -> int:
    """Rank over the rationals, by fraction-free elimination.

    Integer or `Fraction` entries; each row is first scaled to integers by
    the lcm of its denominators.
    """
    m = []
    for row in a:
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    return len(_bareiss(m, len(m[0]) if m else 0)[0])


def independent_indices(vectors: Sequence[IntVector]) -> tuple[int, ...]:
    """Indices of the first maximal independent subset of integer vectors,
    the one a greedy pass keeps when it takes each vector that raises the
    rank: the pivot columns of one elimination of the matrix whose columns
    are the vectors."""
    m = [list(row) for row in zip(*vectors)]
    return tuple(_bareiss(m, len(vectors))[0])


def _hermite(m: list[list[int]], ncols: int) -> None:
    """Hermite elimination of the integer rows `m` in place, pivoting on the
    first `ncols` columns by unimodular operations on whole rows; pivots end
    positive, with the entries above each reduced into [0, pivot)."""
    rows = len(m)
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        # euclidean elimination below the pivot
        while True:
            nz = [i for i in range(r + 1, rows) if m[i][c] != 0]
            if not nz:
                break
            i = min(nz + [r], key=lambda k: abs(m[k][c]))
            if i != r:
                m[r], m[i] = m[i], m[r]
            for i in range(r + 1, rows):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break


def hnf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Hermite normal form h = u*a with u unimodular: `_hermite` of [a | I],
    pivoting only in a's columns, split into [h | u].  The row/column
    orientation is an internal convention relied upon nowhere else."""
    rows, cols = shape(a)
    m = [list(row) + [int(i == j) for j in range(rows)] for i, row in enumerate(a)]
    _hermite(m, cols)
    return tuple(tuple(row[:cols]) for row in m), tuple(tuple(row[cols:]) for row in m)


def kernel_basis(a: IntMatrix, cols: Optional[int] = None) -> tuple[IntVector, ...]:
    """Basis of the integer kernel {x : a*x = 0}; the lattice is saturated.

    `cols` must be supplied when `a` has no rows.
    """
    rows, ncols = shape(a)
    if ncols == 0:
        ncols = cols if cols is not None else 0
    if rows == 0:
        return tuple(identity(ncols))
    # column-HNF via hnf of the transpose: a * u^T has zero columns exactly
    # where h has zero rows, and the matching rows of u span the kernel.
    h, u = hnf(transpose(a))
    return tuple(tuple(row) for hrow, row in zip(h, u) if all(x == 0 for x in hrow))


def span_basis(vectors: Sequence[IntVector], ambient: int) -> tuple[IntMatrix, tuple[IntVector, ...]]:
    """A basis of the saturation of the span, completed to GL(ambient, Z).

    Returns (m, coords).  m is unimodular; its first r rows, r the rank of
    the vectors, are a basis of the saturation (the Q-span intersected with
    Z^ambient), and vectors[k] = coords[k] * m[:r] with integer coords[k].
    The basis is the kernel of the kernel, `kernel_basis` twice: the last r
    rows of the second `hnf` transform, those it sends to zero.  m is that
    transform with these r rows moved first; its other rows complete them.
    """
    vecs = tuple(tuple(v) for v in vectors)
    orth = kernel_basis(vecs, cols=ambient)
    if not orth:
        return identity(ambient), vecs
    _, u = hnf(transpose(orth))
    k = len(orth)
    m = u[k:] + u[:k]
    # a vector of the span times m^-1 is its coordinates padded with zeros
    return m, tuple(row[: ambient - k] for row in matmul(vecs, invert_unimodular(m)))


def lattice_index(vectors: Sequence[IntVector]) -> int:
    """Index of the span of `vectors` inside its saturation (0 if empty).

    The Hermite form of V^T is u * V^T with u unimodular, so its nonzero
    rows hold, as columns, the coordinates of the vectors on a basis of the
    saturation.  The index is the covolume of the lattice those columns
    span: the product of the pivots of their own Hermite form, which is also
    the gcd of the r x r minors of V.  Neither elimination keeps a transform.
    """
    if not vectors:
        return 0
    h = [list(row) for row in zip(*vectors)]
    _hermite(h, len(vectors))
    coords = [row for row in h if any(row)]
    top = [list(col) for col in zip(*coords)]
    _hermite(top, len(coords))
    return prod(top[i][i] for i in range(len(coords)))


def solve_rational(a, b) -> Optional[tuple[Fraction, ...]]:
    """One solution x of a*x = b over Q, or None if inconsistent."""
    from fractions import Fraction

    rows, cols = shape(a)
    m = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a, b)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if m[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = m[i][cols]
    return tuple(x)


def adjugate(a: Sequence[Sequence[int]]) -> tuple[IntMatrix, int]:
    """Adjugate and determinant of a nonsingular integer matrix: adj*a = det*I.

    Fraction-free Gauss-Jordan elimination of [a | I], with the rows
    permuted by P, ends at [d*I | d*a^-1] for d = det(P*a) = +-det(a); so
    adj(a) = det(a) * a^-1 is the right block times the sign of P.  A
    singular or non-square matrix raises ValueError.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("adjugate of non-square matrix")
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    pivots, sign = _bareiss(m, n, jordan=True)
    if len(pivots) != n:
        raise ValueError("adjugate of singular matrix")
    d = sign * m[-1][n - 1] if n else 1
    return tuple(tuple(sign * x for x in row[n:]) for row in m), d


def integral_map(adj: IntMatrix, d: int, images: Sequence[IntVector]) -> Optional[IntMatrix]:
    """The integer matrix R with R * basis[k] = images[k] for every k, or None.

    `(adj, d)` is `adjugate` of the matrix whose columns are the basis
    vectors, so R = W * adj / d for W the matrix whose columns are the
    images; None when an entry of W * adj is not divisible by d.
    """
    n = len(adj)
    out = []
    for t in range(len(images[0])):
        row = []
        for s in range(n):
            q, rem = divmod(sum(images[k][t] * adj[k][s] for k in range(n)), d)
            if rem:
                return None
            row.append(q)
        out.append(tuple(row))
    return tuple(out)


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1."""
    adj, d = adjugate(a)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (determinant {d})")
    return tuple(tuple(x * d for x in row) for row in adj)


def f2_kernel(columns: Sequence[int]) -> list[int]:
    """Nonzero kernel vectors of an F2 matrix given by column bitmasks.

    `columns[j]` encodes the j-th column; kernel vectors are returned as
    bitmasks over the column indices (bit j set means column j participates).
    """
    pivots: dict[int, tuple[int, int]] = {}
    span = {0}
    for j, mask in enumerate(columns):
        comb = 1 << j
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = (mask, comb)
                break
            pm, pc = pivots[top]
            mask ^= pm
            comb ^= pc
        else:  # column j reduced to zero: comb is a new kernel vector
            span |= {comb ^ x for x in span}
    span.discard(0)
    return sorted(span)
