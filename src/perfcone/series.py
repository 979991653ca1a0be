"""Truncated one-variable power series with exact integer coefficients: the
product that table assembly needs, the Hilbert series of a free algebra
(`product_free`), and the rational inverse behind the matrix-form Molien
oracle."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


class _TruncatedSeriesFields(NamedTuple):
    coeffs: tuple[int, ...]


class TruncatedSeries(_TruncatedSeriesFields):
    """Integer-coefficient power series truncated at a fixed degree.

    `coeffs[k]` is the coefficient of t^k; the truncation degree is
    len(coeffs) - 1.  The one operation is the product, which requires
    equal truncation; callers read `coeffs` directly.
    """

    __slots__ = ()

    def __new__(cls, coeffs):
        if not coeffs:
            raise ValueError("series needs at least the degree-0 coefficient")
        if any(not isinstance(c, int) for c in coeffs):
            raise ValueError("series coefficients must be integers")
        return _TruncatedSeriesFields.__new__(cls, coeffs)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = len(self.coeffs)
        right = other.coeffs
        if len(right) != n:
            raise ValueError("mismatched truncation degrees")
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n - i):
                b = right[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    # a series is not a sequence: no tuple concatenation or repetition
    def __add__(self, other):
        return NotImplemented

    __rmul__ = __add__

    def __radd__(self, other):
        # `NotImplemented` here would let a tuple on the left concatenate
        raise TypeError(
            f"unsupported operand type(s) for +: {type(other).__name__!r} and 'TruncatedSeries'"
        )


# The highest truncation degree of any series, so that an expensive table
# fails at once instead of running for hours.  The repo's own tables stop at
# degree 30.  At the bound `betti --space std`, whose cost grows like the cube
# of the degree, takes about 0.16 s cold, and every `betti` or `molien`
# command under 0.4 s (Python 3.11, 2 CPUs).
MAX_SERIES_DEGREE = 200


def check_series_degree(n: int) -> None:
    """Reject a truncation degree above MAX_SERIES_DEGREE."""
    if n > MAX_SERIES_DEGREE:
        raise ValueError(f"series are computed only through degree {MAX_SERIES_DEGREE}, not {n}")


def product_free(degrees: Sequence[int], n: int) -> TruncatedSeries:
    """Product of 1/(1 - t^d) over the degree list, truncated at n; n above
    MAX_SERIES_DEGREE is rejected before any work is done."""
    check_series_degree(n)
    out = [1] + [0] * n
    for d in degrees:
        if d < 1:
            raise ValueError("generator degree must be >= 1")
        for k in range(d, n + 1):
            out[k] += out[k - d]
    return TruncatedSeries(tuple(out))


def rational_inverse(coeffs: Sequence[Fraction], n: int) -> tuple[Fraction, ...]:
    """Inverse of a rational power series (nonzero constant term) to degree n.

    The matrix form of Molien's theorem, kept in the tests as the oracle for
    the cycle-index `invariants.molien`, inverts each det(1 - tE) with it.
    """
    from fractions import Fraction

    c0 = Fraction(coeffs[0])
    if c0 == 0:
        raise ValueError("series is not invertible")
    cs = [Fraction(coeffs[k]) if k < len(coeffs) else Fraction(0) for k in range(n + 1)]
    inv = [Fraction(0)] * (n + 1)
    inv[0] = 1 / c0
    for k in range(1, n + 1):
        acc = sum(cs[j] * inv[k - j] for j in range(1, k + 1))
        inv[k] = -acc / c0
    return tuple(inv)
