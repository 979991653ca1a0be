"""Truncated one-variable power series with exact integer coefficients: the
product and scaling that table assembly needs, the Hilbert series of a free
algebra (`product_free`), and the rational inverse behind the matrix-form
Molien oracle."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer-coefficient power series truncated at a fixed degree.

    `coeffs[k]` is the coefficient of t^k; the truncation degree is
    len(coeffs) - 1.  Multiplying two series requires equal truncation.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("series needs at least the degree-0 coefficient")
        if any(not isinstance(c, int) for c in self.coeffs):
            raise ValueError("series coefficients must be integers")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        if k < 0:
            return 0
        if k > self.truncation:
            raise IndexError(f"degree {k} beyond truncation {self.truncation}")
        return self.coeffs[k]

    def _check(self, other: "TruncatedSeries") -> None:
        if self.truncation != other.truncation:
            raise ValueError("mismatched truncation degrees")

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        n = self.truncation
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    def scale(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries(tuple(c * a for a in self.coeffs))


def product_free(degrees: Sequence[int], n: int) -> TruncatedSeries:
    """Product of 1/(1 - t^d) over the degree list, truncated at n."""
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
