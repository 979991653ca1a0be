import pytest

from perfcone import series as ps


def test_product_free_matches_partition_counts():
    # parts of size <= 3: 1, 1, 2, 3, 4, 5, 7 (partition numbers)
    s = ps.product_free([1, 2, 3], 6)
    assert s.coeffs == (1, 1, 2, 3, 4, 5, 7)


def test_product_free_rejects_degree_above_bound():
    bound = ps.MAX_SERIES_DEGREE
    assert bound >= 30
    assert len(ps.product_free([1, 2], bound).coeffs) == bound + 1
    with pytest.raises(ValueError, match=f"only through degree {bound}, not {bound + 1}"):
        ps.product_free([1, 2], bound + 1)


def test_mul_truncates():
    a = ps.TruncatedSeries((1, 1, 0, 0))
    b = ps.TruncatedSeries((1, 1, 0, 0))
    assert (a * b).coeffs == (1, 2, 1, 0)


def test_mismatched_truncation_rejected():
    with pytest.raises(ValueError):
        ps.TruncatedSeries((1, 0, 0, 0)) * ps.TruncatedSeries((1, 0, 0, 0, 0))


def test_rational_inverse_agrees_with_integer_inverse():
    from fractions import Fraction

    inv = ps.rational_inverse([Fraction(1), Fraction(-1)], 5)
    assert inv == tuple(Fraction(1) for _ in range(6))
