import pytest

from perfcone import betti
from perfcone import cones as cn
from perfcone import verify
from perfcone.betti import (
    CatalogDepthError,
    assemble,
    lambda_series,
    parse_space,
    std_identity_check,
    stratum_series,
)
from perfcone.series import product_free


def even(values, upto):
    return tuple(values[k] for k in range(0, upto + 1, 2))


def test_lambda_series_values():
    lam = lambda_series(14)
    assert even(lam.coeffs, 12) == (1, 1, 1, 2, 2, 3, 4)
    assert all(lam.coeffs[k] == 0 for k in range(1, 14, 2))
    # degree 14 admits five monomials in generators of degrees 2, 6, 10, 14
    assert lam.coeffs[14] == 5


def test_stratum_series_sigma1():
    e = cn.catalog_entry("1")
    s = stratum_series(e, 10, 0)
    assert even(s.coeffs, 10) == (1, 2, 3, 5, 7, 10)


def test_stratum_series_k3():
    s = stratum_series(cn.catalog_entry("K3"), 6, 0)
    assert even(s.coeffs, 6) == (1, 2, 4, 8)


def test_stratum_series_standard3():
    s = stratum_series(cn.catalog_entry("1+1+1"), 6, 0)
    assert even(s.coeffs, 6) == (1, 2, 4, 8)


def test_stratum_series_codim4_row():
    values = [even(stratum_series(cn.catalog_entry(n), 4, 0).coeffs, 4) for n in ("1+1+1+1", "K3+1", "C4")]
    assert values == [(1, 2, 4), (1, 3, 7), (1, 2, 4)]
    assert [sum(v) for v in zip(*values)] == [3, 7, 15]


def test_stratum_series_placement_matches_truncate_then_pad():
    # oracle: the series truncated shift degrees early, then padded with
    # shift zeros
    for e in cn.catalog(5):
        for max_deg in range(14):
            for shift in range(0, max_deg + 1, 2):
                padded = (0,) * shift + stratum_series(e, max_deg - shift, 0).coeffs
                assert stratum_series(e, max_deg, shift).coeffs == padded, (e.name, max_deg, shift)


def test_standard_series_matches_truncate_then_pad():
    for max_deg in range(21):
        for i in range(1, max_deg // 2 + 1):
            rest = max_deg - 2 * i
            free = lambda_series(rest) * product_free(range(2, 2 * i + 1, 2), rest)
            assert betti._standard_series(i, max_deg).coeffs == (0,) * (2 * i) + free.coeffs


def test_perf_totals():
    report = assemble("perf", 12)
    assert even(report.totals, 10) == (1, 2, 4, 9, 18, 38)
    assert all(report.totals[k] == 0 for k in range(1, 13, 2))
    # recomputation from the strata gives 84 in degree 12 (the published
    # table's 83 differs in exactly one cell, surfaced by verify.table_mismatches)
    assert report.totals[12] == 84


def test_matr_totals():
    report = assemble("matr", 12)
    assert even(report.totals, 10) == (1, 2, 4, 9, 18, 37)
    assert report.totals[12] == 79


def test_simp_smooth_agree_with_perf_low_degrees():
    perf = assemble("perf", 12)
    for kind in ("simp", "smooth"):
        other = assemble(kind, 12)
        assert other.totals[:11] == perf.totals[:11]


def test_beta2_betti_numbers():
    report = assemble("beta2", 8)
    assert even(report.totals, 8) == (1, 3, 6, 11, 19)
    assert all(report.totals[k] == 0 for k in range(1, 9, 2))


def test_satake_is_lambda_series():
    report = assemble("satake", 30)
    assert report.totals == lambda_series(30).coeffs


def test_universal1_equals_mumford_partial():
    assert assemble("universal:1", 20).totals == assemble("partial", 20).totals


def test_mumford_partial_is_lambda_over_one_minus_t2():
    report = assemble("partial", 10)
    assert even(report.totals, 10) == (1, 2, 3, 5, 7, 10)


def test_std_identity(monkeypatch):
    assert std_identity_check(20)
    assert std_identity_check(0)
    # standard strata that each miss their top free class break the identity
    standard = betti._standard_series
    monkeypatch.setattr(betti, "_standard_series", lambda i, max_deg: standard(i - 1, max_deg))
    assert not std_identity_check(20)


def test_depth_errors():
    with pytest.raises(CatalogDepthError):
        assemble("perf", 14)


def test_space_parsing():
    assert parse_space("perf") == ("perf", None)
    assert parse_space(" partial ") == ("partial", None)
    assert parse_space("beta2") == ("beta", 2)
    assert parse_space("universal:3") == ("universal", 3)
    for label in ("everything", "mumford_partial", "beta_open", "beta0", "universal",
                  "universal:x"):
        with pytest.raises(ValueError, match="unknown space"):
            parse_space(label)
    for label in ("universal:9", "universal:-1"):
        with pytest.raises(ValueError, match=r"universal\(n\) is supported for 0 <= n <= 8"):
            parse_space(label)


def test_matroidal_difference_localized():
    perf = assemble("perf", 12)
    matr = assemble("matr", 12)
    diff = tuple(p - m for p, m in zip(perf.totals, matr.totals))
    # one class at degree 10 (the non-matroidal rank 5 cone), five at 12:
    # its H^2 (2 classes) plus the three non-matroidal dim-6 cells 6d-g5-x,
    # 6d-g6-x and 6d-g6-y
    assert diff == (0,) * 10 + (1, 0, 5)


def test_consistency_report_flags_single_cell():
    assert verify.table_mismatches() == (("beta2", 12, 19, 18),)
    perf = assemble("perf", 12)
    dim6 = {e.name for e in cn.catalog(6) if e.dim == 6}
    assert sum(values[12] for name, values in perf.rows if name in dim6) == 13


def test_report_renderers():
    report = assemble("perf", 4)
    text = report.to_text(breakdown=True)
    assert "interior" in text and "total" in text
    csv_text = report.to_csv()
    header = csv_text.splitlines()[0].split(",")
    assert header[0] == "degree" and header[-1] == "total"
    doc = report.to_document()
    assert doc["space"] == "perf"
    assert {"space", "degree", "stratum", "value"} <= set(doc["entries"][0])
