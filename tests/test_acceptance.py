"""Acceptance suite: every criterion, one printed pass/fail line per check.

All comparisons are exact integer equalities.  The one expected outcome that
is not a plain pass is the flagged degree-12 beta2 cell, where the published
table (18) disagrees with both the published beta2 series and the direct
recomputation (19); the flag is asserted, not worked around.

The one long-running job (the full g = 5 oracle comparison for criterion 5)
carries the `oracle` marker and runs in its own test.
"""

import pytest

from perfcone import betti
from perfcone import brackets as br
from perfcone import verify
from perfcone.series import product_free
from perfcone.verify import (
    FAIL,
    FLAG,
    PASS,
    rows,
    run_checks,
    run_row,
)


@pytest.fixture(scope="module")
def results():
    return run_checks(full_oracle=False)


def _report(subset):
    for r in subset:
        detail = f"  -- {r.detail}" if r.detail else ""
        print(f"criterion {r.criterion:>2} [{r.status}] {r.name}{detail}")


def test_table_labels_are_unique_and_criteria_run_in_order(results):
    table = rows()
    labels = [r.label for r in table]
    assert len(set(labels)) == len(labels)
    criteria = [r.criterion for r in table]
    assert criteria == sorted(criteria)
    assert set(criteria) == set(range(1, 13))
    assert [r.name for r in results] == labels


@pytest.mark.parametrize("criterion", range(1, 13))
def test_criterion(results, criterion):
    subset = [r for r in results if r.criterion == criterion]
    assert subset, f"criterion {criterion} produced no checks"
    _report(subset)
    failures = [r for r in subset if r.status == FAIL]
    assert not failures, failures


def test_criterion_1_flags_the_expected_table_cell(results):
    flags = [r for r in results if r.criterion == 1 and r.status == FLAG]
    assert len(flags) == 1
    assert "computed 19 vs published 18" in flags[0].name


def test_criterion_2_flags_the_expected_total(results):
    flags = [r for r in results if r.criterion == 2 and r.status == FLAG]
    assert len(flags) == 1
    assert "computed 79 vs published 78" in flags[0].name


def test_flag_rows_fail_under_their_fixed_labels(monkeypatch):
    table = {r.label: r for r in rows() if r.criterion in (1, 2)}
    monkeypatch.setitem(verify.PUBLISHED_TABLE, "beta2", (0, 0, 1, 3, 6, 11, 19))
    real = verify.assemble

    def matr_78(space, max_deg):
        report = real(space, max_deg)
        if space != "matr":
            return report
        return report._replace(totals=report.totals[:12] + (78,))

    monkeypatch.setattr(verify, "assemble", matr_78)
    beta2 = run_row(table["degree-12 table cell beta2: computed 19 vs published 18"])
    assert beta2.status == FAIL
    assert beta2.detail == "unexpected mismatches: (); beta2 stratum degree 8: 19"
    matr = run_row(table["matroidal degree 12: computed 79 vs published 78"])
    assert (matr.status, matr.detail) == (FAIL, "computed 78")


# each row's input made wrong through one module attribute, given the real one
@pytest.mark.parametrize(
    "label,module,name,wrong,detail",
    [
        ("strata-monomial counts for degrees 2-12 equal 1,2,4,8,16,37",
         br, "catalog", lambda real: lambda depth: real(depth)[:-1],  # one dim-6 cone lost
         "computed [1, 2, 4, 8, 16, 36]"),
        ("degree-12 dimension bounds: boundary (43,36,79), strata (43,37,80)",
         br, "enumerate_brackets", lambda real: lambda d: real(d)[: -1 if d == 6 else None],
         "computed boundary (43, 35, 78), strata (43, 37, 80)"),
        ("standard-cones Euler identity to degree 20",
         betti, "_standard_series", lambda real: lambda i, max_deg: real(i - 1, max_deg), ""),
        ("universal(1) equals the Mumford partial compactification to degree 20",
         betti, "stratum_series",
         lambda real: lambda entry, max_deg, shift: real(entry, max_deg, shift + 2), ""),
        ("satake equals the lambda series to degree 30",
         betti, "lambda_series",  # a generator in every even degree
         lambda real: lambda max_deg: product_free(range(2, max_deg + 1, 2), max_deg), ""),
        ("cone-to-bracket dictionary on the named cones",
         br, "f2_kernel", lambda real: lambda vectors: [], ""),  # no relation found
    ],
    ids=["strata-counts", "dimension-bounds", "std-identity", "universal1-partial", "satake",
         "cone-to-bracket"],
)
def test_rows_of_criteria_6_9_11_fail_on_a_wrong_value(monkeypatch, label, module, name, wrong,
                                                       detail):
    [row] = [r for r in rows() if r.label == label]
    assert run_row(row).status == PASS
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    assert run_row(row) == verify.CheckResult(row.criterion, label, FAIL, detail)


def test_no_unexpected_flags(results):
    assert sum(1 for r in results if r.status == FLAG) == 2
    assert all(r.status in (PASS, FLAG) for r in results)


@pytest.mark.oracle
def test_criterion_5_full_oracle_job():
    subset = [run_row(r) for r in rows(full_oracle=True) if r.criterion == 5]
    _report(subset)
    assert all(r.status == PASS for r in subset)
    full = [r for r in subset if "total degree <= 5 at g = 5" in r.name]
    assert len(full) == 1
