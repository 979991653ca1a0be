"""Assembly of stable Betti tables from per-stratum series.

Every stratum contributes its series shifted by twice the cone dimension (the
complex codimension); the assembled total in each degree is a plain sum, the
spectral bookkeeping having no surviving differentials in the stable range by
parity.  Hodge weights are not tracked, only degree placement.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .cones import CatalogEntry, Cone, catalog
from .invariants import hilbert_free, molien
from .series import TruncatedSeries
from .stabilizers import stabilizer_action


class CatalogDepthError(ValueError):
    """Raised when a request needs strata beyond the shipped catalog."""


SPACE_KINDS = (
    "perf",
    "matr",
    "simp",
    "smooth",
    "std",
    "satake",
    "mumford_partial",
    "beta_open",
    "universal",
)


@dataclass(frozen=True)
class Space:
    """Selector for an assembled space; `param` is the index for the
    parametrized families beta_open(i) and universal(n)."""

    kind: str
    param: Optional[int] = None

    def __post_init__(self):
        if self.kind not in SPACE_KINDS:
            raise ValueError(f"unknown space {self.kind!r}")
        if self.kind == "beta_open":
            if self.param is None or not 1 <= self.param <= 3:
                raise ValueError("beta_open is supported for i <= 3 with the shipped catalog")
        elif self.kind == "universal":
            if self.param is None or not 0 <= self.param <= 8:
                raise ValueError("universal(n) is supported for n <= 8")
        elif self.param is not None:
            raise ValueError(f"space {self.kind!r} takes no parameter")

    @staticmethod
    def parse(text: str) -> "Space":
        text = text.strip()
        if text == "partial":
            return Space("mumford_partial")
        if text in ("beta1", "beta2", "beta3"):
            return Space("beta_open", int(text[-1]))
        if text.startswith("universal:"):
            return Space("universal", int(text.split(":", 1)[1]))
        return Space(text)

    def label(self) -> str:
        if self.kind == "beta_open":
            return f"beta{self.param}"
        if self.kind == "universal":
            return f"universal:{self.param}"
        if self.kind == "mumford_partial":
            return "partial"
        return self.kind


@dataclass(frozen=True)
class BettiReport:
    space: str
    max_degree: int
    rows: tuple[tuple[str, tuple[int, ...]], ...]
    totals: tuple[int, ...]

    def _degrees(self) -> list[int]:
        if all(self.totals[k] == 0 for k in range(1, self.max_degree + 1, 2)):
            return list(range(0, self.max_degree + 1, 2))
        return list(range(self.max_degree + 1))

    def to_text(self, breakdown: bool = False) -> str:
        degrees = self._degrees()
        names = [name for name, _ in self.rows] if breakdown else []
        width = max([len("stratum")] + [len(n) for n in names + ["total"]])
        cols = [max(len(str(d)), max((len(str(r[1][d])) for r in self.rows), default=1), len(str(self.totals[d]))) for d in degrees]
        lines = []
        header = "degree".ljust(width) + "  " + "  ".join(str(d).rjust(w) for d, w in zip(degrees, cols))
        lines.append(header)
        lines.append("-" * len(header))
        if breakdown:
            for name, values in self.rows:
                lines.append(
                    name.ljust(width)
                    + "  "
                    + "  ".join(_cell(values[d]).rjust(w) for d, w in zip(degrees, cols))
                )
        lines.append(
            "total".ljust(width)
            + "  "
            + "  ".join(str(self.totals[d]).rjust(w) for d, w in zip(degrees, cols))
        )
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["degree"] + [name for name, _ in self.rows] + ["total"])
        for d in range(self.max_degree + 1):
            writer.writerow([d] + [values[d] for _, values in self.rows] + [self.totals[d]])
        return buf.getvalue()

    def to_document(self) -> dict:
        entries = []
        for d in range(self.max_degree + 1):
            for name, values in self.rows:
                entries.append(
                    {"space": self.space, "degree": d, "stratum": name, "value": values[d]}
                )
            entries.append(
                {"space": self.space, "degree": d, "stratum": "total", "value": self.totals[d]}
            )
        return {"space": self.space, "max_degree": self.max_degree, "entries": entries}


def _cell(v: int) -> str:
    return str(v) if v else "."


def lambda_series(max_deg: int) -> TruncatedSeries:
    """Free series on the odd Hodge classes, one generator in each degree
    4m + 2."""
    return hilbert_free(range(2, max_deg + 1, 4), max_deg)


@lru_cache(maxsize=None)
def _molien_prefix(cone: Cone, depth: int) -> tuple[int, ...]:
    if depth == 0:
        return (1,)
    return molien(stabilizer_action(cone), depth).coeffs


def stratum_series(entry: CatalogEntry, max_deg: int) -> TruncatedSeries:
    """Stable series of one stratum: lambda series times the invariant series
    of the stabilizer action evaluated in t^2."""
    inv = _molien_prefix(entry.cone, max_deg // 2)
    inv_t2 = TruncatedSeries(
        tuple(inv[k // 2] if k % 2 == 0 else 0 for k in range(max_deg + 1))
    )
    return lambda_series(max_deg) * inv_t2


def _standard_series(i: int, max_deg: int) -> TruncatedSeries:
    """Series of the standard rank-i stratum: free on classes of degrees
    2, 4, ..., 2i over the lambda classes."""
    return lambda_series(max_deg) * hilbert_free(range(2, 2 * i + 1, 2), max_deg)


def assemble(space: Space | str, max_deg: int) -> BettiReport:
    """Betti report of the selected space up to the requested degree."""
    if isinstance(space, str):
        space = Space.parse(space)
    if max_deg < 0:
        raise ValueError("max degree must be nonnegative")

    rows: list[tuple[str, TruncatedSeries]] = []
    lam = lambda_series(max_deg)

    if space.kind == "satake":
        rows.append(("interior", lam))
    elif space.kind == "universal":
        n = space.param
        rows.append(
            (
                "universal-family",
                lam * hilbert_free([2] * (n * (n + 1) // 2), max_deg),
            )
        )
    elif space.kind == "std":
        rows.append(("interior", lam))
        for i in range(1, max_deg // 2 + 1):
            name = "+".join(["1"] * i)
            rows.append((name, _shift(_standard_series(i, max_deg - 2 * i), 2 * i, max_deg)))
    elif space.kind == "mumford_partial":
        rows.append(("interior", lam))
        sigma1 = next(e for e in catalog(6) if e.name == "1")
        if max_deg >= 2:
            rows.append(("1", _shift(stratum_series(sigma1, max_deg - 2), 2, max_deg)))
    elif space.kind == "beta_open":
        i = space.param
        entries = [e for e in catalog(6) if e.rank == i]
        for e in entries:
            shift = 2 * (e.dim - i)
            if shift > max_deg:
                continue
            rows.append((e.name, _shift(stratum_series(e, max_deg - shift), shift, max_deg)))
    else:
        # degree 13 is still exact: dimension-7 strata would first contribute
        # in degree 14, and the degree-13 coefficient vanishes by parity
        if max_deg > 13:
            raise CatalogDepthError("catalog incomplete beyond degree 12")
        rows.append(("interior", lam))
        for e in catalog(6):
            if space.kind == "matr" and not e.matroidal:
                continue
            if space.kind == "simp" and not e.simplicial:
                continue
            if space.kind == "smooth" and not e.basic:
                continue
            shift = 2 * e.dim
            if shift > max_deg:
                continue
            series = _shift(stratum_series(e, max_deg - shift), shift, max_deg)
            if e.multiplicity != 1:
                series = series.scale(e.multiplicity)
            rows.append((e.name, series))

    totals = tuple(
        sum(series.coeffs[d] for _, series in rows) for d in range(max_deg + 1)
    )
    return BettiReport(
        space=space.label(),
        max_degree=max_deg,
        rows=tuple((name, series.coeffs) for name, series in rows),
        totals=totals,
    )


def _shift(series: TruncatedSeries, k: int, max_deg: int) -> TruncatedSeries:
    return TruncatedSeries((0,) * k + series.coeffs[: max_deg + 1 - k])


def std_identity_check(max_deg: int, boundary_degrees: Optional[Sequence[int]] = None) -> bool:
    """Freeness consistency check for the standard-cone union.

    The assembled series, summed over ranks with their shifts, must equal the
    series of a polynomial algebra on the odd lambda classes and one boundary
    class in each even degree.  Passing a corrupted degree list makes the
    check fail, which tests the negative direction.
    """
    lhs = assemble(Space("std"), max_deg).totals
    if boundary_degrees is None:
        boundary_degrees = range(2, max_deg + 1, 2)
    rhs = lambda_series(max_deg) * hilbert_free(boundary_degrees, max_deg)
    return lhs == rhs.coeffs


PUBLISHED_TABLE_DEGREES = (0, 2, 4, 6, 8, 10, 12)

PUBLISHED_TABLE = {
    "interior": (1, 1, 1, 2, 2, 3, 4),
    "beta1": (0, 1, 2, 3, 5, 7, 10),
    "beta2": (0, 0, 1, 3, 6, 11, 18),
    "sigma-1+1+1": (0, 0, 0, 1, 2, 4, 8),
    "codim4": (0, 0, 0, 0, 3, 7, 15),
    "codim5": (0, 0, 0, 0, 0, 6, 15),
    "codim6": (0, 0, 0, 0, 0, 0, 13),
}

PUBLISHED_BETA2_LOW_DEGREES = (1, 3, 6, 11, 19)


@dataclass(frozen=True)
class ConsistencyReport:
    """Recomputed table rows diffed against the published values.

    The one expected mismatch is the beta2 row in degree 12, where the
    published table says 18 while both the direct recomputation and the
    published low-degree series for beta2 give 19.  The mismatch is reported,
    never patched over.
    """

    computed: dict
    published: dict
    mismatches: tuple[tuple[str, int, int, int], ...]
    beta2_degree8_computed: int
    beta2_degree8_published_series: int

    @property
    def expected_discrepancy_only(self) -> bool:
        return self.mismatches == (("beta2", 12, 19, 18),) and (
            self.beta2_degree8_computed == self.beta2_degree8_published_series == 19
        )


def consistency_report() -> ConsistencyReport:
    report = assemble(Space("perf"), 12)
    groups = {
        "interior": ["interior"],
        "beta1": ["1"],
        "beta2": ["1+1", "K3"],
        "sigma-1+1+1": ["1+1+1"],
    }
    by_name = dict(report.rows)
    computed = {}
    for label, names in groups.items():
        computed[label] = tuple(
            sum(by_name[n][d] for n in names) for d in PUBLISHED_TABLE_DEGREES
        )
    for dim, label in ((4, "codim4"), (5, "codim5"), (6, "codim6")):
        names = [e.name for e in catalog(6) if e.dim == dim]
        computed[label] = tuple(
            sum(by_name[n][d] for n in names) for d in PUBLISHED_TABLE_DEGREES
        )
    mismatches = []
    for label, values in PUBLISHED_TABLE.items():
        for d, got, want in zip(PUBLISHED_TABLE_DEGREES, computed[label], values):
            if got != want:
                mismatches.append((label, d, got, want))
    beta2 = assemble(Space("beta_open", 2), 8)
    return ConsistencyReport(
        computed=computed,
        published=dict(PUBLISHED_TABLE),
        mismatches=tuple(mismatches),
        beta2_degree8_computed=beta2.totals[8],
        beta2_degree8_published_series=PUBLISHED_BETA2_LOW_DEGREES[-1],
    )
