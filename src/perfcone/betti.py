"""Assembly of stable Betti tables from per-stratum series.

A space is named by its label, read once by `parse_space`; `assemble` builds
its rows from the strata that make it up.  Every stratum contributes the
lambda series times its stabilizer's invariant series in t^2, placed at
twice its complex codimension in one step (`stratum_series`).  The
assembled total in each degree is a plain sum, the spectral bookkeeping
having no surviving differentials in the stable range by parity.  Hodge
weights are not tracked, only degree placement.
"""

from __future__ import annotations

import io
import re
from functools import lru_cache
from typing import NamedTuple, Optional

from .cones import CatalogEntry, Cone, catalog, catalog_entry
from .invariants import molien
from .series import TruncatedSeries, product_free
from .stabilizers import stabilizer_action


class CatalogDepthError(ValueError):
    """Raised when a request needs strata beyond the shipped catalog."""


# The catalog spaces, each with the strata it keeps; perf keeps them all.
_CATALOG_SPACES = {
    "perf": lambda e: True,
    "matr": lambda e: e.matroidal,
    "simp": lambda e: e.simplicial,
    "smooth": lambda e: e.basic,
}

def parse_space(label: str) -> tuple[str, Optional[int]]:
    """(kind, n) of a space label: the label itself with n None, ("beta", i)
    for beta1..beta3, or ("universal", n) for universal:<n>."""
    label = label.strip()
    if label in _CATALOG_SPACES or label in ("std", "satake", "partial"):
        return label, None
    if label in ("beta1", "beta2", "beta3"):
        return "beta", int(label[-1])
    match = re.fullmatch(r"universal:(-?[0-9]+)", label)
    if match is None:
        raise ValueError(
            f"unknown space {label!r}; expected perf, matr, simp, smooth, std, satake, "
            "partial, beta1, beta2, beta3 or universal:<n> with 0 <= n <= 8"
        )
    n = int(match.group(1))
    if not 0 <= n <= 8:
        raise ValueError("universal(n) is supported for 0 <= n <= 8")
    return "universal", n


class BettiReport(NamedTuple):
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
        import csv

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
    return product_free(range(2, max_deg + 1, 4), max_deg)


@lru_cache(maxsize=None)
def _molien_prefix(cone: Cone, depth: int) -> tuple[int, ...]:
    if depth == 0:
        return (1,)
    return molien(stabilizer_action(cone), depth).coeffs


def _placed(coeffs: tuple[int, ...], shift: int, max_deg: int) -> TruncatedSeries:
    """Lambda series times the series with these coefficients in t^2, moved
    up to degree `shift`: coefficient k sits in degree shift + 2k, and the
    caller passes the (max_deg - shift) // 2 + 1 that fit."""
    placed = [0] * (max_deg + 1)
    placed[shift::2] = coeffs
    return lambda_series(max_deg) * TruncatedSeries(tuple(placed))


def stratum_series(entry: CatalogEntry, max_deg: int, shift: int) -> TruncatedSeries:
    """Stable series of one stratum placed at degree `shift`: lambda series
    times the invariant series of the stabilizer action evaluated in t^2,
    times t^shift."""
    return _placed(_molien_prefix(entry.cone, (max_deg - shift) // 2), shift, max_deg)


def _standard_series(i: int, max_deg: int) -> TruncatedSeries:
    """Series of the standard rank-i stratum, placed at its codimension 2i:
    free on classes of degrees 2, 4, ..., 2i over the lambda classes."""
    return _placed(product_free(range(1, i + 1), max_deg // 2 - i).coeffs, 2 * i, max_deg)


def assemble(space: str, max_deg: int) -> BettiReport:
    """Betti report of the space with the given label up to the requested
    degree."""
    kind, n = parse_space(space)
    if max_deg < 0:
        raise ValueError("max degree must be nonnegative")
    # degree 13 is still exact: dimension-7 strata would first contribute in
    # degree 14, and the degree-13 coefficient vanishes by parity
    if kind in _CATALOG_SPACES and max_deg > 13:
        raise CatalogDepthError("catalog incomplete beyond degree 13")

    lam = lambda_series(max_deg)
    rows: list[tuple[str, TruncatedSeries]]
    if kind == "universal":
        rows = [("universal-family", lam * product_free([2] * (n * (n + 1) // 2), max_deg))]
    elif kind == "beta":
        # the open stratum of rank-n cones, each shifted by its codimension there
        rows = [
            (e.name, stratum_series(e, max_deg, 2 * (e.dim - n)))
            for e in catalog(6)
            if e.rank == n and 2 * (e.dim - n) <= max_deg
        ]
    else:
        rows = [("interior", lam)]  # satake is the interior alone
        if kind == "std":
            for i in range(1, max_deg // 2 + 1):
                name = "+".join(["1"] * i)
                rows.append((name, _standard_series(i, max_deg)))
        elif kind == "partial":
            if max_deg >= 2:
                rows.append(("1", stratum_series(catalog_entry("1"), max_deg, 2)))
        elif kind in _CATALOG_SPACES:
            keep = _CATALOG_SPACES[kind]
            for e in catalog(6):
                if keep(e) and 2 * e.dim <= max_deg:
                    rows.append((e.name, stratum_series(e, max_deg, 2 * e.dim)))

    totals = tuple(
        sum(series.coeffs[d] for _, series in rows) for d in range(max_deg + 1)
    )
    return BettiReport(
        space=space.strip(),
        max_degree=max_deg,
        rows=tuple((name, series.coeffs) for name, series in rows),
        totals=totals,
    )


def std_identity_check(max_deg: int) -> bool:
    """Freeness consistency check for the standard-cone union.

    The assembled series, summed over ranks with their shifts, must equal the
    series of a polynomial algebra on the odd lambda classes and one boundary
    class in each even degree.
    """
    lhs = assemble("std", max_deg).totals
    rhs = lambda_series(max_deg) * product_free(range(2, max_deg + 1, 2), max_deg)
    return lhs == rhs.coeffs
