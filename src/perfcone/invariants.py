"""Molien series by cycle index, Koszul strand checks, Sym^l dimensions."""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Sequence

from .cones import Cone, orth_lattice, sym2_pairs
from .matrices import lattice_index, rank, vec_dot
from .series import TruncatedSeries, check_series_degree, product_free
from .stabilizers import GroupAction


class MolienSumError(AssertionError):
    """A Molien sum not divisible by the group order: for a group it always
    divides, so the permutations given were not a group."""


def check_molien_degree(max_deg: int) -> None:
    """Reject a negative truncation degree, or one above MAX_SERIES_DEGREE,
    before any group is built."""
    if max_deg < 0:
        raise ValueError(f"Molien series needs max_deg >= 0, got max_deg = {max_deg}")
    check_series_degree(max_deg)


def molien(action: GroupAction, max_deg: int) -> TruncatedSeries:
    """Molien series (1/|G|) sum_g 1/det(1 - t rho(g)), truncated.

    The group permutes a basis of the span, so det(1 - t rho(g)) is the
    product of (1 - t^len) over the cycles of g, and the series is the average
    of `product_free` over the cycle types (Polya's cycle index), summed in
    integers.  Each coefficient of the sum must be divisible by |G|, or a
    `MolienSumError` names the degree.
    """
    check_molien_degree(max_deg)
    total = [0] * (max_deg + 1)
    for perm in action.perms:
        for k, c in enumerate(product_free(_cycle_lengths(perm), max_deg).coeffs):
            total[k] += c
    out = []
    for k, x in enumerate(total):
        val, rem = divmod(x, action.order)
        if rem:
            raise MolienSumError(
                f"Molien sum {x} at degree {k} is not divisible by |G| = {action.order}"
            )
        out.append(val)
    return TruncatedSeries(tuple(out))


def _cycle_lengths(perm: Sequence[int]) -> list[int]:
    lengths = []
    seen = [False] * len(perm)
    for start in range(len(perm)):
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length:
            lengths.append(length)
    return lengths


# ---------------------------------------------------------------------------
# Koszul strands
# ---------------------------------------------------------------------------


class KoszulReport(NamedTuple):
    """Cohomology of the Koszul strands for W inside M = Sym^2 dual.

    The strands are exact for q >= 1 (see `koszul_check`), so the report
    keeps only `bottom_row[n]`, the q = 0 cohomology of the total degree n
    strand, which must equal dim Sym^n(M/W) for dim M/W the cone dimension
    (`expected_bottom[n]`).  `annihilates` says whether every element of
    the W basis vanishes on every generator's rank-1 form, and `w_index` is
    the index of the span of that basis in its saturation (1 for W = 0).
    """

    w_rank: int
    m_rank: int
    cone_dim: int
    annihilates: bool
    w_index: int
    bottom_row: tuple[int, ...]
    expected_bottom: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return (
            self.annihilates
            and self.w_rank == self.m_rank - self.cone_dim
            and self.w_index == 1
        )


def _symdim(nvars: int, deg: int) -> int:
    if nvars == 0:
        return 1 if deg == 0 else 0
    return comb(nvars + deg - 1, deg)


def koszul_check(c: Cone, max_total: int = 8) -> KoszulReport:
    """Koszul strands wedge^q W (x) Sym^r M, r + q = n <= max_total, for
    the lattice W of integral functionals on M = Sym^2(Z^i) vanishing on the
    cone.

    The Koszul complex of w independent linear forms in Sym(M) resolves
    Sym(M/W): each strand is exact for q >= 1 and has dimension
    `_symdim(m - w, n)` at q = 0, over Z as well once W is saturated (part
    of a basis of M).  So the strands are read off in closed form, and the
    check is on W itself: it vanishes on every generator's rank-1 form, it
    has rank m - dim(cone), and it is saturated.  The dense strand oracle of
    the tests checks the closed form.  max_total is capped at 8.
    """
    if max_total > 8:
        raise ValueError("max_total capped at 8 to bound memory")
    if max_total < 0:
        raise ValueError(f"max_total must be nonnegative, got {max_total}")
    w_basis = orth_lattice(c)
    w = len(w_basis)
    m = len(sym2_pairs(c.ambient))
    forms = c.sym2_matrix()
    cdim = rank(forms)
    return KoszulReport(
        w_rank=w,
        m_rank=m,
        cone_dim=cdim,
        annihilates=all(vec_dot(f, x) == 0 for f in w_basis for x in forms),
        w_index=lattice_index(w_basis) if w_basis else 1,
        bottom_row=tuple(_symdim(m - w, n) for n in range(max_total + 1)),
        expected_bottom=tuple(_symdim(cdim, n) for n in range(max_total + 1)),
    )
