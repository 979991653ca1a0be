"""Molien series by cycle index, free Hilbert series, Koszul strand checks,
Sym^l dimensions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence

from .cones import Cone, orth_lattice, sym2_pairs
from .matrices import rank
from .series import TruncatedSeries, product_free
from .stabilizers import GroupAction


def hilbert_free(degrees: Sequence[int], max_deg: int) -> TruncatedSeries:
    """Hilbert series of a free commutative algebra on the given degrees."""
    return product_free(degrees, max_deg)


def molien(action: GroupAction, max_deg: int) -> TruncatedSeries:
    """Molien series (1/|G|) sum_g 1/det(1 - t rho(g)), truncated.

    The group permutes a basis of the span, so det(1 - t rho(g)) is the
    product of (1 - t^len) over the cycles of g, and the series is the average
    of `product_free` over the cycle types (Polya's cycle index), summed in
    integers.  Each coefficient of the sum must be divisible by |G|.
    """
    total = [0] * (max_deg + 1)
    for perm in action.perms:
        free = product_free(_cycle_lengths(perm), max_deg)
        for k in range(max_deg + 1):
            total[k] += free[k]
    out = []
    for k, x in enumerate(total):
        val, rem = divmod(x, action.order)
        if rem:
            raise ValueError(
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


@dataclass(frozen=True)
class KoszulReport:
    """Cohomology of the Koszul strands for W inside M = Sym^2 dual.

    `strand_cohomology[n][q]` is the dimension of the cohomology of the total
    degree n strand at exterior degree q; exactness means zeros for q >= 1.
    `bottom_row[n]` is the q = 0 value, which must equal dim Sym^n(M/W).
    """

    w_rank: int
    m_rank: int
    strand_cohomology: tuple[tuple[int, ...], ...]
    bottom_row: tuple[int, ...]
    expected_bottom: tuple[int, ...]

    @property
    def higher_rows_vanish(self) -> bool:
        return all(all(x == 0 for x in row[1:]) for row in self.strand_cohomology)

    @property
    def bottom_row_matches(self) -> bool:
        return self.bottom_row == self.expected_bottom

    @property
    def passed(self) -> bool:
        return self.higher_rows_vanish and self.bottom_row_matches


def _symdim(nvars: int, deg: int) -> int:
    if deg < 0:
        return 0
    if nvars == 0:
        return 1 if deg == 0 else 0
    return comb(nvars + deg - 1, deg)


@lru_cache(maxsize=None)
def _simplex_boundary_rank(k: int, q: int) -> int:
    """Rank of the Koszul block map wedge^q -> wedge^(q-1) on a size-k support.

    For a multidegree with support of size k the strand component has basis
    the q-subsets S of the support, with d(S) = sum_j sign(j, S) (S minus j);
    the rank is computed by exact integer elimination.
    """
    if q < 1 or q > k:
        return 0
    import itertools

    cols = list(itertools.combinations(range(k), q))
    rows = list(itertools.combinations(range(k), q - 1))
    row_index = {s: t for t, s in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    for cidx, s in enumerate(cols):
        for pos, j in enumerate(s):
            target = tuple(x for x in s if x != j)
            matrix[row_index[target]][cidx] = (-1) ** pos
    return rank(matrix)


def _pure_strand_ranks(w: int, max_total: int) -> dict[tuple[int, int], int]:
    """rank of d_q on the pure Koszul strand wedge^q W (x) Sym^(s-q) W.

    The differential preserves the multidegree in the w variables, so it is
    block diagonal over multidegrees; a multidegree with support of size k
    contributes the simplex block of size k.  The number of multidegrees of
    total degree s with support size k is C(w,k) * C(s-1, k-1).
    """
    ranks: dict[tuple[int, int], int] = {}
    for s in range(max_total + 1):
        for q in range(s + 1):
            total = 0
            for k in range(1, min(w, s) + 1):
                count = comb(w, k) * comb(s - 1, k - 1)
                if count:
                    total += count * _simplex_boundary_rank(k, q)
            ranks[(s, q)] = total
    return ranks


def koszul_check(c: Cone, max_total: int = 8) -> KoszulReport:
    """Cohomology of the strand complexes wedge^q W (x) Sym^r M, r + q = n.

    W is the lattice of integral functionals vanishing on the cone, inside
    M = Sym^2(Z^i)^dual.  Working in a basis of M_Q adapted to W_Q, the
    Koszul differential preserves the monomial multidegree; ranks of the
    blocks are computed by exact elimination and summed, which keeps the
    memory bounded (max_total is capped at 8).
    """
    if max_total > 8:
        raise ValueError("max_total capped at 8 to bound memory")
    w_basis = orth_lattice(c)
    w = len(w_basis)
    m = len(sym2_pairs(c.ambient))
    cdim = m - w
    ranks = _pure_strand_ranks(w, max_total)

    strand_rows = []
    bottom = []
    expected = []
    for n in range(max_total + 1):
        dims = []
        dqs = []
        for q in range(n + 1):
            dim_q = 0
            rank_q = 0
            for b in range(n - q + 1):
                mult = _symdim(cdim, b)
                if mult == 0:
                    continue
                s = n - b
                dim_q += comb(w, q) * _symdim(w, s - q) * mult
                rank_q += ranks.get((s, q), 0) * mult
            dims.append(dim_q)
            dqs.append(rank_q)
        dqs.append(0)
        coh = tuple(dims[q] - dqs[q] - dqs[q + 1] for q in range(n + 1))
        strand_rows.append(coh)
        bottom.append(coh[0])
        expected.append(_symdim(cdim, n))
    return KoszulReport(
        w_rank=w,
        m_rank=m,
        strand_cohomology=tuple(strand_rows),
        bottom_row=tuple(bottom),
        expected_bottom=tuple(expected),
    )
