"""Bracket classes: deck-group orbits of monomials in boundary divisors.

A monomial D_{m_1}^{e_1} ... D_{m_l}^{e_l} in the boundary divisors of the
level-2 cover is classified, in the stable range, by its exponent pattern
together with the set of F2-linear relations satisfied by the distinct
indices m_j.  A class is written {m_1^{e_1} ... (relations)}; the relation
code is a subspace of F2^l whose nonzero vectors all have Hamming weight at
least 3 (weight 1 would force an index to vanish, weight 2 would identify
two distinct indices).
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .cones import Cone, catalog, vector_bitmask
from .matrices import f2_kernel


@dataclass(frozen=True)
class BracketClass:
    """Canonical orbit label: nonincreasing exponents plus relation code.

    `code` holds every nonzero vector of the relation subspace as a bitmask
    over the index positions (bit j is index j+1).  Instances must be built
    through `canonical_bracket` or `parse_bracket`, which pick the canonical
    representative under the exponent-preserving permutations.
    """

    exponents: tuple[int, ...]
    code: frozenset[int]

    def __post_init__(self):
        if any(e < 1 for e in self.exponents):
            raise ValueError("exponents must be positive")
        if tuple(sorted(self.exponents, reverse=True)) != self.exponents:
            raise ValueError("exponents must be nonincreasing")
        l = len(self.exponents)
        for v in self.code:
            if not 0 < v < (1 << l):
                raise ValueError("relation vector out of range")
            if bin(v).count("1") < 3:
                raise ValueError("relation of Hamming weight < 3")
        for v in self.code:
            for w in self.code:
                if v != w and v ^ w not in self.code:
                    raise ValueError("relation code is not a subspace")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def length(self) -> int:
        return len(self.exponents)

    @property
    def code_dim(self) -> int:
        return (len(self.code) + 1).bit_length() - 1

    def sort_key(self):
        return (
            self.degree,
            self.length,
            tuple(-e for e in self.exponents),
            self.code_dim,
            tuple(sorted(self.code)),
        )

    def __str__(self) -> str:
        return render_bracket(self)


UNIT = BracketClass((), frozenset())


class BracketCountError(AssertionError):
    """The orbit walk and the Burnside count disagree on an exponent pattern."""


def _remap(v: int, perm: Sequence[int]) -> int:
    out = 0
    for j, target in enumerate(perm):
        if v >> j & 1:
            out |= 1 << target
    return out


def _block_swaps(exponents: Sequence[int]) -> list[int]:
    """Positions j whose transposition (j, j+1) preserves the pattern.

    For nonincreasing exponents these adjacent transpositions inside the
    blocks of equal exponents generate the whole pattern group.
    """
    return [j for j in range(len(exponents) - 1) if exponents[j] == exponents[j + 1]]


def _orbit(exponents: tuple[int, ...], code: frozenset[int]) -> set[frozenset[int]]:
    """Orbit of a relation code under the pattern group, walked by its
    generating transpositions; every member is a code of the same weights."""
    swaps = _block_swaps(exponents)
    orbit = {code}
    frontier = [code]
    while frontier:
        current = frontier.pop()
        for j in swaps:
            # exchange bits j and j+1 where they differ
            moved = frozenset(v ^ (3 << j) if (v >> j ^ v >> (j + 1)) & 1 else v for v in current)
            if moved not in orbit:
                orbit.add(moved)
                frontier.append(moved)
    return orbit


def _least(orbit: Iterable[frozenset[int]]) -> frozenset[int]:
    """Canonical member of an orbit: the least sorted vector tuple."""
    return frozenset(min(tuple(sorted(code)) for code in orbit))


@lru_cache(maxsize=None)
def _canonical_cached(exponents: tuple[int, ...], code: frozenset) -> BracketClass:
    return BracketClass(exponents, _least(_orbit(exponents, code)))


def canonical_bracket(exponents: Sequence[int], code: Iterable[int]) -> BracketClass:
    """Canonical class for an exponent list and relation vectors.

    Positions are first sorted by decreasing exponent (relations remapped
    along), then the code is minimized over its orbit under the
    pattern-preserving permutations.  The code may be given by any set of vectors; its span is
    taken, excluding zero.
    """
    exponents = tuple(exponents)
    span = _span(code)
    order = sorted(range(len(exponents)), key=lambda j: (-exponents[j], j))
    perm = [0] * len(exponents)
    for newpos, j in enumerate(order):
        perm[j] = newpos
    sorted_exp = tuple(exponents[j] for j in order)
    moved = frozenset(_remap(v, perm) for v in span)
    return _canonical_cached(sorted_exp, moved)


def _span(vectors: Iterable[int]) -> frozenset[int]:
    vs = [v for v in vectors if v]
    out = {0}
    for v in vs:
        if v not in out:
            out |= {v ^ x for x in out}
    out.discard(0)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Rendering and parsing, in the notation {1^2 2 3 (123,145)}
# ---------------------------------------------------------------------------


def render_bracket(bc: BracketClass) -> str:
    if bc is UNIT or not bc.exponents:
        return "{}"
    parts = []
    for j, e in enumerate(bc.exponents):
        parts.append(f"{j + 1}^{e}" if e > 1 else f"{j + 1}")
    body = " ".join(parts)
    if bc.code:
        gens = _display_generators(bc.code)
        rel = ",".join("".join(str(j + 1) for j in range(bc.length) if v >> j & 1) for v in gens)
        body += f" ({rel})"
    return "{" + body + "}"


def _display_generators(code: frozenset[int]) -> list[int]:
    """Greedy minimal-weight generating set, for display."""
    chosen: list[int] = []
    span = {0}
    for v in sorted(code, key=lambda v: (bin(v).count("1"), v)):
        if v not in span:
            chosen.append(v)
            span |= {v ^ x for x in span}
    return chosen


def parse_bracket(text: str) -> BracketClass:
    """Parse the bracket notation; accepts compact forms like {1^22 3(123)}."""
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"bracket class must be enclosed in braces: {text!r}")
    s = s[1:-1]
    exponents: dict[int, int] = {}
    relations: list[int] = []
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            idx = int(ch)
            i += 1
            exp = 1
            if i < n and s[i] == "^":
                i += 1
                if i >= n or not s[i].isdigit():
                    raise ValueError(f"dangling exponent in {text!r}")
                exp = int(s[i])
                i += 1
            if idx in exponents:
                raise ValueError(f"index {idx} repeated in {text!r}")
            exponents[idx] = exp
        elif ch == "(":
            j = s.find(")", i)
            if j < 0:
                raise ValueError(f"unclosed relation group in {text!r}")
            for chunk in s[i + 1 : j].split(","):
                chunk = chunk.strip()
                if not chunk:
                    continue
                v = 0
                for d in chunk:
                    if not d.isdigit():
                        raise ValueError(f"bad relation {chunk!r} in {text!r}")
                    v |= 1 << (int(d) - 1)
                relations.append(v)
            i = j + 1
        else:
            raise ValueError(f"unexpected character {ch!r} in {text!r}")
    if not exponents:
        return UNIT
    l = len(exponents)
    if sorted(exponents) != list(range(1, l + 1)):
        raise ValueError(f"indices must be exactly 1..{l} in {text!r}")
    for v in relations:
        if v >> l:
            raise ValueError(f"relation uses an index beyond {l} in {text!r}")
    exp_list = [exponents[idx] for idx in range(1, l + 1)]
    return canonical_bracket(exp_list, relations)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _weight3_subspaces(l: int) -> tuple[frozenset[int], ...]:
    """All subspaces of F2^l whose nonzero vectors have weight >= 3.

    Each subspace is generated once, from its reduced echelon basis: rows are
    added by increasing leading bit, each zero at the earlier leading bits.
    A row is kept only when every vector it adds to the span has weight >= 3,
    since later rows only enlarge the span.
    """
    out = []

    def extend(span: list[int], pivots: int, low: int):
        out.append(frozenset(span[1:]))
        for p in range(low, l):
            free = ((1 << p) - 1) & ~pivots
            tail = free
            while True:
                row = 1 << p | tail
                added = [row ^ x for x in span]
                if all(bin(v).count("1") >= 3 for v in added):
                    extend(span + added, pivots | 1 << p, p + 1)
                if not tail:
                    break
                tail = (tail - 1) & free

    extend([0], 0, 0)
    return tuple(out)


def _partitions(d: int) -> list[tuple[int, ...]]:
    """Partitions of d, nonincreasing, in reverse lexicographic order."""
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(d, d, [])
    return out


def _burnside_class_count(pattern: tuple[int, ...]) -> int:
    """Number of classes with this exponent pattern, by Burnside's lemma.

    The pattern group is the product of the symmetric groups on the blocks of
    equal exponents.  The number of weight->=3 subspaces a permutation fixes
    depends only on its cycle type in each block, so one permutation stands
    for each type, weighted by the size m! / z of its conjugacy class.
    """
    l = len(pattern)
    sizes = [len(list(block)) for _, block in itertools.groupby(pattern)]
    subspaces = _weight3_subspaces(l)
    total = 0
    for types in itertools.product(*(_partitions(m) for m in sizes)):
        perm = list(range(l))
        weight = 1
        start = 0
        for m, cycles in zip(sizes, types):
            z = 1
            for c, k in Counter(cycles).items():
                z *= c**k * math.factorial(k)
            weight *= math.factorial(m) // z
            for c in cycles:
                for t in range(c):
                    perm[start + t] = start + (t + 1) % c
                start += c
        image = [_remap(v, perm) for v in range(1 << l)]
        total += weight * sum(1 for s in subspaces if all(image[v] in s for v in s))
    order = math.prod(math.factorial(m) for m in sizes)
    count, rest = divmod(total, order)
    if rest:
        raise BracketCountError(
            f"pattern {pattern}: Burnside sum {total} is not divisible by |G| = {order}"
        )
    return count


# Degree 7 takes about 0.15 s.  The bound stays until the bracket notation,
# one digit per index and exponent, can write an index or exponent of 10.
MAX_DEGREE = 7


@lru_cache(maxsize=None)
def enumerate_brackets(d: int) -> tuple[BracketClass, ...]:
    """All bracket classes of degree d, canonicalized, each exactly once.

    Degrees above MAX_DEGREE (7) are rejected with a ValueError before any
    work is done, and degree 7 itself warns that it is unvalidated.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d > MAX_DEGREE:
        raise ValueError(
            f"bracket classes are enumerated only through degree {MAX_DEGREE}, not {d}"
        )
    if d > 6:
        warnings.warn(
            f"bracket classes of degree {d} are unvalidated beyond degree 6",
            stacklevel=2,
        )
    out = []
    for pattern in _partitions(d):
        seen: set[frozenset[int]] = set()
        found = []
        for code in _weight3_subspaces(len(pattern)):
            if code in seen:
                continue
            orbit = _orbit(pattern, code)
            seen |= orbit
            found.append(BracketClass(pattern, _least(orbit)))
        expected = _burnside_class_count(pattern)
        if len(found) != expected:
            raise BracketCountError(
                f"pattern {pattern}: the orbit walk finds {len(found)} classes, "
                f"Burnside counts {expected}"
            )
        found.sort(key=BracketClass.sort_key)
        out.extend(found)
    return tuple(out)


# ---------------------------------------------------------------------------
# Class sums and products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassSum:
    """Formal rational combination of bracket classes (no zero terms)."""

    terms: tuple[tuple[BracketClass, Fraction], ...]

    @staticmethod
    def from_dict(data: dict) -> "ClassSum":
        cleaned = [(bc, Fraction(c)) for bc, c in data.items() if c != 0]
        cleaned.sort(key=lambda t: t[0].sort_key())
        return ClassSum(tuple(cleaned))

    @staticmethod
    def of(bc: BracketClass) -> "ClassSum":
        return ClassSum.from_dict({bc: 1})

    @staticmethod
    def unit() -> "ClassSum":
        return ClassSum.of(UNIT)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def __add__(self, other: "ClassSum") -> "ClassSum":
        data = self.as_dict()
        for bc, c in other.terms:
            data[bc] = data.get(bc, Fraction(0)) + c
        return ClassSum.from_dict(data)

    def scale(self, c) -> "ClassSum":
        return ClassSum.from_dict({bc: Fraction(c) * v for bc, v in self.terms})

    def __mul__(self, other: "ClassSum") -> "ClassSum":
        data: dict[BracketClass, Fraction] = {}
        for a, ca in self.terms:
            for b, cb in other.terms:
                for c, n in _structure_constants(a, b):
                    data[c] = data.get(c, Fraction(0)) + ca * cb * n
        return ClassSum.from_dict(data)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for bc, c in self.terms:
            coeff = "" if c == 1 else f"{c}*"
            parts.append(f"{coeff}{bc}")
        return " + ".join(parts)


def _subtype(c: BracketClass, split: Sequence[int]) -> BracketClass:
    """Type of the sub-monomial picking exponent split[j] from position j.

    The induced relation code is the set of code vectors supported on the
    chosen positions, re-indexed along the support.
    """
    support = [j for j, a in enumerate(split) if a > 0]
    if not support:
        return UNIT
    mask = 0
    for j in support:
        mask |= 1 << j
    pos = {j: t for t, j in enumerate(support)}
    vectors = []
    for v in c.code:
        if v & ~mask:
            continue
        out = 0
        for j in support:
            if v >> j & 1:
                out |= 1 << pos[j]
        vectors.append(out)
    return canonical_bracket([split[j] for j in support], vectors)


@lru_cache(maxsize=None)
def _structure_constants(
    a: BracketClass, b: BracketClass
) -> tuple[tuple[BracketClass, int], ...]:
    """Expansion of the product of two classes in the bracket basis.

    The coefficient of C counts the ways a fixed monomial of type C factors
    into a type-A and a type-B monomial: exponent splits whose two halves,
    with their induced codes, canonicalize to A and B respectively.
    """
    if a is UNIT or not a.exponents:
        return ((b, 1),)
    if b is UNIT or not b.exponents:
        return ((a, 1),)
    out = []
    for c in enumerate_brackets(a.degree + b.degree):
        count = 0
        ranges = [range(e + 1) for e in c.exponents]
        for split in itertools.product(*ranges):
            if sum(split) != a.degree:
                continue
            rest = tuple(e - s for e, s in zip(c.exponents, split))
            if _subtype(c, split) == a and _subtype(c, rest) == b:
                count += 1
        if count:
            out.append((c, count))
    return tuple(out)


def parse_factors(text: str) -> list[BracketClass]:
    """Factors of a product expression: bracket classes joined by '*', each
    with an optional '^' power, which repeats it.

    An expression of total degree above MAX_DEGREE is rejected, since its
    product needs the classes of that degree.
    """
    factors: list[BracketClass] = []
    degree = 0
    s = text.strip()
    if not s:
        return factors
    for chunk in s.split("*"):
        chunk = chunk.strip()
        power = 1
        if "}^" in chunk:
            chunk, _, p = chunk.rpartition("^")
            power = int(p)
        bc = parse_bracket(chunk)
        degree += bc.degree * max(power, 0)
        if degree > MAX_DEGREE:
            raise ValueError(
                f"products are computed only through degree {MAX_DEGREE}: {text!r}"
            )
        factors.extend([bc] * power)
    return factors


def parse_expression(text: str) -> ClassSum:
    """Product expression: bracket classes joined by '*', with '^' powers."""
    result = ClassSum.unit()
    for bc in parse_factors(text):
        result = result * ClassSum.of(bc)
    return result


# ---------------------------------------------------------------------------
# Cones to brackets
# ---------------------------------------------------------------------------


def cone_to_bracket(c: Cone) -> BracketClass:
    """Class of the boundary monomial cut out by the cone's generators mod 2."""
    residues = []
    for g in c.generators:
        m = vector_bitmask(g)
        if m == 0:
            raise ValueError("generator vanishes mod 2; cannot classify")
        residues.append(m)
    distinct: list[int] = []
    counts: list[int] = []
    for m in residues:
        if m in distinct:
            counts[distinct.index(m)] += 1
        else:
            distinct.append(m)
            counts.append(1)
    kernel = f2_kernel([m for m in distinct])
    return canonical_bracket(counts, kernel)


# ---------------------------------------------------------------------------
# Dimension bookkeeping
# ---------------------------------------------------------------------------


def count_pure_strata(d: int) -> int:
    """Monomials of degree d in the stratum classes of the shipped catalog.

    Sums over partitions of d/2 the products of per-codimension cone counts,
    which is the published counting convention (repeated parts multiply the
    count again rather than forming a multiset coefficient).
    """
    if d < 2 or d % 2:
        raise ValueError("degree must be even and >= 2")
    if d > 12:
        raise ValueError("stratum counts are only available through degree 12")
    counts = {}
    for e in catalog(6):
        counts[e.dim] = counts.get(e.dim, 0) + e.multiplicity
    total = 0
    for pattern in _partitions(d // 2):
        if max(pattern) > 6:
            continue
        prod = 1
        for p in pattern:
            prod *= counts[p]
        total += prod
    return total


def _pure_boundary_count(degree: int) -> int:
    if degree == 0:
        return 1
    return len(enumerate_brackets(degree // 2))


def _pure_strata_count(degree: int) -> int:
    if degree == 0:
        return 1
    return count_pure_strata(degree)


@dataclass(frozen=True)
class DimensionBounds:
    """Upper bounds for the boundary and strata algebras in one degree.

    Each triple is (classes with a lambda factor, pure classes, total).
    """

    degree: int
    boundary: tuple[int, int, int]
    strata: tuple[int, int, int]


def algebra_dimension_bounds(d: int) -> DimensionBounds:
    from .betti import lambda_series

    if d < 2 or d % 2 or d > 12:
        raise ValueError("bounds are computed for even degrees 2..12")
    lam = lambda_series(d)
    out = []
    for pure in (_pure_boundary_count, _pure_strata_count):
        lam_part = sum(lam[d - j] * pure(j) for j in range(0, d - 1, 2))
        pure_part = pure(d)
        out.append((lam_part, pure_part, lam_part + pure_part))
    return DimensionBounds(degree=d, boundary=out[0], strata=out[1])


# ---------------------------------------------------------------------------
# Explicit expansion oracle over a fixed Lagrangian
#
# A monomial prod D_v^{e_v} is packed as the integer sum of e_v << (3 v), so
# multiplying two monomials is adding their keys.
# ---------------------------------------------------------------------------

_FIELD_BITS = 3
_FIELD_MASK = (1 << _FIELD_BITS) - 1


@lru_cache(maxsize=None)
def _classify_monomial(pattern: tuple[int, ...], kernel: frozenset[int]) -> BracketClass:
    return canonical_bracket(pattern, kernel)


def _pack(monomial: Iterable[tuple[int, int]]) -> int:
    """Packed key of an explicit monomial ((vector, exponent), ...)."""
    key = 0
    for v, e in monomial:
        key += e << (_FIELD_BITS * v)
    return key


@lru_cache(maxsize=None)
def _packed_class(key: int) -> BracketClass:
    """Class of a nonzero packed monomial.

    The class depends only on the vectors and their exponents, not on the
    genus, so one cache serves every product and every g.
    """
    fields = []
    while key:
        v = ((key & -key).bit_length() - 1) // _FIELD_BITS
        e = key >> (_FIELD_BITS * v) & _FIELD_MASK
        key -= e << (_FIELD_BITS * v)
        fields.append((-e, v))
    fields.sort()
    vectors = [v for _, v in fields]
    pattern = tuple(-e for e, _ in fields)
    return _classify_monomial(pattern, frozenset(f2_kernel(vectors)))


@lru_cache(maxsize=None)
def _pattern_monomials(
    pattern: tuple[int, ...], g: int
) -> tuple[tuple[BracketClass, tuple[tuple[tuple[int, int], ...], ...]], ...]:
    """Monomials with the given exponent pattern over F2^g, grouped by class.

    Each unordered monomial is produced once: positions with equal exponents
    receive increasing vectors.
    """
    pool = list(range(1, 1 << g))
    blocks: list[tuple[int, int]] = []  # (exponent, block size)
    for e in pattern:
        if blocks and blocks[-1][0] == e:
            blocks[-1] = (e, blocks[-1][1] + 1)
        else:
            blocks.append((e, 1))
    grouped: dict[BracketClass, list] = {}

    def rec(bidx: int, used: tuple[int, ...], assignment: list[int]):
        if bidx == len(blocks):
            kernel = frozenset(f2_kernel(assignment))
            bc = _classify_monomial(pattern, kernel)
            grouped.setdefault(bc, []).append(
                tuple(sorted(zip(assignment, pattern), key=lambda t: (-t[1], t[0])))
            )
            return
        _, size = blocks[bidx]
        for combo in itertools.combinations([v for v in pool if v not in used], size):
            rec(bidx + 1, used + combo, assignment + list(combo))

    rec(0, (), [])
    return tuple((bc, tuple(ms)) for bc, ms in grouped.items())


def realize_class(bc: BracketClass, g: int) -> list[tuple[tuple[int, int], ...]]:
    """All monomials of the class over distinct nonzero vectors of F2^g.

    The result is empty exactly when the class needs more than g independent
    indices.
    """
    if bc is UNIT or not bc.exponents:
        return [()]
    for cls, monomials in _pattern_monomials(bc.exponents, g):
        if cls == bc:
            return list(monomials)
    return []


def oracle_expand(g: int, factors: Sequence[BracketClass]) -> ClassSum:
    """Expand a product of orbit sums over explicit vectors and re-classify.

    Every monomial of the expanded product is classified by its exact
    relation kernel; monomials of the same class must come out with the same
    coefficient, and the result is the class sum restricted to classes
    representable inside F2^g.

    Monomials are packed keys: the exponent of D_v sits in the 3-bit field
    at bit 3 v, for v <= 63 since g <= 6.  The total degree is capped at 6,
    so every exponent is below 8 and adding two keys never carries from one
    field into the next.
    """
    if g > 6:
        raise ValueError("oracle supports g <= 6")
    total = sum(bc.degree for bc in factors)
    if total > 6:
        raise ValueError("oracle expansion capped at total degree 6")
    poly: dict[int, int] = {0: 1}
    for bc in factors:
        fact = [_pack(m) for m in realize_class(bc, g)]
        new: dict[int, int] = {}
        for k1, c1 in poly.items():
            for k2 in fact:
                key = k1 + k2
                new[key] = new.get(key, 0) + c1
        poly = new
    by_class: dict[BracketClass, set[int]] = {}
    for key, coeff in poly.items():
        bc = _packed_class(key) if key else UNIT
        by_class.setdefault(bc, set()).add(coeff)
    data = {}
    for bc, coeffs in by_class.items():
        if len(coeffs) != 1:
            raise AssertionError(
                f"monomials of class {bc} appear with different coefficients {coeffs}"
            )
        data[bc] = coeffs.pop()
    return ClassSum.from_dict(data)


def representable(bc: BracketClass, g: int) -> bool:
    """Whether the class has monomials over F2^g: needs length - dim(code) <= g."""
    if bc is UNIT or not bc.exponents:
        return True
    return bc.length - bc.code_dim <= g
