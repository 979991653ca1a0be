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
import operator
import re
import warnings
from collections import Counter
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .cones import Cone, catalog, vector_bitmask
from .matrices import f2_kernel


class _BracketClassFields(NamedTuple):
    exponents: tuple[int, ...]
    code: frozenset[int]


class BracketClass(_BracketClassFields):
    """Canonical orbit label: nonincreasing exponents plus relation code.

    `code` holds every nonzero vector of the relation subspace as a bitmask
    over the index positions (bit j is index j+1).  Instances must be built
    through `canonical_bracket` or `parse_bracket`, which pick the canonical
    representative under the exponent-preserving permutations.
    """

    __slots__ = ()

    def __new__(cls, exponents, code):
        if any(e < 1 for e in exponents):
            raise ValueError("exponents must be positive")
        if tuple(sorted(exponents, reverse=True)) != exponents:
            raise ValueError("exponents must be nonincreasing")
        l = len(exponents)
        for v in code:
            if not 0 < v < (1 << l):
                raise ValueError("relation vector out of range")
            if bin(v).count("1") < 3:
                raise ValueError("relation of Hamming weight < 3")
        for v in code:
            for w in code:
                if v != w and v ^ w not in code:
                    raise ValueError("relation code is not a subspace")
        return _BracketClassFields.__new__(cls, exponents, code)

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


# The unit, the one class with no exponents; it is recognized by
# `not bc.exponents`, never by identity.
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
def _orbit_table(exponents: tuple[int, ...]) -> dict[frozenset[int], tuple[BracketClass, int]]:
    """One pattern's orbit table: every code of every orbit walked so far ->
    (its class, its orbit's size); an `lru_cache`, so that clearing the
    module's caches clears it too."""
    return {}


def _orbit_class(exponents: tuple[int, ...], code: frozenset[int]) -> tuple[BracketClass, int]:
    """(class, orbit size) of a code over nonincreasing exponents, from the
    orbit table, or from one walk of its orbit whose members all go into it.
    The class is built before anything is stored, so a code it rejects (a
    relation of weight < 3) raises its ValueError on every call."""
    table = _orbit_table(exponents)
    if code not in table:
        orbit = _orbit(exponents, code)
        table.update(dict.fromkeys(orbit, (BracketClass(exponents, _least(orbit)), len(orbit))))
    return table[code]


@lru_cache(maxsize=None)
def _canonical_cached(exponents: tuple[int, ...], code: frozenset) -> BracketClass:
    return _orbit_class(exponents, code)[0]


def canonical_bracket(exponents: Sequence[int], code: Iterable[int]) -> BracketClass:
    """Canonical class for an exponent list and relation vectors.

    Positions are first sorted by decreasing exponent (relations remapped
    along), then the code is minimized over its orbit under the
    pattern-preserving permutations.  The code may be given by any set of
    vectors; its span is taken, excluding zero.  The notation writes each
    index as one digit, so more than nine positions are rejected before the
    orbit walk, whose cost grows like the factorial of their number.

    The sorted (exponents, code) pair is memoized by `_canonical_cached`; a
    pair it has not seen is read from the pattern's orbit table
    (`_orbit_class`), which holds every code of every orbit that
    `enumerate_brackets` or an earlier miss has walked, so each orbit is
    walked at most once per process.
    """
    exponents = tuple(exponents)
    if len(exponents) > 9:
        raise ValueError(
            f"bracket classes have at most 9 indices (one digit each), got {len(exponents)}"
        )
    span = _span(code)
    order = sorted(range(len(exponents)), key=lambda j: (-exponents[j], j))
    perm = [0] * len(exponents)
    for newpos, j in enumerate(order):
        perm[j] = newpos
    sorted_exp = tuple(exponents[j] for j in order)
    moved = frozenset(_remap(v, perm) for v in span)
    return _canonical_cached(sorted_exp, moved)


def _span(vectors: Iterable[int]) -> frozenset[int]:
    out = {0}
    for v in vectors:
        if v not in out:
            out |= {v ^ x for x in out}
    out.discard(0)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Rendering and parsing, in the notation {1^2 2 3 (123,145)}
# ---------------------------------------------------------------------------


def render_bracket(bc: BracketClass) -> str:
    """One digit per index and exponent: a class needing 10 would not parse back."""
    if not bc.exponents:
        return "{}"
    if bc.length > 9 or bc.exponents[0] > 9:  # exponents are nonincreasing
        raise ValueError(f"bracket indices and exponents are one digit (at most 9): {bc.exponents}")
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


# One token of a bracket body: an index with an optional exponent, a group
# of relations in parentheses, or spaces.  The last alternative catches any
# other character, so that it is rejected rather than skipped.
_BRACKET_TOKEN = re.compile(r"([0-9])(?:\^([0-9]))?|\(([^()]*)\)|\s+|(.)")


def parse_bracket(text: str) -> BracketClass:
    """Read the notation {1^2 2 3 (123,145)}, or its compact form {1^22 3(123)}.

    The body between the braces is a sequence of tokens: an index digit with
    an optional `^` and exponent digit, a parenthesised comma-separated list
    of relations, each written as the digits of its indices, or spaces.  The
    indices are exactly 1..l, each once.  Every rejection, the class's own
    checks included, is a ValueError that names the text.
    """
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"bracket class must be enclosed in braces: {text!r}")
    indices: list[tuple[int, int]] = []
    relations: list[int] = []
    for index, exp, group, stray in _BRACKET_TOKEN.findall(s[1:-1]):
        if stray:
            raise ValueError(f"unexpected character {stray!r} in {text!r}")
        if index:
            indices.append((int(index), int(exp or 1)))
        for chunk in filter(None, map(str.strip, group.split(","))):
            if not re.fullmatch("[1-9]+", chunk):
                raise ValueError(f"bad relation {chunk!r} in {text!r}")
            relations.append(sum(1 << (int(d) - 1) for d in set(chunk)))
    l = len(indices)
    if sorted(j for j, _ in indices) != list(range(1, l + 1)):
        raise ValueError(f"indices must be 1..{l}, each once, in {text!r}")
    if any(v >> l for v in relations):
        raise ValueError(f"relation uses an index beyond {l} in {text!r}")
    try:
        return canonical_bracket([e for _, e in sorted(indices)], relations)
    except ValueError as e:
        raise ValueError(f"{e} in {text!r}") from None


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
    work is done, and degree 7 itself warns that it is unvalidated.  The
    classes of each pattern's weight-3 codes (`_orbit_class`) must number
    what Burnside's lemma counts.
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
        found = {_orbit_class(pattern, code)[0] for code in _weight3_subspaces(len(pattern))}
        expected = _burnside_class_count(pattern)
        if len(found) != expected:
            raise BracketCountError(
                f"pattern {pattern}: the orbit walk finds {len(found)} classes, "
                f"Burnside counts {expected}"
            )
        out.extend(sorted(found, key=BracketClass.sort_key))
    return tuple(out)


# ---------------------------------------------------------------------------
# Class sums and products
# ---------------------------------------------------------------------------


class ClassSum(NamedTuple):
    """Formal integer combination of bracket classes (no zero terms).

    Every coefficient is a count: of the ways a monomial factors, or of
    monomials of the expanded product."""

    terms: tuple[tuple[BracketClass, int], ...]

    @staticmethod
    def from_dict(data: dict) -> "ClassSum":
        cleaned = [(bc, c) for bc, c in data.items() if c != 0]
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

    def restricted(self, g: int) -> "ClassSum":
        """The terms whose classes have monomials over F2^g (`representable`)."""
        return ClassSum(tuple((bc, c) for bc, c in self.terms if representable(bc, g)))

    def __mul__(self, other: "ClassSum") -> "ClassSum":
        if not isinstance(other, ClassSum):
            return NotImplemented
        data: dict[BracketClass, int] = {}
        for a, ca in self.terms:
            for b, cb in other.terms:
                for c, n in _structure_constants(a, b):
                    data[c] = data.get(c, 0) + ca * cb * n
        return ClassSum.from_dict(data)

    # a class sum is not a sequence: no tuple concatenation or repetition
    def __add__(self, other):
        return NotImplemented

    __rmul__ = __add__

    def __radd__(self, other):
        # `NotImplemented` here would let a tuple on the left concatenate
        raise TypeError(
            f"unsupported operand type(s) for +: {type(other).__name__!r} and 'ClassSum'"
        )

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
    mask = sum(1 << j for j in support)
    rank = [0] * len(split)  # position j goes to its rank in the support
    for t, j in enumerate(support):
        rank[j] = t
    vectors = [_remap(v, rank) for v in c.code if not v & ~mask]
    return canonical_bracket([split[j] for j in support], vectors)


@lru_cache(maxsize=None)
def _split_table(c: BracketClass) -> Counter[tuple[BracketClass, BracketClass]]:
    """(class of one half, class of the other half) -> number of the ordered
    splits of c, into two nonempty halves, with those classes.

    Every class pair of c's degree reads its coefficient at c from this one
    table.  The exponent splits s (0 <= s_j <= e_j) are walked once, the two
    with an empty half skipped; each unordered pair of halves {s, e - s} is
    classified (`_subtype`) once, from the s lexicographically at most e - s,
    and counted in both orientations, or once when s = e - s.
    """
    table: Counter[tuple[BracketClass, BracketClass]] = Counter()
    for split in itertools.product(*(range(e + 1) for e in c.exponents)):
        rest = tuple(map(operator.sub, c.exponents, split))
        if split > rest or not any(split):
            continue
        x, y = _subtype(c, split), _subtype(c, rest)
        table[x, y] += 1
        if split != rest:
            table[y, x] += 1
    return table


@lru_cache(maxsize=None)
def _structure_constants(
    a: BracketClass, b: BracketClass
) -> tuple[tuple[BracketClass, int], ...]:
    """Expansion of the product of two classes in the bracket basis.

    The coefficient of C counts the ways a fixed monomial of type C factors
    into a type-A and a type-B monomial: exponent splits whose two halves,
    with their induced codes, canonicalize to A and B respectively.  It is
    read, for each C of the product's degree in enumeration order, from C's
    split table (`_split_table`), which every product of that degree shares.
    """
    if not a.exponents:
        return ((b, 1),)
    if not b.exponents:
        return ((a, 1),)
    out = []
    for c in enumerate_brackets(a.degree + b.degree):
        count = _split_table(c)[a, b]
        if count:
            out.append((c, count))
    return tuple(out)


def parse_factors(text: str) -> list[BracketClass]:
    """Factors of a product expression: bracket classes joined by '*', each
    with an optional '^' power, which repeats it; a power must be
    nonnegative, and power 0 leaves the unit.  An empty expression is the
    unit, but an empty factor is rejected.

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
        if not chunk:
            raise ValueError(f"empty factor in {text!r}")
        power = 1
        if "}^" in chunk:
            chunk, _, p = chunk.rpartition("^")
            try:
                power = int(p)
            except ValueError:
                raise ValueError(f"power {p!r} is not an integer in {text!r}") from None
            if power < 0:
                raise ValueError(f"negative power {power} in {text!r}")
        try:
            bc = parse_bracket(chunk)
        except ValueError as e:
            # the error quotes the factor; name the expression too, unless
            # the factor is all of it
            if chunk == s:
                raise
            raise ValueError(f"{e} in {text!r}") from None
        degree += bc.degree * power
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
    residues = Counter(vector_bitmask(g) for g in c.generators)  # in first-seen order
    return canonical_bracket(list(residues.values()), f2_kernel(list(residues)))


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
    counts = Counter(e.dim for e in catalog(6))
    total = 0
    for pattern in _partitions(d // 2):
        prod = 1
        for p in pattern:
            prod *= counts[p]
        total += prod
    return total


class DimensionBounds(NamedTuple):
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
    for pure in (lambda j: len(enumerate_brackets(j // 2)), count_pure_strata):
        # the one pure class of degree 0 is the unit
        lam_part = lam.coeffs[d] + sum(lam.coeffs[d - j] * pure(j) for j in range(2, d - 1, 2))
        pure_part = pure(d)
        out.append((lam_part, pure_part, lam_part + pure_part))
    return DimensionBounds(degree=d, boundary=out[0], strata=out[1])


# ---------------------------------------------------------------------------
# Explicit expansion oracle over a fixed Lagrangian
#
# A monomial prod D_v^{e_v} is packed as the integer sum of e_v << (3 v), so
# multiplying two monomials is adding their keys, which the convolution does
# in C with `starmap(operator.add, product(...))`.  A monomial is a packed key
# from its listing to its classification, and no pattern's monomials are kept.
# What is cached, for the life of the process:
# - `_class_ids`: packed key -> small class id, one entry per key classified;
# - `_support_code`: support bits -> relation code, bounded, codes interned;
# - `_classify_monomial`: (exponent digits, code) -> class id, so a key that
#   misses `_class_ids` costs no `BracketClass` hash;
# - behind `canonical_bracket`: the orbit tables, one walk per code orbit.
# On the structure-constant side, which the oracle checks, `_split_table`
# holds, per class of the product's degree, the number of its ordered splits
# into each pair of half classes, shared by every product of that degree, and
# `_structure_constants` one expansion per class pair.
# ---------------------------------------------------------------------------

_FIELD_BITS = 3
# the lowest bit of each of the 64 fields, v = 0..63 (g <= 6)
_FIELD_ONES = int("1" * 64, 8)


class OracleCoefficientError(AssertionError):
    """Monomials of one class come out of the expansion with different
    coefficients, so the product is not a combination of orbit sums."""


class OracleCompletenessError(AssertionError):
    """The expansion's distinct monomials do not number all the monomials
    of the classes they reach, so some class is only partly present."""


@lru_cache(maxsize=None)
def _classify_monomial(exponents: str, code: frozenset[int]) -> int:
    """`_class_ids` id of a monomial from its exponent digits and its
    relation code, both over the positions of its vectors in increasing
    order."""
    return _class_ids.id_of(canonical_bracket(tuple(map(int, exponents)), code))


# one stored frozenset per distinct code: far fewer codes than supports
_codes: dict[frozenset[int], frozenset[int]] = {}


@lru_cache(maxsize=1 << 14)
def _support_code(support: int) -> frozenset[int]:
    """Relation code of the vectors v whose bit 3 v is set in `support`,
    numbered in increasing order: the zero-XOR subsets of those vectors.

    The cache is bounded: at g = 4 every product monomial of degree <= 6
    has one of about 10 k supports, but at g = 5 nearly every set of up to 5
    of the 31 vectors occurs (about 206 k), which would hold some 15 MB for
    few hits.
    """
    vectors = []
    while support:
        low = support & -support
        vectors.append((low.bit_length() - 1) // _FIELD_BITS)
        support ^= low
    code = frozenset(f2_kernel(vectors))
    return _codes.setdefault(code, code)


class _ClassIds(dict):
    """Packed key -> small class id, classified on a miss; `classes[id]` is the class.

    The oracle's one key-level cache: a hit is a C-level `__getitem__`, and
    the ids hash and compare as plain integers.  A miss reads the key's
    exponents in increasing vector order (`oct(key)` lists the fields from
    the top down, so reversed and without zeros) and its support (a bit per
    nonzero field), and asks `_classify_monomial` for the id of those
    exponents over `_support_code(support)`.  The class depends only on the
    vectors and their exponents, not on the genus.
    """

    def __init__(self) -> None:
        super().__init__()
        self.classes: list[BracketClass] = []
        self.by_class: dict[BracketClass, int] = {}

    def __missing__(self, key: int) -> int:
        exponents = oct(key)[:1:-1].replace("0", "")
        support = (key | key >> 1 | key >> 2) & _FIELD_ONES
        cid = self[key] = _classify_monomial(exponents, _support_code(support))
        return cid

    def id_of(self, bc: BracketClass) -> int:
        if bc not in self.by_class:
            self.by_class[bc] = len(self.classes)
            self.classes.append(bc)
        return self.by_class[bc]


_class_ids = _ClassIds()

# The largest jobs the oracle takes on, so that an expensive input fails at
# once instead of running for hours.  The jobs in use stay far below: at
# g = 5 the largest product is {12}*{123} (2 018 100 monomial tuples) and the
# largest pattern that of {1234} (31 465 monomials); at g = 6, a cold
# `brackets oracle -g 6` of {1}^4 (63^4, about 1.6e7 tuples) takes about
# 3.5 s and 230 MB, and of {1234} (595 665) about 2.2 s and 150 MB
# (Python 3.11, 2 CPUs).
MAX_PATTERN_MONOMIALS = 10**6
MAX_PRODUCT_MONOMIALS = 10**8


def _pattern_count(pattern: tuple[int, ...], g: int) -> int:
    """Number of monomials with the exponent pattern over F2^g, without
    listing them: P(2^g - 1, len) over the product of the factorials of the
    sizes of the blocks of equal exponents."""
    count = math.perm((1 << g) - 1, len(pattern))
    for size in Counter(pattern).values():
        count //= math.factorial(size)
    return count


def _class_monomial_count(bc: BracketClass, g: int) -> int:
    """Number of monomials of the class over F2^g, without listing them.

    Ordering a monomial's vectors along the positions gives the images of
    the unit vectors under a linear map F2^l -> F2^g whose kernel is a code
    of the class's orbit.  The maps with kernel exactly K are the injective
    maps F2^l / K -> F2^g, prod_{i<r} (2^g - 2^i) of them for r = l - dim K,
    and each monomial gives |Stab(K)| of them, the stabilizer of K in the
    pattern group: prod m_j! (the block sizes) over the size of K's orbit.
    """
    maps = math.prod((1 << g) - (1 << i) for i in range(bc.length - bc.code_dim))
    group = math.prod(map(math.factorial, Counter(bc.exponents).values()))
    return maps // (group // _orbit_class(bc.exponents, bc.code)[1])


def realize_class(bc: BracketClass, g: int) -> list[int]:
    """Packed keys of the class's monomials over distinct nonzero vectors of F2^g.

    Each block of equal exponent e takes a combination of the vectors that
    earlier blocks left unused and adds their shifted exponents e << 3 v,
    summed in C by `map(sum, combinations(...))`, so every key of the
    pattern is listed once.  The keys whose `_class_ids` id is the class's
    are kept; the listing is not, so no pattern's monomials outlive the
    call, while every key's id stays in `_class_ids`.  The result is empty
    exactly when the class needs more than g independent indices.  A pattern
    with more than MAX_PATTERN_MONOMIALS monomials is rejected with a
    ValueError before any is listed.
    """
    count = _pattern_count(bc.exponents, g)
    if count > MAX_PATTERN_MONOMIALS:
        raise ValueError(
            f"the pattern of {bc} has {count} monomials at g = {g}, "
            f"over MAX_PATTERN_MONOMIALS = {MAX_PATTERN_MONOMIALS}"
        )
    keys = [0]
    for e, size in Counter(bc.exponents).items():
        keys = [
            key + shifted
            for key in keys
            for shifted in map(sum, itertools.combinations(
                [e << _FIELD_BITS * v for v in range(1, 1 << g) if not key >> _FIELD_BITS * v & 7],
                size,
            ))
        ]
    cid = _class_ids.id_of(bc)
    return [key for key in keys if _class_ids[key] == cid]


def oracle_expand(g: int, factors: Sequence[BracketClass]) -> ClassSum:
    """Expand a product of orbit sums over explicit vectors and re-classify.

    Every monomial of the expanded product is classified by its exact
    relation code.  The product of orbit sums is a combination of orbit
    sums, which is checked from both sides: monomials of the same class
    must come out with the same coefficient (else `OracleCoefficientError`),
    and the distinct monomials must number the monomials of the classes
    they reach, each counted by `_class_monomial_count` (else
    `OracleCompletenessError`).  The result is the class sum restricted to
    classes representable inside F2^g; a factor that is not representable
    has no monomials, so nothing is listed and the result is 0.

    Monomials are packed keys from listing to classification: the exponent
    of D_v sits in the 3-bit field at bit 3 v, for v <= 63 since g <= 6.
    The total degree is capped at 6, so every exponent is below 8 and adding
    two keys never carries from one field into the next.  Each factor's keys
    come from `realize_class`, listed afresh on every call.

    The product is convolved one factor at a time.  Each stage is counted by
    `Counter` over `starmap(operator.add, product(keys, fact))`, the sums of
    the running keys with the factor's keys, one pass per distinct running
    coefficient, so the additions and the counting run in C; a pass whose
    coefficient is not 1 then scales its counts.  Each key of the product is
    then looked up in `_class_ids` (see the caches above).  Only the
    monomials the product touches are classified; the monomials of the
    product's own patterns are never listed, since at g = 6 the pattern
    (1,1,1,1,1,1) alone has C(63, 6), about 67 million, where {123(123)}^2
    forms 651^2, about 424 k, sums.  A product with more than
    MAX_PRODUCT_MONOMIALS tuples of factor monomials is rejected with a
    ValueError before the convolution starts.
    """
    if not 0 <= g <= 6:
        raise ValueError(f"oracle supports 0 <= g <= 6, got g = {g}")
    total = sum(bc.degree for bc in factors)
    if total > 6:
        raise ValueError("oracle expansion capped at total degree 6")
    if not all(representable(bc, g) for bc in factors):
        return ClassSum(())
    facts = [realize_class(bc, g) for bc in factors]
    size = math.prod(map(len, facts))
    if size > MAX_PRODUCT_MONOMIALS:
        raise ValueError(
            f"the product has {size} tuples of factor monomials at g = {g}, "
            f"over MAX_PRODUCT_MONOMIALS = {MAX_PRODUCT_MONOMIALS}"
        )
    poly: dict[int, int] = {0: 1}
    for fact in facts:
        by_coeff: dict[int, list[int]] = {}
        for key, coeff in poly.items():
            by_coeff.setdefault(coeff, []).append(key)
        poly = Counter()
        for coeff, keys in by_coeff.items():
            counts = Counter(itertools.starmap(operator.add, itertools.product(keys, fact)))
            if coeff != 1:
                for key in counts:
                    counts[key] *= coeff
            if poly:
                poly.update(counts)
            else:
                poly = counts
    found = set(zip(map(_class_ids.__getitem__, poly), poly.values()))
    data = dict(found)
    if len(data) != len(found):
        coeffs: dict[int, set[int]] = {}
        for cid, coeff in found:
            coeffs.setdefault(cid, set()).add(coeff)
        cid = min(cid for cid, cs in coeffs.items() if len(cs) > 1)
        raise OracleCoefficientError(
            f"monomials of class {_class_ids.classes[cid]} appear with different "
            f"coefficients {sorted(coeffs[cid])}"
        )
    result = ClassSum.from_dict({_class_ids.classes[cid]: coeff for cid, coeff in data.items()})
    expected = sum(_class_monomial_count(bc, g) for bc, _ in result.terms)
    if len(poly) != expected:
        raise OracleCompletenessError(
            f"the product has {len(poly)} distinct monomials at g = {g}, "
            f"but its classes {', '.join(str(bc) for bc, _ in result.terms)} have {expected}"
        )
    return result


def representable(bc: BracketClass, g: int) -> bool:
    """Whether the class has monomials over F2^g: needs length - dim(code) <= g."""
    return bc.length - bc.code_dim <= g
