"""Cones of rank-1 quadratic forms, their invariants, and the shipped catalog.

A cone is an ordered list of primitive integer vectors xi in Z^i, each
standing for the rank-1 symmetric form xi*xi^T.  Each cone fact has one
rule: dimension and rank by `rank`, the simplicial and basic flags in
`describe`, the matroidal flag by the maximal minors (`is_matroidal`), and
GL(i,Z)-equivalence of spanning cones by `cones_equivalent`, which first
compares the cached invariants of both cones (`_equivalence_invariants`).

The catalog is one table of explicit representatives (`_CATALOG_CONES`),
one per GL(i,Z)-orbit for every orbit of dimension up to 6 that contributes
to degree <= 12 of the assembled tables.  The g <= 5 face walk of `voronoi`
finds every entry of rank <= 5, the faces of the A6 domain give every
matroidal entry, `1+1+1+1+1+1` included, and for each non-matroidal
dimension-6 entry the tests hold an integral positive definite form whose
minimal vectors are exactly +- its generators, which makes it a
perfect-cone cell.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .matrices import (
    IntMatrix,
    IntVector,
    adjugate,
    det,
    identity,
    independent_indices,
    integral_map,
    invert_unimodular,
    kernel_basis,
    lattice_index,
    mat_vec,
    rank,
    sign_canonical,
    span_basis,
    transpose,
    vec_content,
    vec_dot,
)


def sym2_pairs(i: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (r, s), r <= s, ordering the coordinates of Sym^2(Z^i)."""
    return tuple((r, s) for r in range(i) for s in range(r, i))


def sym2_coordinates(v: IntVector) -> IntVector:
    """Coordinates of the rank-1 form v*v^T on the symmetric-matrix basis.

    The lattice Sym^2(Z^i) of integer symmetric matrices has basis E_rr and
    E_rs + E_sr (r < s); the form v*v^T has coordinate v_r * v_s on the basis
    element indexed by (r, s).
    """
    return tuple(v[r] * v[s] for r, s in sym2_pairs(len(v)))


def _integers(entries: Sequence) -> IntVector:
    """The entries as a tuple, or ValueError naming the first that is not an
    int: a `Fraction`, a float or a bool is rejected, never converted."""
    entries = tuple(entries)
    for x in entries:
        if type(x) is not int:
            raise ValueError(f"entry {x!r} is not an integer")
    return entries


class Cone:
    """An ordered set of primitive rank-1 form generators in Z^ambient; a
    generator entry that is not an int raises ValueError."""

    __slots__ = ("ambient", "generators", "name")

    def __init__(self, ambient: int, generators: Sequence[Sequence[int]], name: Optional[str] = None):
        if ambient < 1:
            raise ValueError("ambient rank must be >= 1")
        gens = []
        for g in generators:
            g = _integers(g)
            if len(g) != ambient:
                raise ValueError("generator length does not match ambient rank")
            if all(x == 0 for x in g):
                raise ValueError("zero generator")
            if vec_content(g) != 1:
                raise ValueError(f"generator {g} is not primitive")
            gens.append(sign_canonical(g))
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generators")
        if not gens:
            raise ValueError("a cone needs at least one generator")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("Cone is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Cone)
            and self.ambient == other.ambient
            and frozenset(self.generators) == frozenset(other.generators)
        )

    def __hash__(self):
        return hash((self.ambient, frozenset(self.generators)))

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Cone{label}(Z^{self.ambient}, {len(self.generators)} generators)"

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def sym2_matrix(self) -> IntMatrix:
        """Rows are the Sym^2 coordinates of the generators."""
        return tuple(sym2_coordinates(g) for g in self.generators)

    def with_name(self, name: str) -> "Cone":
        return Cone(self.ambient, self.generators, name)


def cone_dim(c: Cone) -> int:
    """Dimension of the span of the rank-1 forms inside Sym^2(R^i)."""
    return rank(c.sym2_matrix())


def cone_rank(c: Cone) -> int:
    """Rank of a generic element: dimension of the span of the generators."""
    return rank(c.generators)


def is_matroidal(c: Cone) -> bool:
    """Whether the generators are the rank-1 forms of a unimodular matrix.

    Written on a basis of the saturation of their span (`reduce_to_span`),
    the generators are the columns of a full-row-rank matrix A.  A is
    unimodular when every maximal minor is 0 or +-1, which holds exactly
    when B^-1 A is totally unimodular for a basis B (Schrijver, Theory of
    Linear and Integer Programming, 1986, Thm 19.5).  A span that is not
    saturated has every nonzero maximal minor divisible by its index, so
    the one test also rejects it.
    """
    red = reduce_to_span(c)
    return all(
        det([red.generators[j] for j in sel]) in (-1, 0, 1)
        for sel in itertools.combinations(range(red.n_generators), red.ambient)
    )


def orth_lattice(c: Cone) -> tuple[IntVector, ...]:
    """Basis of W: integral functionals on Sym^2(Z^i) vanishing on the cone.

    Functionals are written in the coordinates dual to the symmetric-matrix
    basis, ordered as in `sym2_pairs`.
    """
    return kernel_basis(c.sym2_matrix(), cols=len(sym2_pairs(c.ambient)))


class _GraphFields(NamedTuple):
    vertices: int
    edges: tuple[tuple[int, int], ...]


class Graph(_GraphFields):
    """Simple undirected graph on vertices 1..n."""

    __slots__ = ()

    def __new__(cls, vertices, edges):
        seen = set()
        for a, b in edges:
            if not (1 <= a <= vertices and 1 <= b <= vertices) or a == b:
                raise ValueError(f"bad edge ({a}, {b})")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add(key)
        return _GraphFields.__new__(cls, vertices, edges)


def cycle_graph(n: int) -> Graph:
    return Graph(n, tuple((k, k % n + 1) for k in range(1, n + 1)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)))


def graphical_cone(g: Graph, plus_ones: int = 0, name: Optional[str] = None) -> Cone:
    """Cone with generators (x_a - x_b)^2 over the edges, last vertex set to 0.

    `plus_ones` appends that many standard generators x^2 in fresh
    coordinates; the result has rank (vertices - 1) + plus_ones.

    Connectivity is a rank fact: with the last vertex set to 0, the edge
    vectors have rank vertices - components, so the graph is connected
    exactly when they have rank vertices - 1.
    """
    k = g.vertices - 1
    ambient = k + plus_ones
    gens = []
    for a, b in g.edges:
        v = [0] * ambient
        if a <= k:
            v[a - 1] += 1
        if b <= k:
            v[b - 1] -= 1
        gens.append(tuple(v))
    if rank(gens) != k:
        raise ValueError("graphical cones require a connected graph")
    if ambient < 1:
        raise ValueError("empty ambient space")
    for j in range(plus_ones):
        v = [0] * ambient
        v[k + j] = 1
        gens.append(tuple(v))
    return Cone(ambient, gens, name)


def reduce_to_span(c: Cone) -> Cone:
    """Rewrite the cone in a basis of the saturation of its generator span.

    The result has ambient rank equal to the cone rank and is GL-equivalent
    data: two cones in Z^g are GL(g,Z)-equivalent exactly when their
    reductions are equivalent in the smaller group.
    """
    if rank(c.generators) == c.ambient:
        return c
    _, coords = span_basis(c.generators, c.ambient)
    return Cone(len(coords[0]), coords, c.name)


# ---------------------------------------------------------------------------
# GL(i,Z)-equivalence search
# ---------------------------------------------------------------------------


def _pairings(vectors: Sequence[IntVector], ambient: int) -> tuple[tuple[int, ...], ...]:
    """The fingerprint P_ij = v_i^T adj(S) v_j of a spanning family, S = sum v v^T.

    An R in GL(ambient, Z) with R*v_j = s_j*w_perm[j] maps S to the sum for
    the w family and keeps its determinant, so the fingerprints agree up to
    the signs: P^w_{perm[i], perm[j]} = s_i*s_j*P^v_ij (Plesken-Souvignier).
    """
    s = [[sum(v[a] * v[b] for v in vectors) for b in range(ambient)] for a in range(ambient)]
    adj, _ = adjugate(s)
    adj_v = [mat_vec(adj, v) for v in vectors]
    return tuple(tuple(vec_dot(a, w) for w in vectors) for a in adj_v)


class _Family(NamedTuple):
    """The set-up of `_assignment_search` for one spanning vector family.

    `order` puts a maximal independent subset (the basis) first; `adj` and
    `d` are the adjugate and determinant of the basis as columns, so that a
    map R is fixed by the images W of the basis as R = W*adj / d.  `lookup`
    finds a vector's index from its sign-canonical form.
    """

    order: tuple[int, ...]
    adj: IntMatrix
    d: int
    lookup: dict[IntVector, int]
    pairings: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _family(vectors: tuple[IntVector, ...], ambient: int) -> _Family:
    """The search set-up of a family, computed once per family and ambient.

    Raises ValueError, on every call, for a family that does not span the
    ambient space: `lru_cache` does not cache exceptions.
    """
    order = list(independent_indices(vectors))
    if len(order) != ambient:
        raise ValueError("assignment search requires full-rank vector families")
    adj, d = adjugate(transpose([vectors[j] for j in order]))
    order += [j for j in range(len(vectors)) if j not in order]
    return _Family(
        order=tuple(order),
        adj=adj,
        d=d,
        lookup={sign_canonical(w): k for k, w in enumerate(vectors)},
        pairings=_pairings(vectors, ambient),
    )


def _assignment_search(
    src: Sequence[IntVector],
    dst: Sequence[IntVector],
    ambient: int,
    prescribed: Optional[Mapping[int, int]] = None,
) -> Iterator[tuple[IntMatrix, tuple[int, ...]]]:
    """Yield (R, perm) with R in GL(ambient, Z) and R*src[j] = +-dst[perm[j]].

    The one integral-symmetry search: GL-equivalence of cones, stabilizers
    and the equivalence and automorphisms of perfect forms all use it.  Both
    vector families must span the ambient space.  The search branches only
    over a maximal independent subset of the source (the basis), giving
    each basis vector a signed target that must match the `_pairings`
    fingerprint against the targets before it; this only cuts branches with
    no leaf.  The basis is inverted once, as an integer adjugate adj with
    determinant d, so the basis images W fix the one candidate map
    R = W*adj / d.  Each leaf computes R once: it must be integral, map
    every dependent source vector to an unused target, and have determinant
    +-1.  The dependent vectors need no fingerprint check, because an R in
    GL(ambient, Z) that maps one family onto the other up to sign keeps the
    fingerprint.  The set-up of each family (`_family`) is computed once
    and cached.

    `prescribed` maps some source indices j to the destination index k that
    perm[j] must equal (the sign stays free): a basis position tries only
    that k, and a leaf that maps a dependent vector elsewhere is rejected.
    Without it the search yields every leaf; `next(search, None)` is a
    first-leaf search.
    """
    n = len(src)
    if len(dst) != n:
        return
    source = _family(tuple(map(tuple, src)), ambient)
    target = _family(tuple(map(tuple, dst)), ambient)
    basis, dependent = source.order[:ambient], source.order[ambient:]
    dst_lookup = target.lookup
    p_src, p_dst = source.pairings, target.pairings
    prescribed = prescribed or {}

    perm = [-1] * n
    sign = [0] * n
    used = [False] * n
    images: list[IntVector] = []

    def fits(pos: int, j: int, k: int, s: int) -> bool:
        row, col = p_src[j], p_dst[k]
        return col[k] == row[j] and all(
            s * sign[i] * col[perm[i]] == row[i] for i in basis[:pos]
        )

    def extend(pos: int) -> Iterator[tuple[IntMatrix, tuple[int, ...]]]:
        if pos == ambient:
            r_matrix = integral_map(source.adj, source.d, images)
            if r_matrix is None:
                return
            leaf = perm[:]
            for j in dependent:
                k = dst_lookup.get(sign_canonical(mat_vec(r_matrix, src[j])))
                if k is None or k in leaf or prescribed.get(j, k) != k:
                    return
                leaf[j] = k
            if det(r_matrix) in (1, -1):
                yield r_matrix, tuple(leaf)
            return
        j = basis[pos]
        signs = (1,) if pos == 0 else (1, -1)
        for k in (prescribed[j],) if j in prescribed else range(n):
            if used[k]:
                continue
            for s in signs:
                if not fits(pos, j, k, s):
                    continue
                perm[j], sign[j] = k, s
                used[k] = True
                images.append(tuple(s * x for x in dst[k]))
                yield from extend(pos + 1)
                images.pop()
                used[k] = False
                perm[j] = -1

    yield from extend(0)


@lru_cache(maxsize=None)
def _equivalence_invariants(c: Cone) -> tuple:
    """GL-invariants of a cone, once per cone per process.

    Every entry depends only on the set of generators, so the order-blind
    `Cone` key is safe.  The first entry is the rank, which
    `cones_equivalent` also reads to reject a cone that does not span.
    """
    return (
        cone_rank(c),
        cone_dim(c),
        c.n_generators,
        lattice_index(c.generators),
        _f2_word_weights(c),
    )


def _f2_word_weights(c: Cone) -> tuple[int, ...]:
    """Sorted weights of the words (a.v mod 2 over the generators v), a in F2^i.

    A GL(i,Z) map permutes the a.  By the MacWilliams identity these weights
    and those of the F2 relations among the generators determine each other
    for cones of equal ambient and generator count.
    """
    masks = [vector_bitmask(g) for g in c.generators]
    words = (sum((a & m).bit_count() & 1 for m in masks) for a in range(1 << c.ambient))
    return tuple(sorted(words))


def vector_bitmask(v: IntVector) -> int:
    """Mod-2 residue of an integer vector, packed as a bitmask."""
    mask = 0
    for t, x in enumerate(v):
        if x % 2:
            mask |= 1 << t
    return mask


def cones_equivalent(c1: Cone, c2: Cone) -> Optional[IntMatrix]:
    """A matrix Q in GL(i,Z) whose action maps c1 onto c2, or None.

    Both cones must span their ambient space, or a ValueError names
    `reduce_to_span`; their ranks, the first invariant, then tell different
    ambients apart.  The action on forms is M -> Q^-T M Q^-1; Q exists
    exactly when some R in GL(i,Z) maps the generator vectors of c1 onto
    those of c2 up to sign, and then Q = (R^T)^-1.
    """
    for c in (c1, c2):
        r = _equivalence_invariants(c)[0]
        if r != c.ambient:
            raise ValueError(f"{c!r} has rank {r}; reduce_to_span it before cones_equivalent")
    if _equivalence_invariants(c1) != _equivalence_invariants(c2):
        return None
    for r_matrix, _perm in _assignment_search(c1.generators, c2.generators, c1.ambient):
        return transpose(invert_unimodular(r_matrix))
    return None


# ---------------------------------------------------------------------------
# The shipped catalog
# ---------------------------------------------------------------------------


class _CatalogEntryFields(NamedTuple):
    name: str
    dim: int
    rank: int
    cone: Cone
    matroidal: bool
    simplicial: bool
    basic: bool


class CatalogEntry(_CatalogEntryFields):
    """One GL-orbit of cones: an explicit representative with its dimension,
    rank and flags.  Each orbit is one stratum, so an entry carries no
    multiplicity.

    The entries of rank <= 5 are certified by the g <= 5 face walk, the
    matroidal ones also by the faces of the A6 domain, and the
    non-matroidal dimension-6 ones by a witness form whose minimal vectors
    are exactly +- the generators.
    """

    __slots__ = ()

    def __new__(cls, name, dim, rank, cone, matroidal, simplicial, basic):
        if dim < rank:
            raise ValueError("cone dimension is at least its rank")
        return _CatalogEntryFields.__new__(cls, name, dim, rank, cone, matroidal, simplicial, basic)


def _standard(i: int, name: str) -> Cone:
    return Cone(i, identity(i), name)


# One explicit representative per orbit, in catalog order.  The four
# dimension-6 rank-4 classes 6d-g4-a..d come in the sort order of
# voronoi.classify_faces(4, 6); the non-matroidal cells of rank 5 and 6 are
# each certified by a witness form in the tests.
_CATALOG_CONES = (
    _standard(1, "1"),
    _standard(2, "1+1"),
    Cone(2, [(1, 0), (0, 1), (1, -1)], "K3"),
    _standard(3, "1+1+1"),
    _standard(4, "1+1+1+1"),
    Cone(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1)], "K3+1"),
    Cone(3, [(1, 0, 0), (0, 1, 0), (1, 0, -1), (0, 1, -1)], "C4"),
    Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, -1), (0, 1, -1)], "K4-1"),
    Cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], "K3+1+1"),
    Cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, -1, 0), (0, 1, -1, 0), (0, 0, 0, 1)], "C4+1"),
    Cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, -1), (0, 1, -1, 0), (0, 0, 1, -1)], "C5"),
    _standard(5, "1+1+1+1+1"),
    Cone(5, [*identity(5)[:4], (1, 1, 1, 1, -2)], "NS"),
    graphical_cone(complete_graph(4), 0, "K4"),
    Cone(4, [(0, 0, 0, 1), (0, 0, 1, -1), (0, 0, 1, 0),
             (0, 1, -1, 0), (0, 1, 0, -1), (1, -1, 0, 0)], "6d-g4-a"),
    Cone(4, [(0, 0, 0, 1), (0, 0, 1, -1), (0, 0, 1, 0),
             (0, 1, -1, 0), (1, -1, 0, 0), (1, 0, -1, 0)], "6d-g4-b"),
    Cone(4, [(0, 0, 0, 1), (0, 0, 1, -1), (0, 0, 1, 0),
             (0, 1, -1, 0), (1, -1, 0, 0), (1, 0, 0, -1)], "6d-g4-c"),
    Cone(4, [(0, 0, 0, 1), (0, 0, 1, -1), (0, 1, -1, 0),
             (0, 1, 0, 0), (1, -1, 0, 0), (1, 0, 0, -1)], "6d-g4-d"),
    graphical_cone(cycle_graph(6), 0, "C6"),
    graphical_cone(cycle_graph(5), 1, "C5+1"),
    graphical_cone(cycle_graph(4), 2, "C4+1+1"),
    graphical_cone(cycle_graph(3), 3, "C3+1+1+1"),
    Cone(5, [(0, 0, 0, 0, 1), (0, 0, 0, 1, -1), (0, 0, 1, -1, 0),
             (0, 1, -1, 0, 0), (1, -1, -1, 0, 0), (1, 0, 0, -1, 0)], "6d-g5-x"),
    _standard(6, "1+1+1+1+1+1"),
    Cone(6, [(0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, -1), (0, 0, 0, 1, -1, 0),
             (0, 1, -1, 0, 0, 0), (1, -1, -1, 0, 0, 0), (1, 0, 0, -1, 0, -1)], "6d-g6-x"),
    Cone(6, [(0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, -1), (0, 0, 1, -1, 0, 0),
             (0, 1, -1, 0, 0, 0), (1, -1, 0, -1, 0, 0), (1, 0, 0, 0, -1, 0)], "6d-g6-y"),
)
# The published matroidal flags: every catalog cone but these is matroidal.
_NON_MATROIDAL = frozenset({"NS", "6d-g5-x", "6d-g6-x", "6d-g6-y"})


def describe(cone: Cone, matroidal: Optional[bool] = None) -> CatalogEntry:
    """Catalog entry of a cone, named by its name, with its dimension, rank
    and flags computed.  A given `matroidal` flag is taken as it is: the
    catalog's flags are published data, which `catalog show --check-flags`
    checks against `is_matroidal`.

    This is the one definition of the simplicial flag (the generators are
    independent as forms) and of the basic flag (independent forms whose
    Z-span is saturated in the lattice of integer symmetric matrices, that
    is, extendable to a Z-basis of Sym^2(Z^i) when full-dimensional)."""
    sym2 = cone.sym2_matrix()
    dim = rank(sym2)
    simplicial = dim == cone.n_generators
    return CatalogEntry(
        name=cone.name,
        dim=dim,
        rank=cone_rank(cone),
        cone=cone,
        matroidal=is_matroidal(cone) if matroidal is None else matroidal,
        simplicial=simplicial,
        basic=simplicial and lattice_index(sym2) == 1,
    )


@lru_cache(maxsize=None)
def catalog(max_dim: int = 6) -> tuple[CatalogEntry, ...]:
    """Orbit representatives of all cones of dimension <= max_dim.

    Every entry is described once, by `catalog(6)`; a smaller `max_dim`
    filters it."""
    if max_dim > 6:
        raise ValueError("catalog incomplete beyond dimension 6")
    if max_dim < 6:
        return tuple(e for e in catalog(6) if e.dim <= max_dim)
    return tuple(describe(c, c.name not in _NON_MATROIDAL) for c in _CATALOG_CONES)


def catalog_entry(name: str) -> CatalogEntry:
    """The catalog entry of that name; an unknown name is a ValueError."""
    for e in catalog(6):
        if e.name == name:
            return e
    raise ValueError(f"unknown catalog cone {name!r}")


def catalog_cone(name: str) -> Cone:
    return catalog_entry(name).cone


# ---------------------------------------------------------------------------
# Serialization: human-readable catalog text format
# ---------------------------------------------------------------------------


def _flag_str(v: bool) -> str:
    return "yes" if v else "no"


def _flag_parse(s: str) -> bool:
    if s not in ("yes", "no"):
        raise ValueError(s)
    return s == "yes"


def _multiplicity_parse(s: str) -> int:
    if s != "1":
        raise ValueError(s)
    return 1


def render_catalog(entries: Sequence[CatalogEntry]) -> str:
    """The catalog text format, one `[cone]` block per entry.

    Each block keeps a `multiplicity = 1` line: every entry is one orbit,
    and each orbit is one stratum of the tables, so the value is always 1.
    """
    blocks = []
    for e in entries:
        lines = ["[cone]", f"name = {e.name}", f"ambient = {e.cone.ambient}"]
        lines.append(f"dim = {e.dim}")
        lines.append(f"rank = {e.rank}")
        lines.append("multiplicity = 1")
        lines.append(f"matroidal = {_flag_str(e.matroidal)}")
        lines.append(f"simplicial = {_flag_str(e.simplicial)}")
        lines.append(f"basic = {_flag_str(e.basic)}")
        lines.append("generators:")
        for g in e.cone.generators:
            lines.append("  (" + ", ".join(str(x) for x in g) + ")")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# The `key = value` lines of a block, in the order `render_catalog` writes
# them, and the reader of each value.
_CATALOG_KEYS = "name ambient dim rank multiplicity matroidal simplicial basic".split()
_CATALOG_READERS = (str,) + (int,) * 3 + (_multiplicity_parse,) + (_flag_parse,) * 3


def parse_catalog(text: str) -> tuple[CatalogEntry, ...]:
    """Read `render_catalog` text back; empty text gives no entries.

    Blocks are separated by blank lines.  Each is a `[cone]` line, the eight
    `key = value` lines, `generators:`, then one `  (x, y, ...)` line per
    generator.  The multiplicity line must read 1, since each orbit is one
    stratum (`render_catalog`).  Every rejection is a ValueError that names
    the block.
    """
    entries = []
    for block in filter(None, re.split(r"\n\s*\n", text.strip())):
        head, *lines = block.splitlines()
        if head != "[cone]":
            raise ValueError(f"unknown block type {head.strip('[]')!r}")
        try:
            entries.append(_cone_block(lines))
        except ValueError as e:
            name = lines[0].removeprefix("name = ") if lines else ""
            raise ValueError(f"catalog block {name!r}: {e}") from None
    return tuple(entries)


def _cone_block(lines: list[str]) -> CatalogEntry:
    """The entry of the lines that follow a `[cone]` line."""
    padded = lines + [""] * 9
    fields = {}
    for key, read, line in zip(_CATALOG_KEYS, _CATALOG_READERS, padded):
        got, sep, value = line.partition(" = ")
        if (got, sep) != (key, " = "):
            raise ValueError(f"expected '{key} = ...', got {line!r}")
        try:
            fields[key] = read(value)
        except ValueError:
            raise ValueError(f"bad value in {line!r}") from None
    if padded[8] != "generators:":
        raise ValueError(f"expected 'generators:', got {padded[8]!r}")
    for line in lines[9:]:
        if not re.fullmatch(r"  \(-?[0-9]+(, -?[0-9]+)*\)", line):
            raise ValueError(f"bad generator line {line!r}")
    generators = [tuple(map(int, line[3:-1].split(", "))) for line in lines[9:]]
    del fields["multiplicity"]
    return CatalogEntry(cone=Cone(fields.pop("ambient"), generators, fields["name"]), **fields)
