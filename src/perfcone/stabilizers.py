"""Stabilizer of a cone in GL(i,Z) and its image acting on Span(sigma).

Only the image of the stabilizer on the span of the cone matters for the
invariant series (automorphisms acting trivially there, such as -1, are
quotiented out).  For a simplicial cone the rank-1 forms of the generators
are a basis of the span, so the image is the group G of generator
permutations realizable by integral cone automorphisms, and the Molien series
is computed by cycle index, as an average over their cycle types
(`invariants.molien`).

G is built by `permutation_group` from a stabilizer chain (Sims 1970;
Butler, LNCS 559, 1991) on the one integral-symmetry search,
`cones._assignment_search`; the same chain gives the automorphism group of a
perfect form as permutations of its minimal vectors
(`voronoi.domain_automorphism_perms`).  The base is the vectors b_1..b_n in
the search's basis-first order.  At level i, for each vector k, one
first-leaf search with b_j -> b_j (j < i) and b_i -> k prescribed finds an
element of the pointwise stabilizer of b_1..b_{i-1} moving b_i to k, or
proves there is none; the elements found form the transversal U_i.

The closure H of the transversals is both the element list and the proof.
Its elements are automorphisms, and each U_i fixes b_1..b_{i-1} and moves
b_i to distinct places, so |H| >= prod |U_i|, with equality exactly when
every U_i is a complete transversal of H's own chain.  An element joins the
generators only when the closure misses it, so each one kept at least
doubles H (Lagrange): at most log2 |G| are kept, and the closure costs about
|G| compositions per generator.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

from .cones import Cone, _assignment_search, _family, cone_rank, sym2_coordinates
from .matrices import IntVector, rank


class GroupAction(NamedTuple):
    """A finite group acting on Span(sigma) by permuting a basis.

    The basis is the rank-1 forms of the generators; `perms[k]` is the k-th
    group element as a permutation of the generators and `orbits` is the
    orbit partition of the generators.
    """

    perms: tuple[tuple[int, ...], ...]
    orbits: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.perms)


def stabilizer_action(c: Cone) -> GroupAction:
    """Image on Span(sigma) of the stabilizer of the cone in GL(i,Z).

    Requires a simplicial cone whose generators span R^i.  An integral
    automorphism preserves the cone exactly when it permutes the extremal rays
    up to sign, and on the span it then acts by that permutation of the rank-1
    forms.

    Every generator of a `Cone` is an extremal ray.  The generators are
    distinct, primitive and sign-canonical, so no two span the same ray.  If
    v v^T = sum_i l_i w_i w_i^T with every l_i > 0, then each y orthogonal to
    v gives sum_i l_i (w_i . y)^2 = 0, so every w_i is +-v: no generator is a
    nonnegative combination of the others.
    """
    if cone_rank(c) != c.ambient:
        raise ValueError("stabilizer computation needs a rank-i cone in Z^i")
    # keyed on the ordered generators: cone equality ignores their order,
    # which the permutations depend on; the name only labels an error, which
    # is never cached
    try:
        return _stabilizer_action_cached(c.generators, c.ambient)
    except StabilizerGroupError as e:
        raise StabilizerGroupError(f"stabilizer image of {c.name or c.generators}: {e}") from None


class StabilizerGroupError(AssertionError):
    """A stabilizer group fails its order proof or Burnside's lemma."""


@lru_cache(maxsize=None)
def _stabilizer_action_cached(rays: tuple[IntVector, ...], ambient: int) -> GroupAction:
    if rank([sym2_coordinates(v) for v in rays]) != len(rays):
        raise ValueError(
            f"stabilizer action needs a simplicial cone: {len(rays)} generators "
            "with dependent rank-1 forms"
        )
    perms = permutation_group(rays, ambient)
    return GroupAction(
        perms=perms,
        # the orbit of ray j is its image under every group element
        orbits=tuple(sorted({tuple(sorted({p[j] for p in perms})) for j in range(len(rays))})),
    )


def permutation_group(vectors: Sequence[IntVector], ambient: int) -> tuple[tuple[int, ...], ...]:
    """The permutations of the vectors induced by every U in GL(ambient, Z)
    that maps them onto themselves up to sign, sorted.

    The vectors must span Q^ambient.  The group is the closure of the
    chain's transversals, which must have prod |U_i| elements, or
    `StabilizerGroupError`, which the caller prefixes with what it built.
    """
    transversals = _transversals(vectors, ambient)
    group = {tuple(range(len(vectors)))}
    generators: list[tuple[int, ...]] = []
    for u in (u for level in transversals for u in level):
        if u in group:
            continue
        generators.append(u)
        frontier = list(group)
        while frontier:
            s = frontier.pop()
            for t in generators:
                st = tuple([s[x] for x in t])  # a list builds it faster than a generator
                if st not in group:
                    group.add(st)
                    frontier.append(st)
    expected = math.prod(len(level) for level in transversals)
    if len(group) != expected:
        raise StabilizerGroupError(
            f"the transversals generate {len(group)} permutations, "
            f"their lengths multiply to {expected}"
        )
    return tuple(sorted(group))


def _transversals(rays: Sequence[IntVector], ambient: int) -> list[list[tuple[int, ...]]]:
    """The transversals U_1..U_n of the stabilizer chain along the base.

    U_i holds, for each vector k in the orbit of b_i under the pointwise
    stabilizer of b_1..b_{i-1}, the permutation of the first leaf of the
    search with those vectors fixed and b_i -> k.
    """
    fixed: dict[int, int] = {}
    transversals = []
    for b in _family(tuple(rays), ambient).order:
        level = []
        for k in range(len(rays)):
            if k in fixed:
                continue
            leaf = next(_assignment_search(rays, rays, ambient, {**fixed, b: k}), None)
            if leaf is not None:
                level.append(leaf[1])
        transversals.append(level)
        fixed[b] = b
    return transversals


def invariant_dim_degree1(c: Cone) -> int:
    """Dimension of the fixed subspace of Span(sigma): the number of ray orbits.

    Cross-checked by Burnside's lemma against the average number of rays each
    group element fixes.
    """
    action = stabilizer_action(c)
    fixed = sum(sum(1 for j, x in enumerate(p) if j == x) for p in action.perms)
    if fixed != len(action.orbits) * action.order:
        raise StabilizerGroupError(
            f"stabilizer image of {c.name or c.generators}: fixed-point average "
            f"{fixed}/{action.order} and orbit count {len(action.orbits)} disagree"
        )
    return len(action.orbits)
