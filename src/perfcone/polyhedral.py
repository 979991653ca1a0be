"""Exact polyhedral helpers for full-dimensional pointed rational cones.

A cone is described by its generating rays (integer vectors in Z^D that span
R^D).  Its facets come from an integer double description (Fukuda-Prodon
1996, "Double description method revisited"): the inequalities of a simplex
of rays, read off an adjugate, are refined by one ray at a time, and each
adjacent pair of inequalities on opposite sides of the new ray gives a new
one.  Adjacency is the combinatorial test on zero sets, kept as int bitmasks,
so no rank is computed after the start.

Faces are ray sets, found bottom-up, one dimension at a time, as closures
under the facets' ray sets, with no further geometry.  Under a group of ray
permutations (the automorphisms of a perfect domain) only one face per orbit
is kept and lifted, as in Bremner-Dutour Sikirić-Schürmann 2009,
"Polyhedral representation conversion up to symmetries".
"""

from __future__ import annotations

from operator import or_
from typing import Collection, Sequence

from .matrices import IntVector, adjugate, independent_indices, transpose, vec_content, vec_dot


def _primitive(v) -> IntVector:
    c = vec_content(v)
    return tuple(x // c for x in v)


def facets(rays: Sequence[IntVector], ambient: int) -> tuple[tuple[IntVector, frozenset], ...]:
    """Facets of the pointed cone generated by rays that span Z^D, D = ambient.

    Returns (inward primitive normal, indices of rays on the facet) pairs,
    one per facet, sorted by ray set; a cone of lower rank raises
    `ValueError`.  The start is the first maximal independent rays B: the
    rows of adj(B^T), times the sign of det(B^T), are the inward normals of
    their simplex.  Each further ray r keeps the inequalities h with
    h.r >= 0 and combines each adjacent pair h+.r > 0 > h-.r into
    (h+.r) h- - (h-.r) h+, made primitive.  Two inequalities are adjacent
    when their zero sets share at least D - 2 rays and no third zero set
    contains that intersection.
    """
    rays = [tuple(r) for r in rays]
    basis = independent_indices(rays)
    if len(basis) != ambient:
        raise ValueError(f"facets need rays of full rank {ambient}, got rank {len(basis)}")
    adj, d = adjugate(transpose([rays[i] for i in basis]))
    done = sum(1 << i for i in basis)
    # [normal, bitmask of the rays added so far on which it vanishes]
    ineqs = [
        (_primitive([x if d > 0 else -x for x in row]), done & ~(1 << i))
        for row, i in zip(adj, basis)
    ]
    for i, ray in enumerate(rays):
        if done >> i & 1:
            continue
        bit = 1 << i
        values = [vec_dot(h, ray) for h, _ in ineqs]
        kept = [(h, z | bit if v == 0 else z) for (h, z), v in zip(ineqs, values) if v >= 0]
        for a in (k for k, v in enumerate(values) if v > 0):
            for b in (k for k, v in enumerate(values) if v < 0):
                (ha, za), (hb, zb) = ineqs[a], ineqs[b]
                common = za & zb
                if common.bit_count() < ambient - 2 or any(
                    z & common == common for k, (_, z) in enumerate(ineqs) if k != a and k != b
                ):
                    continue
                h = [values[a] * y - values[b] * x for x, y in zip(ha, hb)]
                kept.append((_primitive(h), common | bit))
        ineqs = kept
        done |= bit
    found = [(h, frozenset(i for i in range(len(rays)) if z >> i & 1)) for h, z in ineqs]
    return tuple(sorted(found, key=lambda f: sorted(f[1])))


def face_ray_sets(
    facet_sets: Collection[frozenset], n: int, perms: Sequence[Sequence[int]], max_dim: int
) -> tuple[frozenset, ...]:
    """One representative of each orbit of nonempty faces of dimension at
    most max_dim, the cone itself included, of a pointed cone with n rays,
    as frozensets of ray indices, from the ray sets of its facets.

    perms are permutations of the rays (perm[i] is the image of ray i) that
    form a group mapping facets to facets; under the identity alone every
    face is its own orbit.  The face lattice is walked bottom-up, one level
    per dimension, from the empty face, so no face above max_dim is built.
    The closure of a ray set is the intersection of the facets that contain
    it (every ray when none does), and the faces covering a face F are the
    inclusion-minimal closures of F and one more ray.  The covers of an
    image of a face are the images of its covers, so only one
    representative per orbit is lifted.  Each new face's whole orbit goes
    into `seen` at once: row i holds the mask bit of the image of ray i
    under each perm, and the images of a face are the ORs of its rays' rows.
    The representative is the orbit's least set by (size, sorted indices),
    and the result is sorted by that key.
    """
    # ray i is bit n-1-i: among sets of one size, the least by sorted
    # indices is the largest mask
    rows = [[1 << (n - 1 - p[i]) for p in perms] for i in range(n)]
    facet_masks = [sum(1 << (n - 1 - i) for i in s) for s in facet_sets]
    top = (1 << n) - 1
    seen = {0}
    level = [0]  # the faces of dimension 0: the apex, whose ray set is empty
    reps = []
    for _ in range(max_dim):
        lifted = []
        for face in level:
            above = [h for h in facet_masks if h & face == face]
            closures = set()
            for i in range(n):
                bit = 1 << i
                if not face & bit:
                    closure = top
                    for h in above:
                        if h & bit:
                            closure &= h
                    closures.add(closure)
            for cover in closures:
                if cover in seen or any(o != cover and o & cover == o for o in closures):
                    continue
                images = [0] * len(perms)
                for i, row in enumerate(rows):
                    if cover >> (n - 1 - i) & 1:
                        images = map(or_, images, row)
                orbit = set(images)
                seen |= orbit
                lifted.append(max(orbit))
        reps += lifted
        level = lifted
    reps.sort(key=lambda m: (m.bit_count(), -m))
    return tuple(frozenset(i for i in range(n) if rep >> (n - 1 - i) & 1) for rep in reps)
