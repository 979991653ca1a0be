"""Exact polyhedral helpers for pointed rational cones.

A cone is described by its generating rays (integer vectors in Z^D).  All
cones handled here are pointed, so they are cut out inside the linear span of
their rays by finitely many facet inequalities.  Facets are found by
enumerating candidate supporting hyperplanes spanned by ray subsets; at the
sizes this package needs (at most ~12 rays in ambient dimension <= 15) this is
faster to trust than an incremental double-description update.  The face
lattice is then the closure of the facets' ray sets under intersection, with
no further geometry.
"""

from __future__ import annotations

import itertools
from typing import Collection, Sequence

from .matrices import IntVector, kernel_basis, rank, vec_dot


def facets(rays: Sequence[IntVector], ambient: int) -> tuple[tuple[IntVector, frozenset], ...]:
    """Facets of the pointed cone generated by the rays.

    Returns (inward primitive normal, indices of rays on the facet) pairs,
    one per facet, sorted by ray set.  A normal is a `kernel_basis` row, a
    row of a unimodular matrix, so primitive as it comes.  Normals are
    functionals on Z^D; they
    are canonical only modulo functionals vanishing on the span of the rays,
    so facets are deduplicated by their ray sets.
    """
    rays = [tuple(r) for r in rays]
    r = rank(rays) if rays else 0
    if r == 0:
        return ()
    if r == 1:
        v = rays[0]
        j = next(i for i, x in enumerate(v) if x != 0)
        n = tuple((1 if v[j] > 0 else -1) if i == j else 0 for i in range(ambient))
        return ((n, frozenset()),)
    found = {}
    for subset in itertools.combinations(range(len(rays)), r - 1):
        sub = [rays[i] for i in subset]
        if rank(sub) != r - 1:
            continue
        # all functionals vanishing on the subset; their value vectors on the
        # rays form a 1-dimensional space, spanned by the facet functional
        vanish = kernel_basis(tuple(sub), cols=ambient)
        cand = next((f for f in vanish if any(vec_dot(f, ray) != 0 for ray in rays)), None)
        if cand is None:
            continue
        pos = [vec_dot(cand, ray) for ray in rays]
        if all(x <= 0 for x in pos):
            cand = tuple(-x for x in cand)
            pos = [-x for x in pos]
        if any(x < 0 for x in pos):
            continue
        zero_set = frozenset(i for i, x in enumerate(pos) if x == 0)
        found.setdefault(zero_set, cand)
    return tuple((found[s], s) for s in sorted(found, key=lambda s: sorted(s)))


def face_ray_sets(facet_sets: Collection[frozenset], n: int) -> tuple[frozenset, ...]:
    """All proper nonempty faces of a pointed cone with n rays, as frozensets
    of ray indices, from the ray sets of its facets.

    Faces of a pointed cone are exactly the intersections of facets with the
    cone, so the face lattice is generated from the top by intersecting with
    facets.
    """
    all_idx = frozenset(range(n))
    seen = {all_idx}
    queue = [all_idx]
    out = set()
    while queue:
        f = queue.pop()
        for h in facet_sets:
            g = f & h
            if g not in seen:
                seen.add(g)
                if g:
                    out.add(g)
                    queue.append(g)
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))
