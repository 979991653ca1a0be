"""Stabilizer of a cone in GL(i,Z) and its image acting on Span(sigma).

Only the image of the stabilizer on the span of the cone matters for the
invariant series (automorphisms acting trivially there, such as -1, are
quotiented out).  For a simplicial cone the rank-1 forms of the extremal rays
are a basis of the span, so the image is the group of ray permutations
realizable by integral cone automorphisms, and the Molien series is computed
by cycle index, as an average over their cycle types (`invariants.molien`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cones import Cone, _assignment_search, cone_rank, extremal_rays, sym2_coordinates
from .matrices import rank


@dataclass(frozen=True)
class GroupAction:
    """A finite group acting on Span(sigma) by permuting a basis.

    The basis is the rank-1 forms of the extremal rays, so `dim` is their
    number; `perms[k]` is the k-th group element as a permutation of the rays
    and `orbits` is the orbit partition of the rays.
    """

    dim: int
    order: int
    perms: tuple[tuple[int, ...], ...]
    orbits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.order != len(self.perms):
            raise ValueError("inconsistent group data")


def stabilizer_action(c: Cone) -> GroupAction:
    """Image on Span(sigma) of the stabilizer of the cone in GL(i,Z).

    Requires a simplicial cone whose generators span R^i.  An integral
    automorphism preserves the cone exactly when it permutes the extremal rays
    up to sign, and on the span it then acts by that permutation of the rank-1
    forms.
    """
    if cone_rank(c) != c.ambient:
        raise ValueError("stabilizer computation needs a rank-i cone in Z^i")
    return _stabilizer_action_cached(c)


@lru_cache(maxsize=None)
def _stabilizer_action_cached(c: Cone) -> GroupAction:
    ext = extremal_rays(c)
    rays = [c.generators[j] for j in ext]
    if rank([sym2_coordinates(v) for v in rays]) != len(rays):
        raise ValueError(
            f"stabilizer action needs a simplicial cone: {len(rays)} extremal rays "
            "with dependent rank-1 forms"
        )
    perms = sorted({perm for _, perm in _assignment_search(rays, rays, c.ambient)})

    # orbit partition of the rays under the permutation group
    seen: set[int] = set()
    orbits = []
    for j in range(len(rays)):
        if j in seen:
            continue
        orbit = {j}
        frontier = [j]
        while frontier:
            x = frontier.pop()
            for perm in perms:
                y = perm[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))

    action = GroupAction(
        dim=len(rays),
        order=len(perms),
        perms=tuple(perms),
        orbits=tuple(orbits),
    )
    _check_closure(action)
    return action


def _check_closure(action: GroupAction) -> None:
    perm_set = set(action.perms)
    if tuple(range(len(action.perms[0]))) not in perm_set:
        raise AssertionError("stabilizer image misses the identity")
    for p in action.perms:
        for q in action.perms:
            if tuple(p[q[j]] for j in range(len(p))) not in perm_set:
                raise AssertionError("stabilizer image is not closed under products")


def invariant_dim_degree1(c: Cone) -> int:
    """Dimension of the fixed subspace of Span(sigma): the number of ray orbits.

    Cross-checked by Burnside's lemma against the average number of rays each
    group element fixes.
    """
    action = stabilizer_action(c)
    fixed = sum(sum(1 for j, x in enumerate(p) if j == x) for p in action.perms)
    if fixed != len(action.orbits) * action.order:
        raise AssertionError(
            f"fixed-point average {fixed}/{action.order} and orbit count "
            f"{len(action.orbits)} disagree"
        )
    return len(action.orbits)
