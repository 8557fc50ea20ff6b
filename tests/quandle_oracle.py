"""The color groups of the dihedral quandle R_m, listed from their definition.

R_m is Z_m with a * b = 2b - a, the crossing relation of a Fox coloring.
`color_group("aut", m)` is Aut(R_m), every permutation of Z_m that keeps
the relation; `color_group("inn", m)` is the inner subgroup, generated by
the symmetries x -> 2b - x.  Both are sets of permutation tables, built
without foxcolor, so tests can hold foxcolor.orbits.build_group to them.
"""

from functools import cache
from itertools import permutations


def relabel(perm, values):
    """The values sent through the permutation table perm."""
    return tuple(perm[v] for v in values)


@cache
def symmetries(m: int) -> tuple:
    """The tables of x -> 2b - x = x * b for b = 0..m-1."""
    return tuple(tuple((2 * b - x) % m for x in range(m)) for b in range(m))


def keeps_relation(sigma, m: int) -> bool:
    """sigma(2b - a) = 2 sigma(b) - sigma(a) for every pair (a, b) of Z_m,
    one b at a time: sigma after x -> 2b - x is x -> 2 sigma(b) - x after sigma."""
    s = symmetries(m)
    return all(relabel(sigma, s[b]) == relabel(s[sigma[b]], sigma) for b in range(m))


def automorphisms_by_search(m: int) -> frozenset:
    """Aut(R_m) by testing all m! permutations; for small m only."""
    return frozenset(s for s in permutations(range(m)) if keeps_relation(s, m))


@cache
def color_group(kind: str, m: int) -> frozenset:
    if kind == "aut":
        # a = k - 1, b = k gives sigma(k+1) - sigma(k) = sigma(k) - sigma(k-1),
        # so sigma(0) and sigma(1) fix sigma; test every bijective candidate
        candidates = (tuple((s0 + k * (s1 - s0)) % m for k in range(m))
                      for s0 in range(m) for s1 in range(m))
        return frozenset(s for s in candidates
                         if len(set(s)) == m and keeps_relation(s, m))
    if kind == "inn":
        group = {tuple(range(m))}
        frontier = list(group)
        while frontier:
            g = frontier.pop()
            for s in symmetries(m):
                h = relabel(s, g)
                if h not in group:
                    group.add(h)
                    frontier.append(h)
        return frozenset(group)
    raise ValueError(f"unknown group kind {kind!r}")
