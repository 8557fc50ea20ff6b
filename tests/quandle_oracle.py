"""The color groups of the dihedral quandle R_m, listed from their definition.

R_m is Z_m with a * b = 2b - a, the crossing relation of a Fox coloring.
`color_group("aut", m)` is Aut(R_m), every permutation of Z_m that keeps
the relation; `color_group("inn", m)` is the inner subgroup, generated by
the symmetries x -> 2b - x.  Both are sets of permutation tables, built
without foxcolor, so tests can hold foxcolor.orbits.build_group to them;
`affine_tables` turns a group's lam and mu lists into such tables.
"""

from functools import cache
from itertools import permutations


def relabel(perm, values):
    """The values sent through the permutation table perm."""
    return tuple([perm[v] for v in values])


def affine_tables(group) -> tuple:
    """The tables of x -> lam*x + mu for the group's lams and mus, lam
    ascending, then mu, as the group lists its elements."""
    m = group.modulus
    return tuple(tuple((l * x + u) % m for x in range(m)) for l in group.lams for u in group.mus)


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
        # so sigma(0) and sigma(1) fix sigma: sigma(k) = s0 + k*d, d = s1 - s0,
        # is x -> d*x followed by x -> x + s0.  Maps that keep the relation are
        # closed under composition, and so are their inverses among bijections;
        # so once x -> x + 1 keeps it, the candidate keeps it exactly when
        # x -> d*x does, and only those m + 1 maps are tested
        shifts = [tuple((x + s0) % m for x in range(m)) for s0 in range(m)]
        assert keeps_relation(shifts[1], m)
        scalings = (tuple(d * x % m for x in range(m)) for d in range(m))
        return frozenset(relabel(shift, s)
                         for s in scalings if len(set(s)) == m and keeps_relation(s, m)
                         for shift in shifts)
    if kind == "inn":
        # the symmetries x -> -x and x -> 2 - x generate a group that holds
        # every symmetry (checked below), so it is the one all of them generate
        gens = symmetries(m)[:2]
        group = {tuple(range(m))}
        frontier = list(group)
        while frontier:
            g = frontier.pop()
            for s in gens:
                h = relabel(s, g)
                if h not in group:
                    group.add(h)
                    frontier.append(h)
        assert group.issuperset(symmetries(m))
        return frozenset(group)
    raise ValueError(f"unknown group kind {kind!r}")
