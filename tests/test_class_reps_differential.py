"""Differential tests: prime-modulus class representatives read from the
echelon basis (orbits.prime_classes), against enumeration plus
orbit_partition, the path `classes` takes for every modulus.

Both must give the same representatives in the same order, the same
orbit sizes and the same number of non-trivial colorings, which is all
that `classes` prints.
"""

import json

import pytest

from foxcolor.coloring import profile
from foxcolor.diagram import build_diagram, catalog, catalog_names, parse_pd, random_variants
from foxcolor.orbits import AUT, INN, build_group, orbit_partition, prime_classes

PRIMES = (3, 5, 7, 11, 13)


def torus_sum_pd(k: int, q: int) -> str:
    """k copies of T(2,q) summed: the closure of the braid s_1^q s_2^q ... s_k^q."""
    cur = list(range(1, k + 2))
    quads = []
    nxt = k + 2
    for i in range(k):
        for _ in range(q):
            quads.append([cur[i + 1], nxt + 1, nxt, cur[i]])
            cur[i], cur[i + 1] = nxt, nxt + 1
            nxt += 2
    closing = {e: s + 1 for s, e in enumerate(cur)}
    return json.dumps([[closing.get(e, e) for e in q] for q in quads])


TORUS_SUMS = [(k, 3) for k in range(2, 8)] + [(3, 5), (3, 7)]
DIAGRAMS = {name: build_diagram(catalog(name)) for name in catalog_names()}
DIAGRAMS.update({f"T(2,{q})^#{k}": build_diagram(parse_pd(torus_sum_pd(k, q)))
                 for k, q in TORUS_SUMS})
VARIANTS = {f"{name}~{i}": v
            for name, seed in (("9_40", 3), ("6_1", 11))
            for i, v in enumerate(random_variants(DIAGRAMS[name], 2, 4, seed=seed))}

CASES = ([(name, p) for name in catalog_names() for p in PRIMES]
         + [(f"T(2,{q})^#{k}", q) for k, q in TORUS_SUMS]
         + [(name, p) for name in VARIANTS for p in (3, 5, 7)])
DIAGRAMS.update(VARIANTS)


def reference_orbits(d, kind, p):
    """(size, representative values) per orbit, by enumeration and orbit_partition."""
    nontrivial = profile(d).colorings(p, nontrivial_only=True)
    part = orbit_partition(nontrivial, build_group(kind, p))
    return len(nontrivial), [(size, rep) for rep, size in part.orbits]


@pytest.mark.parametrize("kind", [AUT, INN])
@pytest.mark.parametrize("name,p", CASES)
def test_same_representatives_and_sizes(name, p, kind):
    d = DIAGRAMS[name]
    pr = profile(d)
    size, reps = prime_classes(pr, kind, p)
    nontrivial, orbits = reference_orbits(d, kind, p)
    assert reps == [r for _, r in orbits]
    assert all(s == size for s, _ in orbits)
    assert pr.count(p) - p == nontrivial


def test_class_counts_match_closed_forms():
    # trefoil^#7 mod 3 has nullity 8: 1 093 classes under either group
    pr = profile(DIAGRAMS["T(2,3)^#7"])
    assert pr.nullity(3) == 8
    for kind in (AUT, INN):
        size, reps = prime_classes(pr, kind, 3)
        assert (size, len(reps), len(set(reps))) == (6, 1093, 1093)
    assert len(prime_classes(profile(DIAGRAMS["T(2,7)^#3"]), INN, 7)[1]) == (7 ** 3 - 1) // 2


def test_rejects_composite_and_unknown_group():
    pr = profile(DIAGRAMS["9_40"])
    with pytest.raises(ValueError):
        prime_classes(pr, AUT, 15)
    with pytest.raises(ValueError):
        prime_classes(pr, "outer", 5)
