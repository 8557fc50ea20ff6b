"""brute_force_colorings against the itertools.product listing it replaced.

The reference below is the earlier oracle: it tests every one of the
m^arcs assignments, in lexicographic order, against every crossing
equation.  The backtracking search must return the identical list.

LINKS are braid closures of more than one component, with the invariant
factors and arc counts of their coloring matrices.
"""

import itertools
from math import gcd

import pytest
from coloring_oracle import brute_force_colorings

from foxcolor.coloring import Coloring, enumerate_colorings, profile
from foxcolor.diagram import PlanarDiagram, build_diagram, catalog, catalog_names, parse_pd

LINKS = {
    "hopf": ("[[2,4,3,1],[4,2,1,3]]", (2, 0), 2),
    "T(2,4)": ("[[2,4,3,1],[4,6,5,3],[6,8,7,5],[8,2,1,7]]", (1, 1, 4, 0), 4),
    "T(2,6)": ("[[2,4,3,1],[4,6,5,3],[6,8,7,5],[8,10,9,7],[10,12,11,9],[12,2,1,11]]",
               (1, 1, 1, 1, 6, 0), 6),
    "borromean": ("[[2,5,4,1],[5,3,7,6],[6,9,8,4],[9,7,11,10],[10,12,1,8],[12,11,3,2]]",
                  (1, 1, 1, 4, 4, 0), 6),
    "unlink2": ("[[2,4,3,1],[3,4,2,1]]", (1, 0), 3),
}
DIAGRAMS = {**{name: build_diagram(catalog(name)) for name in catalog_names()},
            **{name: build_diagram(parse_pd(code)) for name, (code, _, _) in LINKS.items()}}
MODULI = range(2, 13)


def reference_colorings(d, m):
    rels = d.crossing_relations
    out = []
    for values in itertools.product(range(m), repeat=d.n_arcs):
        if all((values[i] + values[k] - 2 * values[j]) % m == 0 for i, k, j in rels):
            out.append(Coloring(m, values))
    return out


@pytest.mark.parametrize("name", DIAGRAMS)
def test_search_lists_what_the_reference_lists(name):
    d = DIAGRAMS[name]
    for m in MODULI:
        if m ** d.n_arcs <= 10 ** 5:
            assert brute_force_colorings(d, m) == reference_colorings(d, m), m


@pytest.mark.parametrize("name", [n for n, d in DIAGRAMS.items()
                                  if len(d.crossing_relations) > 1])
def test_search_tests_every_crossing(name):
    # In a diagram any one crossing equation follows from the others, so a
    # search that never tested one crossing would still pass the test above.
    # Dropping the first or the last equation leaves equations that all
    # count, and between the two systems every crossing is among them.
    d = DIAGRAMS[name]
    rels = d.crossing_relations
    for system in (rels[1:], rels[:-1]):
        reduced = PlanarDiagram(d.pd, d.arcs, system)
        for m in MODULI:
            if m ** d.n_arcs <= 10 ** 4:
                assert brute_force_colorings(reduced, m) == reference_colorings(reduced, m), m


@pytest.mark.parametrize("name", LINKS)
def test_link_counts_and_colorings(name):
    _, factors, n_arcs = LINKS[name]
    d = DIAGRAMS[name]
    pr = profile(d)
    assert pr.invariant_factors == factors
    assert d.n_arcs == n_arcs
    for m in MODULI:
        expected = 1
        for f in pr.smith.padded_factors():
            expected *= gcd(f, m)
        assert pr.count(m) == expected, m
        assert set(brute_force_colorings(d, m)) == set(enumerate_colorings(d, m)), m
