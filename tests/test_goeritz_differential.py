"""Differential tests: the Smith form against the Goeritz oracle at any size.

The minor-gcd oracle stops at 6x6.  goeritz_oracle.py reads the invariant
factors other than 1 off the Goeritz matrix, which is built from the faces
of the diagram instead of its arcs and diagonalized by the oracle's own
elimination; they must equal the non-unit padded factors of the unit-pivot
Smith form on the catalog, the links, seeded variants up to about 1 000
crossings, kinked diagrams and R3 slides.
"""

import pytest
from goeritz_oracle import goeritz_factors

from foxcolor.coloring import coloring_matrix
from foxcolor.diagram import (R1_INSERT, R3, MoveError, MoveSite, apply_move_pd, build_diagram,
                              catalog, parse_pd, random_variants)
from foxcolor.linalg import smith_normal_form

from test_diagram import R3_READY, TRIANGLED, constructed_r3_sites
from test_unit_pivot_differential import BASE, DIAGRAMS

# seeded variants grown to 1 044 and 780 crossings
LARGE = {}
for _name, _moves, _seed in (("9_40", 700, 2101), ("6_3", 500, 2102)):
    (LARGE[f"{_name}~{_moves}"],) = random_variants(BASE[_name], 1, _moves, seed=_seed)
KNOWN = {"3_1": (3, 0), "4_1": (5, 0), "9_40": (5, 15, 0), "hopf": (2, 0),
         "unlink2": (0, 0), "borromean": (4, 4, 0)}
SPLIT = "[[1,4,2,5],[3,6,4,1],[5,2,6,3],[7,10,8,11],[9,12,10,7],[11,8,12,9]]"


def non_unit_factors(pd):
    return tuple(f for f in smith_normal_form(coloring_matrix(build_diagram(pd))).padded_factors()
                 if f != 1)


def assert_agree(pd):
    assert goeritz_factors(pd.crossings) == non_unit_factors(pd)


@pytest.mark.parametrize("name", [name for name, d in DIAGRAMS.items() if d.n_crossings])
def test_catalog_links_and_variants(name):
    assert_agree(DIAGRAMS[name].pd)


@pytest.mark.parametrize("name", LARGE)
def test_variants_near_1000_crossings(name):
    assert_agree(LARGE[name].pd)


def test_large_variants_reach_1000_crossings():
    assert max(d.n_crossings for d in LARGE.values()) >= 1000


def test_known_torsion():
    for name, factors in KNOWN.items():
        assert goeritz_factors(BASE[name].pd.crossings) == factors, name
    # two trefoils side by side: one Z and one Z3 each
    assert goeritz_factors(parse_pd(SPLIT).crossings) == (3, 3, 0, 0)
    assert_agree(parse_pd(SPLIT))


@pytest.mark.parametrize("name", [name for name in BASE if BASE[name].n_crossings])
def test_kinks(name):
    # a nugatory crossing joins a white face to itself and adds no term
    pd = BASE[name].pd
    for edge in (1, pd.n_edges):
        for over in (False, True):
            kinked = apply_move_pd(pd, MoveSite(R1_INSERT, (edge,), over=over))
            assert_agree(kinked)
            assert_agree(apply_move_pd(kinked, MoveSite(R1_INSERT, (1,), over=not over)))


@pytest.mark.parametrize("name", TRIANGLED)
def test_r3_sites(name):
    pd = catalog(name)
    sites = constructed_r3_sites(pd) or constructed_r3_sites(
        apply_move_pd(pd, MoveSite(R1_INSERT, (1,))))
    assert sites
    for pushed, _, slid in sites:
        assert_agree(pushed)
        assert_agree(slid)


@pytest.mark.parametrize("pdtext", R3_READY)
def test_r3_ready_closures(pdtext):
    pd = parse_pd(pdtext)
    assert_agree(pd)
    for t in pd.edges():
        try:
            slid = apply_move_pd(pd, MoveSite(R3, (t,)))
        except MoveError:
            continue
        assert_agree(slid)
