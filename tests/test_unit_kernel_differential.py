"""Differential tests: the kernels that read only the columns they walk
against the slow paths they replace.

unit_kernel carries the columns of the block's transform that a modulus
leaves free through the unit-pivot rows; it replaces an echelon pass over
the block mod p.  solve_mod builds, from the log of the whole matrix,
only the columns of c that it walks; it replaces the whole of c.  At
every modulus from 2 to 30, composite ones included, both must list the
same vectors, each once; that set must be the one the exhaustive search
finds, wherever m^arcs is small enough to search; and each column of
solve_mod's transform must be the matching column of c.
"""

import itertools
from math import gcd

import pytest
from coloring_oracle import brute_force_colorings
from hypothesis import given, settings, strategies as st

from foxcolor.coloring import coloring_matrix
from foxcolor.linalg import IntegerMatrix, smith_normal_form, solve_mod, unit_kernel

from test_unit_pivot_differential import DIAGRAMS, matrices

MODULI = range(2, 31)
SEARCHED = 10 ** 6  # the exhaustive search runs where m^arcs is at most this


def listed(kernel) -> set[tuple[int, ...]]:
    vectors = list(kernel.vectors())
    assert len(vectors) == len(set(vectors)) == kernel.count()
    return set(vectors)


def agreed_kernel(sd, m: int) -> set[tuple[int, ...]]:
    """The vectors that unit_kernel and solve_mod both list at m."""
    unit, full = unit_kernel(sd, m), solve_mod(sd, m)
    # a unit pivot's factor 1 leaves no coordinate free, so both list the same ones
    assert unit.sizes == full.sizes and unit.steps == full.steps
    assert all(size > 1 for size in full.sizes)
    assert all(0 <= x < m for row in unit.transform.entries for x in row)
    free = [f for f, d in enumerate(sd.padded_factors()) if gcd(d, m) > 1]
    assert full.transform.entries == tuple(tuple(row[f] for f in free) for row in sd.c.entries)
    got = listed(full)
    assert listed(unit) == got
    return got


def every_solution(a: IntegerMatrix, m: int) -> set[tuple[int, ...]]:
    return {x for x in itertools.product(range(m), repeat=a.cols)
            if all(sum(map(int.__mul__, row, x)) % m == 0 for row in a.entries)}


@pytest.mark.parametrize("name", DIAGRAMS)
def test_diagram_kernels(name):
    d = DIAGRAMS[name]
    sd = smith_normal_form(coloring_matrix(d))
    for m in MODULI:
        got = agreed_kernel(sd, m)
        if m ** d.n_arcs <= SEARCHED:
            assert got == {c.values for c in brute_force_colorings(d, m)}, m


def test_diagrams_cover_links_and_variants():
    factors = {name: smith_normal_form(coloring_matrix(d)).padded_factors()
               for name, d in DIAGRAMS.items()}
    # a second zero factor, and factors that leave a coordinate of size
    # strictly between 1 and m at some composite m
    assert factors["unlink2"].count(0) == 2
    assert 2 in factors["hopf"] and factors["borromean"].count(4) == 2
    assert sum("~" in name for name in DIAGRAMS) >= 30


class TestMatrices:
    @settings(deadline=None, max_examples=120)
    @given(matrices(max_dim=3, max_entry=30), st.integers(2, 30))
    def test_any_entries(self, a, m):
        assert agreed_kernel(smith_normal_form(a), m) == every_solution(a, m)

    @settings(deadline=None, max_examples=120)
    @given(matrices(max_dim=3, max_entry=30, units=False), st.integers(2, 30))
    def test_no_unit_entry(self, a, m):
        # no pivot: the whole matrix is the block
        sd = smith_normal_form(a)
        assert sd.pivots == ()
        assert agreed_kernel(sd, m) == every_solution(a, m)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 0), (0, 1)])
    def test_empty_shapes(self, shape):
        rows, cols = shape
        a = IntegerMatrix(rows, cols, ((),) * rows)
        sd = smith_normal_form(a)
        for m in MODULI:
            assert agreed_kernel(sd, m) == every_solution(a, m)
