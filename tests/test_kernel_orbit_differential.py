"""Differential tests: the odometer kernel walk and the linear orbit
partition against the code they replaced.

ModularKernel.vectors used to form c @ y afresh for every y of
itertools.product over y_sets(); orbit_partition used to map every
coloring through every group element with AffineMap.__call__ and to take
the least member of each orbit.  Both must give the same results in the
same order.  The old code below is the reference and lives only here.
"""

import itertools
import random

import pytest

from foxcolor.coloring import Coloring, coloring_matrix, enumerate_colorings
from foxcolor.diagram import build_diagram, catalog, catalog_names
from foxcolor.linalg import IntegerMatrix, ModularKernel, smith_normal_form, solve_mod
from foxcolor.orbits import AUT, INN, apply_map, build_group, orbit_partition

MODULI = (6, 9, 15, 25)
KNOTS = {name: build_diagram(catalog(name)) for name in catalog_names()}


def reference_vectors(kernel: ModularKernel) -> list[tuple[int, ...]]:
    m = kernel.modulus
    cols = kernel.transform.entries
    return [tuple(sum(row[j] * y[j] for j in range(len(y))) % m for row in cols)
            for y in itertools.product(*kernel.y_sets())]


def reference_partition(colorings, group) -> list[tuple[Coloring, int]]:
    """(representative, size) of each orbit, in representative order."""
    colorings = list(colorings)
    pool = set(colorings)
    if len(pool) != len(colorings):
        raise ValueError("duplicate colorings in input")
    orbits = []
    seen: set[Coloring] = set()
    for c in sorted(colorings):
        if c in seen:
            continue
        orbit = {apply_map(g, c) for g in group.elements}
        if not orbit <= pool:
            raise ValueError("input is not closed under the group action")
        seen |= orbit
        orbits.append((min(orbit), len(orbit)))
    return orbits


def divisors(m: int) -> list[int]:
    return [k for k in range(1, m + 1) if m % k == 0]


def seeded_matrices(seed: int, count: int):
    """Up to 5 x 5; at most two more columns than rows keeps m^nullity small."""
    rng = random.Random(seed)
    for _ in range(count):
        cols = rng.randint(0, 5)
        rows = rng.randint(max(0, cols - 2), 5)
        yield IntegerMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)], cols=cols)


class TestKernelWalk:
    @pytest.mark.parametrize("m", MODULI)
    def test_seeded_smith_kernels(self, m):
        partial = 0
        for a in seeded_matrices(700 + m, 120):
            kernel = solve_mod(smith_normal_form(a), m)
            assert list(kernel.vectors()) == reference_vectors(kernel)
            partial += any(1 < size < m for size in kernel.sizes)
        assert partial  # some coordinate runs over a proper subgroup of Z_m

    @pytest.mark.parametrize("m", MODULI)
    def test_arbitrary_transforms(self, m):
        # columns need not come from a Smith form: large and negative
        # entries, every step that divides m, including all-ones sizes
        rng = random.Random(m)
        for cols in range(4):
            for _ in range(12):
                rows = rng.randint(0, 4)
                steps = tuple(rng.choice(divisors(m)) for _ in range(cols))
                transform = IntegerMatrix.from_rows(
                    [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(cols)] for _ in range(rows)],
                    cols=cols)
                kernel = ModularKernel(m, steps, tuple(m // s for s in steps), transform)
                assert list(kernel.vectors()) == reference_vectors(kernel)

    def test_all_sizes_one(self):
        kernel = ModularKernel(9, (9, 9), (1, 1), IntegerMatrix.from_rows([[4, 5], [7, 1]]))
        assert list(kernel.vectors()) == reference_vectors(kernel) == [(0, 0)]

    def test_zero_columns(self):
        for a in (IntegerMatrix(3, 0, ((), (), ())), IntegerMatrix(0, 0, ())):
            kernel = solve_mod(smith_normal_form(a), 15)
            assert kernel.sizes == ()
            assert list(kernel.vectors()) == reference_vectors(kernel) == [()]

    def test_zero_rows(self):
        kernel = solve_mod(smith_normal_form(IntegerMatrix(0, 2, ())), 6)
        assert kernel.sizes == (6, 6)
        assert list(kernel.vectors()) == reference_vectors(kernel)

    @pytest.mark.parametrize("name", sorted(KNOTS))
    def test_catalog_kernels(self, name):
        sd = smith_normal_form(coloring_matrix(KNOTS[name]))
        for m in MODULI:
            kernel = solve_mod(sd, m)
            assert list(kernel.vectors()) == reference_vectors(kernel)

    def test_nontrivial_filter_keeps_walk_order(self):
        for d in KNOTS.values():
            for m in (3, 5, 9, 15):
                every = enumerate_colorings(d, m)
                assert enumerate_colorings(d, m, nontrivial_only=True) == [
                    c for c in every if not c.is_trivial]


class TestOrbitPartition:
    @pytest.mark.parametrize("name", sorted(KNOTS))
    def test_catalog_against_reference(self, name):
        d = KNOTS[name]
        rng = random.Random(name)
        for m in range(3, 12):
            nontrivial = enumerate_colorings(d, m, nontrivial_only=True)
            shuffled = rng.sample(nontrivial, len(nontrivial))
            for kind in (AUT, INN):
                group = build_group(kind, m)
                expected = reference_partition(nontrivial, group)
                for colorings in (nontrivial, shuffled):
                    part = orbit_partition(colorings, group)
                    assert [(o.representative, o.size) for o in part.orbits] == expected
                    assert part.class_count == len(expected)
                    assert sum(part.sizes()) == len(nontrivial)

    @pytest.mark.parametrize("kind", (AUT, INN))
    def test_invalid_input_raises_like_reference(self, kind):
        group = build_group(kind, 5)
        nontrivial = enumerate_colorings(KNOTS["9_40"], 5, nontrivial_only=True)
        for bad in (nontrivial + nontrivial[:1], nontrivial[:-1], nontrivial[:7]):
            with pytest.raises(ValueError):
                reference_partition(bad, group)
            with pytest.raises(ValueError):
                orbit_partition(bad, group)
