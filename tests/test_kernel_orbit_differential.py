"""Differential tests: the lane-packed kernel walk, the non-trivial
filter and the orbit partition through the quotient by translations
against the code they replaced.

ModularKernel.vectors used to form c @ y afresh for every y of
itertools.product over the ranges range(0, m, step), one per kernel
step, and then to shift a block kept as a flat list of ints;
orbit_partition used to map every coloring through every group element
and to take the least member of each orbit.  All must give the same
results in the same order, a walk stopped early must stop at the same
vector, and input the partition rejects must be rejected by both.  The
old code below is the reference and lives only here; it maps colorings
through the group that quandle_oracle lists from the definition, not
through build_group, wherever those tables fit in memory.
"""

import itertools
import math
import random
from operator import add, mod

import pytest
from quandle_oracle import color_group, relabel
from test_class_reps_differential import torus_sum_pd
from test_oracle_differential import LINKS

from foxcolor.cli import EXIT_BUDGET, main
from foxcolor.coloring import (Coloring, EnumerationBudgetError, coloring_matrix,
                               enumerate_colorings, profile)
from foxcolor.diagram import build_diagram, catalog, catalog_names, parse_pd, random_variants
from foxcolor.linalg import IntegerMatrix, ModularKernel, smith_normal_form, solve_mod
from foxcolor.orbits import AUT, INN, build_group, orbit_partition

MODULI = (6, 9, 15, 25)
# each side of every lane width: 2m <= 2^8, 2^16, 2^32, 2^64, and beyond
LANE_MODULI = (2, 3, 127, 128, 129, 255, 256, 257, 2 ** 15 - 1, 2 ** 15 + 1, 2 ** 31 - 1,
               2 ** 31 + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 + 13)
KNOTS = {name: build_diagram(catalog(name)) for name in catalog_names()}
LINK_DIAGRAMS = {name: build_diagram(parse_pd(code)) for name, (code, _, _) in LINKS.items()}
# what the quotient partition is held to: the catalog, the links, torus sums
# and seeded move variants
PARTITIONED = {**KNOTS, **LINK_DIAGRAMS,
               **{f"T(2,{q})^#{k}": build_diagram(parse_pd(torus_sum_pd(k, q)))
                  for k, q in ((2, 3), (3, 3), (2, 5), (2, 4), (3, 4))},
               **{f"{name}~{i}": v for name, seed in (("9_40", 5), ("borromean", 7))
                  for i, v in enumerate(random_variants(
                      KNOTS.get(name) or LINK_DIAGRAMS[name], 2, 4, seed=seed))}}
PARTITIONED_PROFILES = {name: profile(d) for name, d in PARTITIONED.items()}


def reference_vectors(kernel: ModularKernel) -> list[tuple[int, ...]]:
    m = kernel.modulus
    cols = kernel.transform.entries
    return [tuple(sum(row[j] * y[j] for j in range(len(y))) % m for row in cols)
            for y in itertools.product(*(range(0, m, step) for step in kernel.steps))]


def reference_block_vectors(kernel: ModularKernel):
    """The block walk on a flat list of ints, shifted by operator.add and mod."""
    m = kernel.modulus
    rows = kernel.transform.entries
    n = len(rows)
    if not n:
        yield from itertools.repeat((), kernel.count())
        return
    shifts = [[tuple(t * kernel.steps[j] * row[j] % m for row in rows) for t in range(size)]
              for j, size in enumerate(kernel.sizes) if size > 1]
    lead = shifts.pop(0) if shifts else [(0,) * n]
    block = [0] * n
    for coord in reversed(shifts):
        reps = len(block) // n
        block = [(a + b) % m for shift in coord for a, b in zip(block, shift * reps)]
    reps = len(block) // n
    for shift in lead:
        yield from zip(*[map(mod, map(add, block, shift * reps), itertools.repeat(m))] * n)


def lane_kernels(m: int):
    """Hand-built kernels whose lane sums reach 0, m - 1, m, m + 1 and 2m - 2.

    A coordinate of step m - 1 runs over y = 0, m - 1, so its shift at
    y = m - 1 is -c mod m for column entry c.  The first kernel sets
    those shifts, on three such coordinates, to every combination of
    values near 0, m/2 and m, one combination per row.
    """
    rng = random.Random(m)
    near = sorted(v for v in {0, 1, 2, m // 2, (m + 1) // 2, m - 2, m - 1} if v < m)

    def entry(shift):  # a column entry whose step m - 1 shift is `shift`, off by a multiple of m
        return -shift + m * rng.randint(-2, 2)

    def kernel(steps, rows):
        sizes = tuple(len(range(0, m, s)) for s in steps)
        return ModularKernel(m, steps, sizes, IntegerMatrix.from_rows(rows, cols=len(steps)))

    combos = list(itertools.product(near, repeat=3))
    yield kernel((m - 1,) * 3, [[entry(v) for v in c] for c in combos])
    # size-1 coordinates (step m) between the free ones, with entries that must not count
    yield kernel((m, m - 1, m, m - 1, m - 1, m),
                 [[rng.randint(-m, m), entry(a), 2 * m + 1, entry(b), entry(c), -1]
                  for a, b, c in combos])
    # a coordinate of size 3 first, then a size-2 one
    third = -(-m // 3)
    yield kernel((third, m - 1), [[rng.randint(-2 * m, 2 * m), entry(v)] for v in near])
    # steps that divide a composite m, as solve_mod makes them
    sizes = []
    for d in range(2, min(m, 20)):
        if m % d == 0 and d * math.prod(sizes) <= 30:
            sizes.append(d)
    if sizes:
        yield kernel(tuple(m // d for d in sizes) + (m - 1,),
                     [[rng.randint(-2 * m, 2 * m) for _ in sizes] + [entry(v)] for v in near])
    yield kernel((m, m), [[rng.randint(-m, m), m - 1] for _ in range(3)])  # all sizes 1
    yield kernel((), [[] for _ in range(4)])  # zero columns
    yield ModularKernel(m, (m - 1, m, m - 1), (2, 1, 2), IntegerMatrix(0, 3, ()))  # zero rows


def reference_partition(colorings, group) -> list[tuple[tuple[int, ...], int]]:
    """(representative values, size) of each orbit, in representative order.

    Takes Coloring objects or words (bytes or int tuples), not both.  The
    least coloring not yet reached is mapped through every element of the
    group: the tables quandle_oracle lists from the definition, for a group
    of up to 2^15 maps, and above, where the tables of every element would
    not fit, x -> lam*x + mu over the group's lists.
    """
    m = group.modulus
    colorings = list(colorings)
    if len({isinstance(c, Coloring) for c in colorings}) > 1:
        raise ValueError("colorings must be all Coloring objects or all words")
    colorings = [c.values if isinstance(c, Coloring) else tuple(c) for c in colorings]
    if any(v not in range(m) for c in colorings for v in c):
        raise ValueError(f"coloring values must lie in range({m})")
    if len(set(map(len, colorings))) > 1:
        raise ValueError("colorings differ in their number of arcs")
    pool = set(colorings)
    if len(pool) != len(colorings):
        raise ValueError("duplicate colorings in input")
    if group.size <= 2 ** 15:
        tables = color_group(group.kind, m)

        def orbit_of(values):
            return {relabel(t, values) for t in tables}
    else:
        def orbit_of(values):
            return {tuple([(lam * x + mu) % m for x in values])
                    for lam in group.lams for mu in group.mus}
    orbits = []
    seen: set[tuple[int, ...]] = set()
    for c in sorted(colorings):
        if c in seen:
            continue
        orbit = orbit_of(c)
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

    @pytest.mark.parametrize("m", (12, 30))
    def test_unequal_free_coordinates(self, m):
        # three or more free coordinates of unequal sizes, with size-1 ones among them
        rng = random.Random(m)
        checked = 0
        for cols in (3, 4, 5, 6):
            for _ in range(12):
                steps = tuple(rng.choice(divisors(m)) for _ in range(cols))
                free = [s for s in steps if s < m]
                transform = IntegerMatrix.from_rows(
                    [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rng.randint(1, 4))])
                kernel = ModularKernel(m, steps, tuple(m // s for s in steps), transform)
                if len(free) < 3 or len(set(free)) < 2 or kernel.count() > 4000:
                    continue
                assert list(kernel.vectors()) == reference_vectors(kernel)
                checked += 1
        assert checked >= 12

    @pytest.mark.parametrize("m", (6, 12, 30))
    def test_prefixes_at_block_boundaries(self, m):
        # the walk is lazy per value of its first free coordinate; a caller
        # that stops early (islice) must see the reference prefix
        rng = random.Random(31 * m)
        proper = [s for s in divisors(m) if s < m]
        for cols in (1, 2, 3, 4):
            steps = tuple(rng.choice(proper) for _ in range(cols))
            transform = IntegerMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(3)])
            kernel = ModularKernel(m, steps, tuple(m // s for s in steps), transform)
            expected = reference_vectors(kernel)
            block = len(expected) // kernel.sizes[0]
            for edge in range(0, len(expected) + 1, block):
                for stop in {max(edge - 1, 0), edge, edge + 1}:
                    assert list(itertools.islice(kernel.vectors(), stop)) == expected[:stop]

    @pytest.mark.parametrize("m", LANE_MODULI)
    def test_lane_boundaries(self, m):
        # in order and stopped after every vector, against both references; the
        # words are the bytes of each vector up to m = 256 and the tuple above
        for kernel in lane_kernels(m):
            expected = reference_vectors(kernel)
            words = [bytes(v) for v in expected] if m <= 256 else expected
            assert list(kernel.vectors()) == list(reference_block_vectors(kernel)) == expected
            assert list(kernel.vectors(words=True)) == words
            for stop in range(len(expected) + 1):
                assert (list(itertools.islice(kernel.vectors(), stop))
                        == list(itertools.islice(reference_block_vectors(kernel), stop))
                        == expected[:stop])
                assert list(itertools.islice(kernel.vectors(words=True), stop)) == words[:stop]

    def test_nontrivial_filter_keeps_walk_order(self):
        for d in KNOTS.values():
            for m in (3, 5, 9, 15):
                every = enumerate_colorings(d, m)
                assert enumerate_colorings(d, m, nontrivial_only=True) == [
                    c for c in every if not c.is_trivial]


    @pytest.mark.parametrize("name", sorted(KNOTS) + sorted(LINK_DIAGRAMS))
    def test_nontrivial_equals_filtered_walk(self, name):
        # count == m skips the walk; every other count filters it
        pr = profile(KNOTS.get(name) or LINK_DIAGRAMS[name])
        skipped = 0
        for m in range(2, 16):
            walk = [Coloring(m, x) for x in solve_mod(pr.smith, m).vectors()]
            assert pr.colorings(m, nontrivial_only=True) == [c for c in walk if not c.is_trivial]
            skipped += pr.count(m) == m
        assert skipped or name == "unlink2"  # factors (1, 0, 0): m^2 colorings at every m

    def test_budget_before_skipping(self, capsys):
        # 3_1 has exactly 5 colorings mod 5, the constants: the budget still binds
        pr = profile(KNOTS["3_1"])
        assert pr.count(5) == 5
        with pytest.raises(EnumerationBudgetError):
            pr.colorings(5, nontrivial_only=True, budget=4)
        assert main(["classes", "3_1", "--mod", "5", "--budget", "4"]) == EXIT_BUDGET
        assert "budget" in capsys.readouterr().err


class TestOrbitPartition:
    @pytest.mark.parametrize("name", sorted(KNOTS))
    def test_catalog_against_reference(self, name):
        d = KNOTS[name]
        rng = random.Random(name)
        for m in range(3, 31):
            nontrivial = enumerate_colorings(d, m, nontrivial_only=True)
            shuffled = rng.sample(nontrivial, len(nontrivial))
            for kind in (AUT, INN):
                group = build_group(kind, m)
                expected = reference_partition(nontrivial, group)
                for colorings in (nontrivial, shuffled):
                    part = orbit_partition(colorings, group)
                    assert list(part.orbits) == expected
                    assert part.class_count == len(expected)
                    assert sum(part.sizes()) == len(nontrivial)

    @staticmethod
    def assert_like_reference(colorings, group):
        expected = reference_partition(colorings, group)
        part = orbit_partition(colorings, group)
        assert list(part.orbits) == expected
        assert part.class_count == len(expected)

    @pytest.mark.parametrize("m", range(3, 12))
    def test_one_arc_constants(self, m):
        # the unknot's colorings are 1-tuples
        constants = enumerate_colorings(KNOTS["unknot"], m)
        assert [c.values for c in constants] == [(v,) for v in range(m)]
        for kind in (AUT, INN):
            self.assert_like_reference(constants, build_group(kind, m))

    @pytest.mark.parametrize("m", (3, 4, 6, 9, 10))
    def test_two_arc_closed_sets(self, m):
        # affine maps keep a != b and scale b - a by a unit, so each set
        # below is closed; d = m is the diagonal, the constants
        every = [Coloring(m, (a, b)) for a in range(m) for b in range(m)]
        sets = [every, [c for c in every if c.values[0] != c.values[1]]]
        sets += [[c for c in every if (c.values[1] - c.values[0]) % d == 0] for d in divisors(m)]
        for kind in (AUT, INN):
            group = build_group(kind, m)
            for colorings in sets:
                self.assert_like_reference(colorings, group)

    @pytest.mark.parametrize("name", sorted(LINK_DIAGRAMS))
    def test_links_at_composite_moduli(self, name):
        # orbits of unequal sizes: the action is not free at composite m
        d = LINK_DIAGRAMS[name]
        for m in (4, 6, 8, 9, 10, 12):
            nontrivial = enumerate_colorings(d, m, nontrivial_only=True)
            for kind in (AUT, INN):
                self.assert_like_reference(nontrivial, build_group(kind, m))

    @pytest.mark.parametrize("kind, m", [(INN, 255), (INN, 256), (INN, 257), (INN, 263),
                                         (AUT, 255), (AUT, 256)])
    def test_both_sides_of_256(self, kind, m):
        # bytes words up to m = 256, lam*x + mu above; the two-component unlink has
        # m^2 colorings at every m, in orbits of unequal sizes at composite m
        nontrivial = enumerate_colorings(LINK_DIAGRAMS["unlink2"], m, nontrivial_only=True)
        assert len(nontrivial) == m * m - m
        try:
            self.assert_like_reference(nontrivial, build_group(kind, m))
        finally:
            color_group.cache_clear()  # the aut tables of the reference hold about 70 MB

    @pytest.mark.parametrize("m", (3, 5, 256, 257, 263))
    def test_zero_and_one_arc_words(self, m):
        group = build_group(INN, m)
        self.assert_like_reference([Coloring(m, ())], group)
        self.assert_like_reference([Coloring(m, (v,)) for v in range(m)], group)
        assert orbit_partition([Coloring(m, ())], group).orbits == (((), 1),)

    @pytest.mark.parametrize("m", (5, 263))
    def test_invalid_input_raises_on_both_paths(self, m):
        group = build_group(INN, m)
        # x -> -x and the shifts keep b - a = +-1
        closed = [Coloring(m, (a, (a + k) % m)) for a in range(m) for k in (1, m - 1)]
        assert len(orbit_partition(closed, group).orbits) == 1
        for bad in (closed + closed[:1], closed[:-1], [closed[0], closed[2]]):
            with pytest.raises(ValueError):
                reference_partition(bad, group)
            with pytest.raises(ValueError, match="duplicate|closed"):
                orbit_partition(bad, group)
        with pytest.raises(ValueError, match="modulus"):
            orbit_partition(closed[:1], build_group(INN, m + 2))

    @pytest.mark.parametrize("m", (5, 263))
    def test_values_outside_range_raise_before_any_table(self, m):
        # a value >= m used to raise IndexError from a table, and a negative
        # one to index a table from its end: a silent, wrong partition
        closed = [Coloring(m, (a, (a + k) % m)) for a in range(m) for k in (1, m - 1)]
        for value in (m, -1, 256) if m < 256 else (m, -1):
            for kind in (AUT, INN):
                group = build_group(kind, m)
                for bad in (closed + [Coloring(m, (0, value))], [Coloring(m, (value,))]):
                    with pytest.raises(ValueError, match=rf"range\({m}\)"):
                        orbit_partition(bad, group)
                assert vars(group).keys() == {"kind", "modulus", "lams", "mus"}

    def test_negative_value_not_taken_for_its_residue(self):
        # the 6 aut images of (0, 1, 2) mod 3, then (0, 1, -1), which reads
        # as (0, 1, 2) through a table indexed from its end
        closed = [Coloring(3, p) for p in itertools.permutations(range(3))]
        group = build_group(AUT, 3)
        assert orbit_partition(closed, group).sizes() == (6,)
        with pytest.raises(ValueError, match=r"range\(3\)"):
            orbit_partition(closed + [Coloring(3, (0, 1, -1))], group)

    @pytest.mark.parametrize("m", (3, 127, 128, 255, 256, 257))
    def test_words_like_colorings(self, m):
        # verify partitions the walk's words, classes Coloring objects: the same
        # orbits, and the same error for a duplicate, a set not closed under the
        # group and a value >= m, which bytes words cannot hold at m = 256
        def as_words(colorings):
            return [bytes(c.values) if m <= 256 else c.values for c in colorings]

        def error(colorings, group):
            with pytest.raises(ValueError) as info:
                orbit_partition(colorings, group)
            return str(info.value)

        for kind in (AUT, INN) if m <= 128 else (INN,):  # aut has 2^15 maps or more above
            group = build_group(kind, m)
            # closed: every a != b under aut; under inn, b - a = +-1, as x -> -x
            # and the shifts keep it
            steps = range(1, m) if kind == AUT else (1, m - 1)
            pairs = [Coloring(m, (a, (a + k) % m)) for a in range(m) for k in steps]
            lines = [Coloring(m, (a, (a + k) % m, (a + 2 * k) % m)) for a in range(m) for k in steps]
            for colorings in (pairs, lines, []):
                assert orbit_partition(as_words(colorings), group) == orbit_partition(colorings, group)
            bad = [pairs + pairs[-1:], pairs[:-1]] + [pairs + [Coloring(m, (1, m))]] * (m != 256)
            for colorings in bad:
                assert error(as_words(colorings), group) == error(colorings, group)
            for mixed in (pairs[:1] + as_words(pairs[1:]), as_words(pairs[:-1]) + pairs[-1:]):
                assert "all Coloring objects or all" in error(mixed, group)
        assert error(pairs + [Coloring(m, (1, m))], group) == f"coloring values must lie in range({m})"

    @pytest.mark.parametrize("kind", (AUT, INN))
    def test_invalid_input_raises_like_reference(self, kind):
        group = build_group(kind, 5)
        nontrivial = enumerate_colorings(KNOTS["9_40"], 5, nontrivial_only=True)
        for bad in (list(nontrivial) + nontrivial[:1], nontrivial[:-1], nontrivial[:7]):
            with pytest.raises(ValueError):
                reference_partition(bad, group)
            with pytest.raises(ValueError):
                orbit_partition(bad, group)


def assert_partitions_like_reference(colorings, rng, kinds=(AUT, INN)):
    """Under each group: the walk's words sorted, as walked and shuffled, and
    their Coloring objects, against the reference; bytes words up to m = 256,
    int tuples above."""
    m = colorings.modulus
    words = colorings.words
    inputs = (sorted(words), words, rng.sample(words, len(words)), list(colorings))
    for kind in kinds:
        group = build_group(kind, m)
        expected = reference_partition(words, group)
        for given in inputs:
            assert list(orbit_partition(given, group).orbits) == expected


def rejected_sets(m: int, d: int):
    """Sets of pairs mod m that both partitions must reject, as int tuples,
    each beside the closed set it spoils.

    closed holds (a, a + lam*d) for every a and unit lam; every affine map
    keeps it, as it scales b - a by a unit.  The pairs (a, a + 1) are closed
    under the translations but not under x -> -x.  closed without its
    greatest word, whose arc 0 is m - 1, keeps the slice whole but misses a
    translate, and a duplicate in that word's place keeps the count too.
    Pairs beside triples are closed, but of unequal lengths.
    """
    units = [lam for lam in range(1, m) if math.gcd(lam, m) == 1]
    closed = sorted({(a, (a + lam * d) % m) for a in range(m) for lam in units})
    return closed, {
        "duplicate": closed + closed[:1],
        "duplicate for a translate": closed[:-1] + closed[:1],
        "not under the multipliers": [(a, (a + 1) % m) for a in range(m)],
        "missing a translate": closed[:-1],
        "value m": closed + [(0, m)],
        "unequal lengths": closed + [(a, a, a) for a in range(m)],
    }


def same_error(colorings, group) -> bool:
    """Whether both partitions reject the colorings, with the same message."""
    errors = []
    for partition in (reference_partition, orbit_partition):
        with pytest.raises(ValueError) as info:
            partition(colorings, group)
        errors.append(str(info.value))
    return errors[0] == errors[1]


class TestQuotientPartition:
    """The partition through the quotient by translations against the reference,
    at every m = 3..64 and at composite m up to 1 000."""

    @pytest.mark.parametrize("m", range(3, 65))
    def test_every_modulus_to_64(self, m):
        rng = random.Random(m)
        for pr in PARTITIONED_PROFILES.values():
            if pr.count(m) <= 20_000:
                assert_partitions_like_reference(pr.colorings(m, nontrivial_only=True), rng)

    @pytest.mark.parametrize("m", (100, 256, 300, 1000))
    def test_composite_moduli(self, m):
        # the reference maps each orbit through the whole group: at m = 1 000 the
        # aut group's 400 000 maps, so there only sets of up to 4 000 colorings
        rng = random.Random(m)
        checked = 0
        try:
            for name, pr in PARTITIONED_PROFILES.items():
                count = pr.count(m) - m
                if 0 < count <= 10_000 and "~" not in name:
                    kinds = (AUT, INN) if m < 1000 or count <= 4000 else (INN,)
                    assert_partitions_like_reference(pr.colorings(m, nontrivial_only=True),
                                                     rng, kinds)
                    checked += 1
        finally:
            color_group.cache_clear()  # the aut tables at 256 and 300 hold about 70 MB
        assert checked >= 5

    @pytest.mark.parametrize("m, d", [(5, 1), (6, 3), (9, 3), (12, 4), (64, 32), (100, 50),
                                      (256, 128), (300, 100), (1000, 500)])
    def test_invalid_input_raises_in_both(self, m, d):
        closed, rejected = rejected_sets(m, d)
        try:
            for kind in (AUT, INN):
                group = build_group(kind, m)
                as_words = bytes if m <= 256 else tuple
                words = [as_words(c) for c in closed]
                objects = [Coloring(m, c) for c in closed]
                assert (list(orbit_partition(words, group).orbits)
                        == list(orbit_partition(objects, group).orbits)
                        == reference_partition(words, group))
                for name, bad in rejected.items():
                    given = [[Coloring(m, c) for c in bad]]
                    if m < 256 or name != "value m":  # bytes hold no value 256
                        given.append([as_words(c) for c in bad])
                    for colorings in given:
                        assert same_error(colorings, group), name
                assert same_error(objects[:1] + words[1:], group)  # mixed input
                assert orbit_partition([Coloring(m, ())], group).orbits == (((), 1),)
        finally:
            color_group.cache_clear()
