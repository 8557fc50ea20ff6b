from dataclasses import FrozenInstanceError
from math import gcd, isqrt

import pytest
from coloring_oracle import brute_force_colorings
from smith_oracle import det, identity, submatrix

from foxcolor.coloring import (MILLER_RABIN_BOUND, Coloring, Colorings,
                               EnumerationBudgetError, coloring_matrix, count_colorings,
                               enumerate_colorings, extend_coloring,
                               generating_arcs, is_odd_prime, link_determinant,
                               p_nullity, profile)
from foxcolor.diagram import (MoveError, MoveSite, apply_move, build_diagram, catalog,
                              catalog_names, parse_pd)
from foxcolor.linalg import IntegerMatrix, smith_normal_form, solve_mod
from foxcolor.orbits import prime_classes

TREFOIL = build_diagram(catalog("3_1"))
FIGURE8 = build_diagram(catalog("4_1"))
KNOT940 = build_diagram(catalog("9_40"))
UNKNOT = build_diagram(catalog("unknot"))


def smith_of(d):
    return smith_normal_form(coloring_matrix(d))


class TestColoringMatrix:
    def test_trefoil_exact(self):
        assert coloring_matrix(TREFOIL) == IntegerMatrix.from_rows(
            [[1, 1, -2], [-2, 1, 1], [1, -2, 1]])

    def test_rows_sum_to_zero_everywhere(self):
        for name in catalog_names():
            d = build_diagram(catalog(name))
            for row in coloring_matrix(d).entries:
                assert sum(row) == 0

    def test_figure8_shape(self):
        cm = coloring_matrix(FIGURE8)
        assert cm.rows == cm.cols == 4
        for row in cm.entries:
            nonzero = sorted(x for x in row if x)
            assert nonzero == [-2, 1, 1]

    def test_square_determinant_zero(self):
        for name in ("3_1", "4_1", "5_2", "9_40"):
            d = build_diagram(catalog(name))
            assert det(coloring_matrix(d)) == 0

    def test_kinked_unknot_row(self):
        kinked = apply_move(UNKNOT, MoveSite("R1_insert", (1,)))
        assert coloring_matrix(kinked) == IntegerMatrix.from_rows([[0]])

    def test_unknot_is_zero_by_one(self):
        # one arc and no crossing equation
        assert coloring_matrix(UNKNOT) == IntegerMatrix(0, 1, ())

    def test_more_arcs_than_crossings(self):
        # a component that never passes under keeps its edges in one arc,
        # leaving a non-square matrix; unconstrained columns act like zeros
        d = build_diagram(parse_pd("[[1,3,2,4],[2,3,1,4]]"))
        assert (d.n_crossings, d.n_arcs) == (2, 3)
        sd = smith_normal_form(coloring_matrix(d))
        assert sd.invariant_factors == (1, 0)
        assert sd.padded_factors() == (1, 0, 0)
        for m in (2, 3, 5):
            assert count_colorings(sd, m) == m * m
            got = enumerate_colorings(d, m)
            assert len(got) == m * m
            assert all(c.satisfies(d) for c in got)
            assert set(got) == set(brute_force_colorings(d, m))


class TestDeterminant:
    def test_values(self):
        assert link_determinant(smith_of(TREFOIL)) == 3
        assert link_determinant(smith_of(FIGURE8)) == 5
        assert link_determinant(smith_of(KNOT940)) == 75

    def test_940_divisible_by_25(self):
        # two invariant factors carry a factor 5
        assert link_determinant(smith_of(KNOT940)) % 25 == 0

    def test_no_zero_factor_rejected(self):
        sd = smith_normal_form(identity(2))
        with pytest.raises(ValueError):
            link_determinant(sd)

    def test_first_minor_oracle(self):
        # on an alternating diagram every arc passes over exactly once, so
        # every first minor of the coloring matrix is +-determinant; this
        # checks the Smith-form determinant against plain Bareiss minors
        for name in catalog_names():
            d = build_diagram(catalog(name))
            if d.n_crossings == 0:
                continue
            m = coloring_matrix(d)
            determinant = link_determinant(smith_of(d))
            n = m.rows
            rows = list(range(1, n))
            for j in range(n):
                sub = submatrix(m, rows, [c for c in range(n) if c != j])
                assert abs(det(sub)) == determinant, name

    def test_unknot_convention(self):
        pr = profile(UNKNOT)
        assert pr.determinant == 1
        assert pr.invariant_factors == (0,)
        assert pr.nullity(3) == 1
        assert pr.count(7) == 7
        assert pr.smith.shape == (0, 1)
        assert pr.colorings(7) == [Coloring(7, (v,)) for v in range(7)]
        assert pr.colorings(7, nontrivial_only=True) == []
        for p in (3, 5, 7):
            assert prime_classes(pr, "aut", p) == (p * (p - 1), [])
            assert prime_classes(pr, "inn", p) == (2 * p, [])
        assert generating_arcs(UNKNOT, 5) == frozenset({0})
        assert extend_coloring(UNKNOT, 5, {0: 9}) == Coloring(5, (4,))


class TestNullity:
    def test_values(self):
        assert p_nullity(smith_of(TREFOIL), 3) == 2
        assert p_nullity(smith_of(TREFOIL), 5) == 1
        assert p_nullity(smith_of(KNOT940), 5) == 3
        assert p_nullity(smith_of(FIGURE8), 5) == 2

    @pytest.mark.parametrize("bad", [2, 4, 9, 15, 1, -3])
    def test_rejects_non_odd_primes(self, bad):
        sd = smith_of(TREFOIL)
        with pytest.raises(ValueError):
            p_nullity(sd, bad)

    def test_is_odd_prime(self):
        assert [p for p in range(2, 30) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_is_odd_prime_matches_trial_division(self):
        def by_trial_division(n):
            return n > 2 and n % 2 == 1 and all(n % f for f in range(3, isqrt(n) + 1, 2))
        assert all(is_odd_prime(n) == by_trial_division(n) for n in range(-5, 10 ** 5))

    @pytest.mark.parametrize("n,expected", [
        (10 ** 18 + 3, True), (2 ** 61 - 1, True), (10 ** 30, False), (3 * 10 ** 29, False),
        # strong pseudoprimes to the first 7, 11 and 12 prime bases, and a composite
        (341550071728321, False), (3825123056546413051, False),
        (318665857834031151167461, False), (MILLER_RABIN_BOUND - 2, False),
    ])
    def test_is_odd_prime_large(self, n, expected):
        assert is_odd_prime(n) is expected

    def test_is_odd_prime_refuses_beyond_proven_bound(self):
        # the bound itself is a strong pseudoprime to every base up to 41
        with pytest.raises(ValueError, match="prime"):
            is_odd_prime(MILLER_RABIN_BOUND)
        assert is_odd_prime(MILLER_RABIN_BOUND * 3) is False


class TestGeneratingArcs:
    @pytest.mark.parametrize("name,p,size", [
        ("3_1", 3, 2), ("3_1", 5, 1), ("9_40", 5, 3), ("4_1", 5, 2), ("unknot", 3, 1),
    ])
    def test_sizes_match_nullity(self, name, p, size):
        d = build_diagram(catalog(name))
        arcs = generating_arcs(d, p)
        assert len(arcs) == size == profile(d).nullity(p)

    @pytest.mark.parametrize("name,p", [("3_1", 3), ("4_1", 5), ("9_40", 5)])
    def test_every_coloring_determined_uniquely(self, name, p):
        d = build_diagram(catalog(name))
        free = sorted(generating_arcs(d, p))
        colorings = enumerate_colorings(d, p)
        restrictions = [tuple(c.values[i] for i in free) for c in colorings]
        # the restriction map is a bijection onto the p^n generator values
        assert len(set(restrictions)) == len(colorings) == p ** len(free)
        for c, r in zip(colorings, restrictions):
            assert extend_coloring(d, p, dict(zip(free, r))) == c

    def test_extension_requires_full_assignment(self):
        with pytest.raises(ValueError):
            extend_coloring(TREFOIL, 3, {0: 1})

    @pytest.mark.parametrize("name,p", [("3_1", 3), ("4_1", 5), ("9_40", 5), ("unknot", 3)])
    def test_profile_in_place_of_diagram(self, name, p):
        d = build_diagram(catalog(name))
        pr = profile(d)
        free = sorted(generating_arcs(d, p))
        assert generating_arcs(pr, p) == frozenset(free)
        for c in enumerate_colorings(d, p):
            assignment = {a: c.values[a] for a in free}
            assert extend_coloring(pr, p, assignment) == extend_coloring(d, p, assignment) == c
        with pytest.raises(ValueError):
            extend_coloring(pr, p, {})


class TestCounting:
    def test_trefoil(self):
        sd = smith_of(TREFOIL)
        assert count_colorings(sd, 3) == 9
        assert count_colorings(sd, 9) == 27
        assert count_colorings(sd, 5) == 5

    def test_figure8_mod7_only_trivial(self):
        assert count_colorings(smith_of(FIGURE8), 7) == 7

    def test_modulus_guard(self):
        with pytest.raises(ValueError):
            count_colorings(smith_of(TREFOIL), 1)

    def test_composite_formula_shape(self):
        # count = m^{#zeros} * prod gcd(z, m) over the zero-divisor factors
        for name in ("3_1", "6_1", "9_40"):
            sd = smith_of(build_diagram(catalog(name)))
            for m in (4, 6, 8, 9, 10, 12):
                factors = sd.padded_factors()
                zeros = sum(1 for f in factors if f == 0)
                divisors = [f for f in factors if f != 0 and gcd(f, m) > 1]
                expected = m ** zeros
                for z in divisors:
                    expected *= gcd(z, m)
                assert count_colorings(sd, m) == expected

    def test_count_divisible_by_m_with_trivials(self):
        for name in catalog_names():
            d = build_diagram(catalog(name))
            pr = profile(d)
            for m in range(2, 13):
                assert pr.count(m) % m == 0
                trivials = [Coloring(m, (v,) * d.n_arcs) for v in range(m)]
                if pr.count(m) <= 200:
                    enumerated = enumerate_colorings(d, m)
                    assert all(t in enumerated for t in trivials)


class TestEnumerate:
    def test_trefoil_nontrivial_mod3(self):
        got = enumerate_colorings(TREFOIL, 3, nontrivial_only=True)
        assert len(got) == 6
        assert all(len(set(c.values)) == 3 for c in got)
        assert all(c.satisfies(TREFOIL) for c in got)

    def test_figure8_nontrivial_mod5(self):
        got = enumerate_colorings(FIGURE8, 5, nontrivial_only=True)
        assert len(got) == 20
        assert all(c.satisfies(FIGURE8) for c in got)

    def test_unknot(self):
        assert enumerate_colorings(UNKNOT, 7, nontrivial_only=True) == []
        assert enumerate_colorings(UNKNOT, 7) == [Coloring(7, (v,)) for v in range(7)]

    def test_deterministic_order(self):
        assert enumerate_colorings(TREFOIL, 9) == enumerate_colorings(TREFOIL, 9)

    def test_budget(self):
        with pytest.raises(EnumerationBudgetError):
            enumerate_colorings(KNOT940, 5, budget=100)

    @pytest.mark.parametrize("d, m", [(KNOT940, 15), (TREFOIL, 9), (FIGURE8, 10), (UNKNOT, 7),
                                      (KNOT940, 5)])
    def test_list_equals_dataclass_init(self, d, m):
        # Colorings builds each item from a word of the walk; it must be what
        # __init__ builds from the walk's tuple
        pr = profile(d)
        vectors = list(solve_mod(pr.smith, m).vectors())
        got, want = pr.colorings(m), [Coloring(m, x) for x in vectors]
        assert len(got) == len(want) == pr.count(m)
        for g, w in zip(got, want):
            assert type(g) is Coloring and g == w and hash(g) == hash(w)
            with pytest.raises(FrozenInstanceError):
                g.values = w.values
            with pytest.raises(FrozenInstanceError):
                g.modulus = m
        assert got == want
        assert all(type(c) is Coloring for c in pr.colorings(m, nontrivial_only=True))
        if is_odd_prime(m):
            words = pr.colorings(m, ordered=False).words
            assert sorted(map(tuple, words)) == sorted(w.values for w in want)
            assert all(type(w) is bytes for w in words)  # the words of m <= 256

    def test_empty_list(self):
        assert Colorings(5, []) == []
        assert profile(TREFOIL).colorings(5, nontrivial_only=True) == []


class TestBruteForceOracle:
    def test_trefoil_totals(self):
        assert len(brute_force_colorings(TREFOIL, 3)) == 9
        two = brute_force_colorings(TREFOIL, 2)
        assert len(two) == 2 and all(c.is_trivial for c in two)
        assert len(brute_force_colorings(FIGURE8, 5)) == 25
        assert len(brute_force_colorings(TREFOIL, 9)) == 27

    @pytest.mark.parametrize("name,mods", [
        ("3_1", range(2, 13)),
        ("4_1", range(2, 13)),
        ("5_2", (2, 3, 7, 8)),
        ("6_1", (3, 6, 9)),
        ("7_1", (2, 5, 7)),
        ("9_40", (3, 4)),
    ])
    def test_enumerate_equals_brute_force(self, name, mods):
        d = build_diagram(catalog(name))
        for m in mods:
            assert set(enumerate_colorings(d, m)) == set(brute_force_colorings(d, m))

    def test_budget_guards(self):
        with pytest.raises(EnumerationBudgetError):
            brute_force_colorings(KNOT940, 12)
        with pytest.raises(EnumerationBudgetError):
            brute_force_colorings(KNOT940, 12, budget=10 ** 6)

    def test_unknot_count(self):
        assert len(brute_force_colorings(UNKNOT, 9)) == 9


class TestPrimePowerCounts:
    def test_p_power_nullity_relation(self):
        # |colorings mod p| = p^nullity for every odd prime p <= 11
        for name in catalog_names():
            d = build_diagram(catalog(name))
            pr = profile(d)
            for p in (3, 5, 7, 11):
                n = pr.nullity(p)
                assert pr.count(p) == p ** n
                if p ** n <= 10 ** 4:
                    assert len(enumerate_colorings(d, p)) == p ** n


def r2_from_edge_1(d):
    """R2 insertion of edge 1 over the lowest edge that shares a face with it."""
    for e in d.pd.edges():
        try:
            return apply_move(d, MoveSite("R2_insert", (1, e)))
        except MoveError:
            continue
    raise AssertionError("edge 1 shares no face with another edge")


class TestMoveInvariance:
    def test_counts_stable_under_moves(self):
        for name in catalog_names():
            d = build_diagram(catalog(name))
            base = profile(d)
            variants = [apply_move(d, MoveSite("R1_insert", (1,)))]
            if d.n_crossings:
                variants.append(r2_from_edge_1(d))
                variants.append(apply_move(variants[0], MoveSite("R1_insert", (3,), over=True)))
            for v in variants:
                vp = profile(v)
                for m in range(2, 13):
                    assert base.count(m) == vp.count(m), (name, m)


class TestColoringValue:
    def test_trivial_flag(self):
        assert Coloring(5, (2, 2, 2)).is_trivial
        assert not Coloring(5, (1, 2, 2)).is_trivial

    def test_satisfies(self):
        assert Coloring(3, (0, 1, 2)).satisfies(TREFOIL)
        assert not Coloring(3, (0, 1, 1)).satisfies(TREFOIL)
