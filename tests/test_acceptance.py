"""Acceptance suite: the eight exact end-to-end checks, one per test.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion.  Everything asserts exact equality; all arithmetic is
exact integer arithmetic.
"""

import random
from contextlib import contextmanager
from math import gcd

from coloring_oracle import brute_force_colorings
from quandle_oracle import affine_tables, relabel
from smith_oracle import smith_check

from foxcolor.coloring import (Coloring, coloring_matrix, enumerate_colorings,
                               extend_coloring, generating_arcs, is_odd_prime, profile)
from foxcolor.diagram import build_diagram, catalog, catalog_names, random_variants
from foxcolor.linalg import IntegerMatrix, smith_normal_form
from foxcolor.orbits import AUT, INN, build_group, orbit_partition, predicted_class_count

KNOTS = {name: build_diagram(catalog(name)) for name in catalog_names()}


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"criterion {number} FAIL: {title}")
        raise
    print(f"criterion {number} PASS: {title}")


def class_counts(d, p):
    nontrivial = enumerate_colorings(d, p, nontrivial_only=True)
    aut = orbit_partition(nontrivial, build_group(AUT, p))
    inn = orbit_partition(nontrivial, build_group(INN, p))
    return nontrivial, aut, inn


def applicable_primes(d, upper=11):
    pr = profile(d)
    return [p for p in range(3, upper + 1)
            if is_odd_prime(p) and pr.nullity(p) >= 2]


def test_criterion_1_trefoil():
    with criterion(1, "trefoil factors, determinant, mod-3 counts and classes"):
        d = KNOTS["3_1"]
        pr = profile(d)
        assert pr.invariant_factors == (1, 3, 0)
        assert pr.determinant == 3
        assert pr.count(3) == 9
        nontrivial, aut, inn = class_counts(d, 3)
        assert len(nontrivial) == 6
        assert aut.class_count == 1 == predicted_class_count(AUT, 3, 2)
        assert inn.class_count == 1 == predicted_class_count(INN, 3, 2)


def test_criterion_2_figure8():
    with criterion(2, "figure-8 determinant 5, one aut class, two inn classes"):
        d = KNOTS["4_1"]
        assert profile(d).determinant == 5
        assert profile(d).count(5) == 25
        nontrivial, aut, inn = class_counts(d, 5)
        assert len(nontrivial) == 20
        assert aut.class_count == 1 and aut.sizes() == (20,)
        assert inn.class_count == 2 and inn.sizes() == (10, 10)


def test_criterion_3_9_40():
    with criterion(3, "9_40 nullity 3, 120 non-trivial, 6 aut / 12 inn classes"):
        d = KNOTS["9_40"]
        assert profile(d).nullity(5) == 3
        nontrivial, aut, inn = class_counts(d, 5)
        assert len(nontrivial) == 120
        assert aut.class_count == 6 and set(aut.sizes()) == {20}
        assert inn.class_count == 12 and set(inn.sizes()) == {10}
        assert inn.class_count == (5 ** 2 - 1) // 2


def test_criterion_4_formula_sweep():
    with criterion(4, "class-count formulas across the catalog, odd primes <= 11"):
        checked = 0
        for name, d in KNOTS.items():
            for p in applicable_primes(d):
                n = profile(d).nullity(p)
                _, aut, inn = class_counts(d, p)
                assert aut.class_count == predicted_class_count(AUT, p, n), (name, p)
                assert inn.class_count == predicted_class_count(INN, p, n), (name, p)
                checked += 1
        assert checked >= 8  # every catalog knot except the unknot and 6_3 contributes


def test_criterion_5_composite_count_oracle():
    with criterion(5, "composite-modulus counts match brute force over m^arcs"):
        for name, d in KNOTS.items():
            if d.n_arcs > 7:
                continue
            pr = profile(d)
            for m in (4, 6, 8, 9, 10, 12):
                expected = pr.count(m)
                assert len(brute_force_colorings(d, m)) == expected, (name, m)
                # the closed formula, recomputed from the factors directly
                factors = smith_normal_form(coloring_matrix(d)).padded_factors()
                zeros = sum(1 for f in factors if f == 0)
                formula = m ** zeros
                for z in factors:
                    if z != 0:
                        formula *= gcd(z, m)
                assert expected == formula, (name, m)


def test_criterion_6_snf_oracle():
    with criterion(6, "500 seeded matrices: C unimodular, d_j divides MC col j, minor oracle"):
        rng = random.Random(6502)
        for _ in range(500):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            sd = smith_normal_form(m)
            factors = sd.invariant_factors
            for a, b in zip(factors, factors[1:]):
                assert (b == 0) if a == 0 else (b % a == 0)
            assert smith_check(m, sd.c, factors)  # with the minor oracle


def test_criterion_7_move_invariance():
    with criterion(7, "coloring and class counts stable across 3 seeded variants"):
        for name, d in KNOTS.items():
            base = profile(d)
            primes = applicable_primes(d)
            base_classes = {p: tuple(c.class_count for c in class_counts(d, p)[1:])
                            for p in primes}
            for variant in random_variants(d, 3, 3, seed=13):
                vp = profile(variant)
                for m in range(2, 13):
                    assert base.count(m) == vp.count(m), (name, m)
                for p in primes:
                    _, aut, inn = class_counts(variant, p)
                    assert (aut.class_count, inn.class_count) == base_classes[p], (name, p)


def test_criterion_8_negative_control():
    with criterion(8, "non-affine permutation breaks a 9_40 coloring, affine maps do not"):
        d = KNOTS["9_40"]
        free = sorted(generating_arcs(d, 5))
        coloring = extend_coloring(d, 5, dict(zip(free, (0, 1, 2))))
        assert coloring.satisfies(d)
        # the permutation (0 1)(2 3 4), written as images of 0..4
        assert not Coloring(5, relabel((1, 0, 3, 4, 2), coloring.values)).satisfies(d)
        group = build_group(AUT, 5)
        assert group.size == 20
        for t in affine_tables(group):
            assert Coloring(5, relabel(t, coloring.values)).satisfies(d)
