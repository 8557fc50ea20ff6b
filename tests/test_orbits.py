import itertools
from math import gcd

import pytest
from quandle_oracle import (affine_tables, automorphisms_by_search, color_group, keeps_relation,
                            relabel)

from foxcolor.coloring import (Coloring, enumerate_colorings, extend_coloring,
                               generating_arcs, is_odd_prime, profile)
from foxcolor.diagram import build_diagram, catalog, parse_pd, random_variants
from foxcolor.orbits import (AUT, INN, build_group, check_group, orbit_partition,
                             predicted_class_count, verify_counts)

TREFOIL = build_diagram(catalog("3_1"))
FIGURE8 = build_diagram(catalog("4_1"))
KNOT940 = build_diagram(catalog("9_40"))
UNLINK = build_diagram(parse_pd("[[2,4,3,1],[3,4,2,1]]"))
FIELDS = {"kind", "modulus", "lams", "mus"}  # a GroupSpec that has cached nothing


def phi(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def lam_mu(table):
    """(lam, mu) of the affine table x -> lam*x + mu: mu = t(0), lam = t(1) - t(0)."""
    return ((table[1] - table[0]) % len(table), table[0])


def assert_byte_tables(group):
    """Each shift and scale table against the one map x -> lam*x + mu it stands
    for, which must be an element of the group."""
    m = group.modulus
    step = group.mus[1] - group.mus[0]
    shifts, scales = group.byte_tables
    assert len(shifts) == m and len(scales) == step
    for a, table in enumerate(shifts):
        # the translation by u takes arc 0 = a to a % step, into the slice
        u = (a % step - a) % m
        assert u in group.mus and len(table) == 256
        assert table[:m] == bytes(range(u, m)) + bytes(range(u))
    for r, tables in enumerate(scales):
        # lam * x, translated back to keep r, the slice word's arc 0
        assert len(tables) == len(group.lams)
        for lam, table in zip(group.lams, tables):
            u = (r - lam * r) % m
            assert u in group.mus and len(table) == 256
            assert table[:m] == bytes((lam * x + u) % m for x in range(m))


class TestGroupAxioms:
    """The tables are the group that the relation a * b = 2b - a defines."""

    def test_affine_shortcut_finds_every_automorphism(self):
        for m in range(3, 8):
            assert color_group("aut", m) == automorphisms_by_search(m)

    def test_bijection_required(self):
        # a constant map keeps every relation, yet is no symmetry
        for m in (3, 5, 6):
            assert keeps_relation((0,) * m, m)
            assert (0,) * m not in color_group("aut", m)

    @pytest.mark.parametrize("kind", [AUT, INN])
    def test_exhaustive_up_to_30(self, kind):
        for m in range(3, 31):
            g = build_group(kind, m)
            tables = affine_tables(g)
            assert len(set(tables)) == len(tables) == g.size
            assert set(tables) == color_group(kind, m)


class TestBuildGroup:
    def test_sizes_at_5(self):
        assert build_group(AUT, 5).size == 20
        assert build_group(INN, 5).size == 10

    def test_inn_6_elements(self):
        g = build_group(INN, 6)
        assert g.size == 6
        assert (g.lams, g.mus) == ((1, 5), (0, 2, 4))
        assert [lam_mu(t) for t in affine_tables(g)] == [
            (1, 0), (1, 2), (1, 4), (5, 0), (5, 2), (5, 4)]

    def test_closed_form_sizes(self):
        for m in range(3, 31):
            assert build_group(AUT, m).size == m * phi(m)
            assert build_group(INN, m).size == (m if m % 2 == 0 else 2 * m)

    def test_size_without_tables(self):
        g = build_group(AUT, 3001)
        assert g.size == 3001 * 3000
        assert vars(g).keys() == FIELDS

    @pytest.mark.parametrize("kind", [AUT, INN])
    def test_byte_tables_are_the_tables(self, kind):
        for m in range(3, 250):
            assert_byte_tables(build_group(kind, m))

    @pytest.mark.parametrize("m", range(250, 257))
    def test_byte_tables_up_to_256(self, m):
        for kind in (AUT, INN):
            assert_byte_tables(build_group(kind, m))

    def test_inn_subset_of_aut(self):
        for m in (3, 4, 7, 12):
            inn, aut = (set(affine_tables(build_group(kind, m))) for kind in (INN, AUT))
            assert inn <= aut

    def test_table_mod5(self):
        g = build_group(AUT, 5)
        assert affine_tables(g)[g.lams.index(2) * len(g.mus) + 3] == (3, 0, 2, 4, 1)

    def test_doubling_table_mod5(self):
        # x -> 2x is the permutation fixing 0 and cycling 1 -> 2 -> 4 -> 3
        g = build_group(AUT, 5)
        assert affine_tables(g)[g.lams.index(2) * len(g.mus)] == (0, 2, 4, 1, 3)

    def test_units_only(self):
        # x -> 2x and x -> 0 are no permutations of Z_6
        g = build_group(AUT, 6)
        assert g.lams == (1, 5)
        assert not {(0, 2, 4, 0, 2, 4), (0,) * 6} & set(affine_tables(g))

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            build_group(AUT, 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_group("sym", 5)

    def test_check_group_matches_build_group(self):
        # the cheap check accepts exactly what build_group accepts, at any size
        assert check_group("AUT", 5) == AUT
        assert check_group(INN, 10 ** 18 + 3) == INN
        for kind, m in ((AUT, 2), (INN, 1), ("sym", 5)):
            with pytest.raises(ValueError):
                check_group(kind, m)

    def test_deterministic_order(self):
        g = build_group(AUT, 7)
        assert g.lams == (1, 2, 3, 4, 5, 6) and g.mus == tuple(range(7))
        assert [lam_mu(t) for t in affine_tables(g)] == list(itertools.product(g.lams, g.mus))


class TestAction:
    def test_identity_action(self):
        c = Coloring(3, (0, 1, 2))
        assert relabel(affine_tables(build_group(AUT, 3))[0], c.values) == c.values

    def test_trivial_stays_trivial(self):
        shift = affine_tables(build_group(AUT, 3))[1]  # x -> x + 1
        assert relabel(shift, (0, 0, 0)) == (1, 1, 1)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            orbit_partition([Coloring(3, (0, 1, 2))], build_group(AUT, 5))

    def test_colorings_stay_colorings(self):
        for d, p in ((TREFOIL, 3), (FIGURE8, 5), (KNOT940, 5)):
            colorings = enumerate_colorings(d, p)
            for t in affine_tables(build_group(AUT, p)):
                for c in colorings[:30]:
                    assert Coloring(p, relabel(t, c.values)).satisfies(d)

    def test_action_is_homomorphism(self):
        colorings = enumerate_colorings(FIGURE8, 5)
        tables = affine_tables(build_group(AUT, 5))
        for t1, t2 in itertools.islice(itertools.product(tables, tables), 60):
            composed = relabel(t1, t2)
            assert composed in tables
            for c in colorings[:5]:
                assert relabel(composed, c.values) == relabel(t1, relabel(t2, c.values))

    def test_faithful(self):
        colorings = enumerate_colorings(TREFOIL, 3)
        for t in affine_tables(build_group(AUT, 3)):
            if t == (0, 1, 2):
                continue
            assert any(relabel(t, c.values) != c.values for c in colorings)

    def test_affine_maps_preserve_color_count(self):
        for c in enumerate_colorings(KNOT940, 5, nontrivial_only=True)[:40]:
            for t in affine_tables(build_group(AUT, 5)):
                assert len(set(relabel(t, c.values))) == len(set(c.values))


class TestPermutationUnchecked:
    def test_identity(self):
        c = enumerate_colorings(FIGURE8, 5, nontrivial_only=True)[0]
        assert relabel(range(5), c.values) == c.values

    def test_affine_always_valid(self):
        c = enumerate_colorings(FIGURE8, 5, nontrivial_only=True)[0]
        for t in affine_tables(build_group(AUT, 5)):
            assert Coloring(5, relabel(t, c.values)).satisfies(FIGURE8)

    def test_non_affine_breaks_940(self):
        free = sorted(generating_arcs(KNOT940, 5))
        c = extend_coloring(KNOT940, 5, dict(zip(free, (0, 1, 2))))
        # the permutation swapping 0,1 and cycling 2 -> 3 -> 4
        perm = (1, 0, 3, 4, 2)
        assert perm not in color_group(AUT, 5)
        values = relabel(perm, c.values)
        assert not Coloring(5, values).satisfies(KNOT940)
        assert values != c.values

    def test_non_bijection_rejected(self):
        # (0, 0, 2) is no permutation: neither group lists it
        for kind in (AUT, INN):
            assert (0, 0, 2) not in color_group(kind, 3)
            assert (0, 0, 2) not in affine_tables(build_group(kind, 3))


class TestReadingOfTheRelation:
    """Equivalence under Aut(R_m), not under any permutation that keeps the
    crossings of the one coloring it acts on.

    Under that literal reading every bijection between the colors of two
    colorings with the same arc partition qualifies, so its classes are
    the distinct partitions of the arcs by color.
    """

    @staticmethod
    def arc_partitions(colorings):
        return {tuple(c.values.index(v) for v in c.values) for c in colorings}

    @pytest.mark.parametrize("m, aut, literal", [(3, 1, 1), (5, 6, 6), (15, 13, 11)])
    def test_940(self, m, aut, literal):
        nontrivial = enumerate_colorings(KNOT940, m, nontrivial_only=True)
        assert orbit_partition(nontrivial, build_group(AUT, m)).class_count == aut
        assert len(self.arc_partitions(nontrivial)) == literal

    def test_only_aut_survives_moves(self):
        aut, literal = set(), set()
        for d in (KNOT940, *random_variants(KNOT940, 4, 3, seed=101)):
            nontrivial = enumerate_colorings(d, 15, nontrivial_only=True)
            aut.add(orbit_partition(nontrivial, build_group(AUT, 15)).class_count)
            literal.add(len(self.arc_partitions(nontrivial)))
        assert aut == {13}
        assert literal == {11, 13}


class TestOrbitPartition:
    def test_figure8_aut(self):
        nontrivial = enumerate_colorings(FIGURE8, 5, nontrivial_only=True)
        part = orbit_partition(nontrivial, build_group(AUT, 5))
        assert part.class_count == 1
        assert part.sizes() == (20,)

    def test_figure8_inn(self):
        nontrivial = enumerate_colorings(FIGURE8, 5, nontrivial_only=True)
        part = orbit_partition(nontrivial, build_group(INN, 5))
        assert part.class_count == 2
        assert part.sizes() == (10, 10)
        assert sum(part.sizes()) == len(nontrivial)

    def test_940_aut(self):
        nontrivial = enumerate_colorings(KNOT940, 5, nontrivial_only=True)
        part = orbit_partition(nontrivial, build_group(AUT, 5))
        assert part.class_count == 6
        assert set(part.sizes()) == {20}

    def test_trefoil_mod3_both(self):
        nontrivial = enumerate_colorings(TREFOIL, 3, nontrivial_only=True)
        assert orbit_partition(nontrivial, build_group(AUT, 3)).class_count == 1
        assert orbit_partition(nontrivial, build_group(INN, 3)).class_count == 1

    def test_representatives_are_minima(self):
        nontrivial = enumerate_colorings(KNOT940, 5, nontrivial_only=True)
        part = orbit_partition(nontrivial, build_group(INN, 5))
        reps = [rep for rep, _ in part.orbits]
        assert reps == sorted(reps)
        assert sum(part.sizes()) == len(nontrivial)

    def test_orbit_members_share_color_count(self):
        nontrivial = enumerate_colorings(KNOT940, 5, nontrivial_only=True)
        part = orbit_partition(nontrivial, build_group(AUT, 5))
        for rep, _ in part.orbits:
            counts = {len(set(relabel(t, rep))) for t in affine_tables(build_group(AUT, 5))}
            assert counts == {len(set(rep))}

    def test_empty_input(self):
        part = orbit_partition([], build_group(AUT, 5))
        assert part.class_count == 0
        assert part.orbits == ()

    def test_unclosed_input_rejected(self):
        nontrivial = enumerate_colorings(FIGURE8, 5, nontrivial_only=True)
        with pytest.raises(ValueError):
            orbit_partition(nontrivial[:7], build_group(AUT, 5))

    def test_composite_modulus_action_well_defined(self):
        # no closed-form count is claimed for composite m, but the orbits
        # must still partition the non-trivial colorings
        nontrivial = enumerate_colorings(TREFOIL, 9, nontrivial_only=True)
        part = orbit_partition(nontrivial, build_group(AUT, 9))
        assert sum(part.sizes()) == len(nontrivial) == 18

    def test_freeness_for_prime_modulus(self):
        for d, p in ((FIGURE8, 5), (KNOT940, 5), (TREFOIL, 3)):
            nontrivial = enumerate_colorings(d, p, nontrivial_only=True)
            aut = orbit_partition(nontrivial, build_group(AUT, p))
            inn = orbit_partition(nontrivial, build_group(INN, p))
            assert all(s == p * (p - 1) for s in aut.sizes())
            assert all(s == 2 * p for s in inn.sizes())


class TestAbove256:
    """Above m = 256 orbits come from the lam and mu lists; checked here
    against closed forms, without a table of the group."""

    @pytest.mark.parametrize("p", (257, 263))
    def test_unlink_one_free_orbit(self, p):
        nontrivial = enumerate_colorings(UNLINK, p, nontrivial_only=True)
        group = build_group(AUT, p)
        part = orbit_partition(nontrivial, group)
        n = profile(UNLINK).nullity(p)
        assert part.class_count == 1 == predicted_class_count(AUT, p, n)
        assert part.orbits == ((min(c.values for c in nontrivial), p * (p - 1)),)
        assert vars(group).keys() == FIELDS

    def test_coprime_factors_multiply(self):
        # Aff(Z_ab) = Aff(Z_a) x Aff(Z_b) for coprime a and b, acting on the
        # m-colorings as on their CRT components; counting the constants as
        # one more orbit (of size q), orbits and their sizes multiply
        def orbits_with_constants(q):
            group = build_group(AUT, q)
            part = orbit_partition(enumerate_colorings(KNOT940, q, nontrivial_only=True), group)
            return part.sizes() + (q,), group

        sizes, group = orbits_with_constants(300)
        assert vars(group).keys() == FIELDS
        factors = [orbits_with_constants(q)[0] for q in (4, 3, 25)]
        assert sorted(sizes) == sorted(a * b * c for a, b, c in itertools.product(*factors))
        assert list(map(len, factors)) == [1, 2, 7]  # so 13 classes mod 300


class TestPredictedCounts:
    def test_values(self):
        assert predicted_class_count(AUT, 5, 3) == 6
        assert predicted_class_count(INN, 5, 2) == 2
        assert predicted_class_count(AUT, 3, 2) == 1
        assert predicted_class_count(INN, 5, 3) == 12
        assert predicted_class_count(INN, 3, 2) == 1

    def test_guards(self):
        with pytest.raises(ValueError):
            predicted_class_count(AUT, 4, 2)
        with pytest.raises(ValueError):
            predicted_class_count(AUT, 5, 1)
        with pytest.raises(ValueError):
            predicted_class_count("sym", 5, 2)


class TestVerifyCounts:
    def test_trefoil(self):
        rep = verify_counts(TREFOIL, (3,), label="3_1", variants=2)[0]
        assert rep.passed
        assert (rep.aut_classes, rep.inn_classes) == (1, 1)
        assert rep.invariant_across_moves

    def test_figure8(self):
        rep = verify_counts(FIGURE8, (5,), label="4_1", variants=2)[0]
        assert rep.passed
        assert (rep.aut_classes, rep.inn_classes) == (1, 2)

    def test_940(self):
        rep = verify_counts(KNOT940, (5,), label="9_40", variants=1)[0]
        assert rep.passed
        assert (rep.aut_classes, rep.inn_classes) == (6, 12)
        assert (rep.predicted_aut, rep.predicted_inn) == (6, 12)

    def test_unknot_vacuous(self):
        rep = verify_counts(build_diagram(catalog("unknot")), (3,), label="unknot")[0]
        assert rep.passed
        assert rep.nullity == 1
        assert (rep.aut_classes, rep.inn_classes) == (0, 0)

    def test_no_colorings_vacuous(self):
        rep = verify_counts(TREFOIL, (5,), label="3_1")[0]
        assert rep.passed
        assert rep.aut_classes == 0

    def test_json_keys(self):
        rep = verify_counts(FIGURE8, (5,), label="4_1", variants=1)[0]
        blob = rep.to_json_dict()
        assert blob["knot"] == "4_1"
        assert blob["p"] == 5
        assert blob["orbit_sizes"] == [20]
        assert blob["inn_orbit_sizes"] == [10, 10]
        assert blob["invariant_across_moves"] is True

    def test_prime_determinant_knots_single_class(self):
        # prime determinant means nullity 2: one class, (p-1)/2 inner classes
        for name in ("3_1", "4_1", "5_1", "5_2", "6_2", "6_3", "7_1"):
            d = build_diagram(catalog(name))
            det = profile(d).determinant
            assert is_odd_prime(det)
            rep = verify_counts(d, (det,), label=name, variants=1)[0]
            assert rep.passed
            assert rep.aut_classes == 1
            assert rep.inn_classes == (det - 1) // 2
