import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from foxcolor.diagram import (MOVE_KINDS, MoveError, MoveSite, PdCode, PdError, R1_DELETE,
                              R1_INSERT, R2_DELETE, R2_INSERT, R3, _faces, _genus, apply_move,
                              apply_move_pd, build_diagram, catalog, catalog_names, parse_pd,
                              random_move_site_pd, random_variants)
from foxcolor.cli import main
from foxcolor.coloring import profile

from slot_oracle import _mates

TREFOIL = "[[1,4,2,5],[3,6,4,1],[5,2,6,3]]"
FIGURE8 = "[[4,2,5,1],[8,6,1,5],[6,3,7,4],[2,7,3,8]]"

# braid closures with a clean R3 triangle (nine distinct local edges)
R3_READY = [
    "[[2,4,5,1],[3,6,7,4],[7,8,9,5],[8,10,1,9],[6,3,2,10]]",
    "[[2,4,5,1],[4,6,7,5],[3,8,9,6],[9,10,1,7],[8,3,2,10]]",
]
# small diagrams whose triangles all have wrap-around coincidences
R3_DEGENERATE = [
    "[[2,4,5,1],[3,6,7,4],[7,8,1,5],[6,3,2,8]]",
    "[[2,4,5,1],[3,3,6,4],[6,2,1,5]]",
]
# catalog knots with a triangular face, where an R3 site can be constructed
TRIANGLED = [name for name in catalog_names() if any(len(f) == 3 for f in catalog(name).faces)]


def constructed_r3_sites(pd):
    """R3 slides made possible at the triangular faces of pd.

    In an alternating triangle no strand passes over (or under) both
    others.  A finger of one side pushed over another inside the face
    (R2_insert) cuts off a triangle whose third strand runs under (or
    over) both.  Returns (pushed code, middle edge, slid code) for every
    slide that applies.
    """
    sites = []
    for face in pd.faces:
        if len(face) != 3:
            continue
        labels = [pd.crossings[s // 4][s % 4] for s in face]
        for pair in itertools.permutations(labels, 2):
            pushed = apply_move_pd(pd, MoveSite(R2_INSERT, pair))
            for t in pushed.edges():
                try:
                    sites.append((pushed, t, apply_move_pd(pushed, MoveSite(R3, (t,)))))
                except MoveError:
                    continue
    return sites


def nonzero_factors_without_ones(d):
    return tuple(f for f in profile(d).invariant_factors if f != 1)


class TestParse:
    def test_trefoil(self):
        pd = parse_pd(TREFOIL)
        assert pd.n_crossings == 3
        assert pd.crossings[0] == (1, 4, 2, 5)

    def test_unknot_token(self):
        assert parse_pd("unknot").n_crossings == 0

    def test_label_occurrence_error(self):
        with pytest.raises(PdError) as exc:
            parse_pd("[[1,4,2,5],[3,6,4,1]]")
        # labels 2, 5, 3, 6 appear once each; the message must name them
        for label in (2, 3, 5, 6):
            assert str(label) in str(exc.value)

    def test_malformed(self):
        with pytest.raises(PdError):
            parse_pd("[[1,4,2,5],")
        with pytest.raises(PdError):
            parse_pd("[[1,4,2],[3,6,4,1]]")
        with pytest.raises(PdError):
            parse_pd("hello")
        with pytest.raises(PdError):
            parse_pd("[[true,2,2,1]]")

    def test_empty_list_rejected(self):
        with pytest.raises(PdError):
            parse_pd("[]")

    def test_normalization_squeezes_gaps(self):
        doubled = "[[2,8,4,10],[6,12,8,2],[10,4,12,6]]"
        assert parse_pd(doubled) == parse_pd(TREFOIL)

    def test_triple_occurrence_rejected(self):
        with pytest.raises(PdError):
            PdCode(((1, 1, 1, 2), (2, 3, 3, 4), (4, 5, 5, 6)))

    def test_bool_label_rejected(self):
        with pytest.raises(PdError):
            PdCode(((True, 2, 2, True),))

    def test_label_messages(self):
        # labels are checked in one scan; what it rejects is reported per crossing
        for crossings, message in [
            (((0, 1, 1, 2), (2, 3, 3, 0)), "edge label 0 is not a positive integer"),
            (((1, 2, -1, 2),), "edge label -1 is not a positive integer"),
            (((1, 2, 1.0, 2),), "edge label 1.0 is not a positive integer"),
            (((1, 2, 3),), r"crossing \(1, 2, 3\) is not a quadruple"),
            # a list is neither hashable nor equal to the tuple parse_pd gives
            (((1, 4, 2, 5), [3, 6, 4, 1], (5, 2, 6, 3)), r"crossing \[3, 6, 4, 1\] is not a tuple"),
            ([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]], r"crossings \[\[1, 4, 2, 5\], .* are not a tuple"),
            ([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)], r"crossings \[\(1, 4, 2, 5\), .* are not a tuple"),
        ]:
            with pytest.raises(PdError, match=message):
                PdCode(crossings)
        for text, message in [
            ('[[1,4,2,5],[3,6,4,1],[5,2,6,"3"]]', r"crossing \[5, 2, 6, '3'\] is not a quadruple"),
            ("[[1,4,2,5],7]", "crossing 7 is not a quadruple"),
            ("[[1,4,2,5],[3,6,4]]", r"crossing \[3, 6, 4\] is not a quadruple"),
        ]:
            with pytest.raises(PdError, match=message):
                parse_pd(text)

    def test_int_subclass_labels(self):
        class Label(int):
            pass

        trefoil = parse_pd(TREFOIL)
        assert PdCode(tuple(tuple(map(Label, q)) for q in trefoil.crossings)) == trefoil

    def test_nonplanar_rejected(self):
        # one crossing, two edges, one face: V - E + F = 0, a torus
        with pytest.raises(PdError, match="planar"):
            parse_pd("[[1,2,1,2]]")
        # a planar trefoil beside that torus diagram: chi sums to 2, not 4
        with pytest.raises(PdError, match="planar"):
            parse_pd("[[1,4,2,5],[3,6,4,1],[5,2,6,3],[7,8,7,8]]")

    def test_split_planar_diagram_accepted(self):
        # chi = 2 for each of the two components
        pd = parse_pd("[[1,4,2,5],[3,6,4,1],[5,2,6,3],[7,8,8,7]]")
        assert pd.n_crossings == 4

    def test_catalog_and_variants_parse(self):
        for name in catalog_names():
            d = build_diagram(catalog(name))
            for v in [d] + random_variants(d, 4, 4, seed=29):
                assert parse_pd(str(v.pd)) == v.pd

    def test_str_roundtrip(self):
        pd = parse_pd(TREFOIL)
        assert parse_pd(str(pd)) == pd
        assert str(parse_pd("unknot")) == "unknot"


class TestBuildDiagram:
    def test_trefoil_arcs(self):
        d = build_diagram(parse_pd(TREFOIL))
        assert d.n_arcs == 3
        assert d.arcs == (frozenset({1, 6}), frozenset({2, 3}), frozenset({4, 5}))
        assert d.crossing_relations == ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    def test_figure8(self):
        d = build_diagram(parse_pd(FIGURE8))
        assert d.n_arcs == 4
        assert len(d.crossing_relations) == 4

    def test_unknot(self):
        d = build_diagram(parse_pd("unknot"))
        assert d.n_arcs == 1
        assert d.crossing_relations == ()

    def test_relations_reference_existing_arcs(self):
        for name in catalog_names():
            d = build_diagram(catalog(name))
            for rel in d.crossing_relations:
                assert all(0 <= i < d.n_arcs for i in rel)

    def test_arc_lookup(self):
        d = build_diagram(parse_pd(TREFOIL))
        assert d.arc_of(1) == 0 and d.arc_of(6) == 0
        assert d.arc_of(4) == 2
        with pytest.raises(KeyError):
            d.arc_of(99)
        assert d.arc_labels() == ("{1,6}", "{2,3}", "{4,5}")


class TestCatalog:
    def test_names_present(self):
        for name in ("unknot", "3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_1", "9_40"):
            assert name in catalog_names()

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("10_139")

    def test_entries_valid(self):
        # PdCode construction re-checks that each label occurs exactly twice
        for name in catalog_names():
            pd = catalog(name)
            d = build_diagram(pd)
            if pd.n_crossings:
                assert d.n_arcs == pd.n_crossings  # knots: one arc per crossing

    def test_trefoil_entry(self):
        assert catalog("3_1") == parse_pd(TREFOIL)

    def test_expected_determinants(self):
        expected = {"unknot": 1, "3_1": 3, "4_1": 5, "5_1": 5, "5_2": 7,
                    "6_1": 9, "6_2": 11, "6_3": 13, "7_1": 7, "9_40": 75}
        for name, det in expected.items():
            assert profile(build_diagram(catalog(name))).determinant == det, name


def r1_delete_sites(d):
    for e in d.pd.edges():
        try:
            yield e, apply_move(d, MoveSite("R1_delete", (e,)))
        except MoveError:
            continue


class TestR1:
    def test_insert_adds_crossing_and_arc(self):
        tre = build_diagram(catalog("3_1"))
        kinked = apply_move(tre, MoveSite("R1_insert", (1,)))
        assert kinked.n_crossings == 4
        assert kinked.n_arcs == 4
        assert sorted({e for q in kinked.pd.crossings for e in q}) == list(range(1, 9))

    def test_insert_over_variant(self):
        tre = build_diagram(catalog("3_1"))
        kinked = apply_move(tre, MoveSite("R1_insert", (2,), over=True))
        assert kinked.n_crossings == 4
        assert kinked.n_arcs == 4

    def test_insert_then_delete_restores_factors(self):
        tre = build_diagram(catalog("3_1"))
        kinked = apply_move(tre, MoveSite("R1_insert", (1,)))
        assert nonzero_factors_without_ones(kinked) == nonzero_factors_without_ones(tre)
        restored = [back for _, back in r1_delete_sites(kinked)]
        assert restored
        for back in restored:
            assert back.n_crossings == 3
            assert profile(back).invariant_factors == profile(tre).invariant_factors

    def test_unknot_kink_roundtrip(self):
        unk = build_diagram(parse_pd("unknot"))
        kinked = apply_move(unk, MoveSite("R1_insert", (1,)))
        assert kinked.n_crossings == 1
        assert kinked.n_arcs == 1
        back = apply_move(kinked, MoveSite("R1_delete", (1,)))
        assert back.n_crossings == 0
        assert back.n_arcs == 1

    def test_delete_needs_kink(self):
        tre = build_diagram(catalog("3_1"))
        for e in tre.pd.edges():
            with pytest.raises(MoveError):
                apply_move(tre, MoveSite("R1_delete", (e,)))

    def test_missing_edge(self):
        tre = build_diagram(catalog("3_1"))
        with pytest.raises(MoveError):
            apply_move(tre, MoveSite("R1_insert", (99,)))

    @pytest.mark.parametrize("edge", [0, 2, 99, -1])
    def test_unknot_has_only_edge_1(self, capsys, edge):
        # the crossing-free unknot's one edge is 1, as random_move_site_pd draws it
        unknot = parse_pd("unknot")
        for over in (False, True):
            with pytest.raises(MoveError, match=f"edge {edge} does not exist in the diagram"):
                apply_move_pd(unknot, MoveSite(R1_INSERT, (edge,), over))
        assert main(["moves", "unknot", "--site", f"R1_insert:{edge}"]) == 1
        assert "does not exist" in capsys.readouterr().err
        assert main(["moves", "unknot", "--site", "R1_insert:1"]) == 0


class TestR2:
    def test_insert_adds_two_crossings(self):
        tre = build_diagram(catalog("3_1"))
        pushed = apply_move(tre, MoveSite("R2_insert", (1, 3)))
        assert pushed.n_crossings == 5
        assert pushed.n_arcs == 5

    def test_insert_then_delete_restores_trefoil(self):
        tre = build_diagram(catalog("3_1"))
        pushed = apply_move(tre, MoveSite("R2_insert", (1, 3)))
        restored = []
        for e in pushed.pd.edges():
            try:
                restored.append(apply_move(pushed, MoveSite("R2_delete", (e,))))
            except MoveError:
                continue
        assert restored
        assert any(back.pd == tre.pd for back in restored)

    def test_insert_needs_common_face(self):
        tre = build_diagram(catalog("3_1"))
        with pytest.raises(MoveError, match="share no face"):
            apply_move(tre, MoveSite("R2_insert", (1, 2)))

    def test_insert_needs_distinct_edges(self):
        tre = build_diagram(catalog("3_1"))
        with pytest.raises(MoveError):
            apply_move(tre, MoveSite("R2_insert", (1, 1)))

    def test_delete_needs_bigon(self):
        tre = build_diagram(catalog("3_1"))
        for e in tre.pd.edges():
            with pytest.raises(MoveError):
                apply_move(tre, MoveSite("R2_delete", (e,)))


class TestR3:
    @pytest.mark.parametrize("pdtext", R3_READY)
    def test_applies_and_preserves_counts(self, pdtext):
        d = build_diagram(parse_pd(pdtext))
        base = profile(d)
        applied = 0
        for t in d.pd.edges():
            try:
                moved = apply_move(d, MoveSite("R3", (t,)))
            except MoveError:
                continue
            applied += 1
            assert moved.n_crossings == d.n_crossings
            moved_profile = profile(moved)
            for m in range(2, 13):
                assert base.count(m) == moved_profile.count(m)
        assert applied >= 2

    @pytest.mark.parametrize("pdtext", R3_DEGENERATE)
    def test_degenerate_triangles_rejected(self, pdtext):
        d = build_diagram(parse_pd(pdtext))
        for t in d.pd.edges():
            with pytest.raises(MoveError):
                apply_move(d, MoveSite("R3", (t,)))

    @pytest.mark.parametrize("name", TRIANGLED)
    def test_constructed_site_on_every_catalog_knot_with_a_triangle(self, name):
        pd = catalog(name)
        sites = constructed_r3_sites(pd)
        if not sites:
            # on the trefoil every slide a pushed triangle offers has two of
            # its nine local edges equal, which _r3_rewrite rejects; a kink
            # makes room
            pd = apply_move_pd(pd, MoveSite(R1_INSERT, (1,)))
            sites = constructed_r3_sites(pd)
        assert sites
        counts = [profile(build_diagram(pd)).count(m) for m in range(2, 12)]
        for pushed, t, slid in sites:
            assert slid.n_crossings == pushed.n_crossings and slid != pushed, t
            mate = _mates(slid.crossings)  # planarity traced afresh, not read off the code
            assert _genus(mate, _faces(mate)) == 0
            assert [profile(build_diagram(slid)).count(m) for m in range(2, 12)] == counts, t

    def test_no_pattern_on_alternating_catalog(self):
        for name in ("3_1", "4_1", "7_1"):
            d = build_diagram(catalog(name))
            for t in d.pd.edges():
                with pytest.raises(MoveError):
                    apply_move(d, MoveSite("R3", (t,)))


class TestMoveHygiene:
    def test_unknown_kind(self):
        with pytest.raises(MoveError):
            MoveSite("R4", (1,))

    @pytest.mark.parametrize("site, message", [
        (MoveSite(R1_INSERT, (1, 99)), "R1_insert takes 1 edge, not 2"),
        (MoveSite(R1_DELETE, (1, 2)), "R1_delete takes 1 edge, not 2"),
        (MoveSite(R2_INSERT, (1, 4, 2)), "R2_insert takes 2 edges, not 3"),
        (MoveSite(R2_DELETE, (1, 2)), "R2_delete takes 1 edge, not 2"),
        (MoveSite(R3, (1, 2)), "R3 takes 1 edge, not 2"),
        (MoveSite(R2_INSERT, (1, 4), over=True), "only R1_insert takes 'over', not R2_insert"),
        (MoveSite(R1_DELETE, (1,), over=True), "only R1_insert takes 'over', not R1_delete"),
        (MoveSite(R1_INSERT, ()), "R1_insert needs an edge"),
        (MoveSite(R1_DELETE, ()), "R1_delete needs the loop edge"),
        (MoveSite(R2_INSERT, (1,)), "R2_insert needs (over_edge, under_edge)"),
        (MoveSite(R2_DELETE, ()), "R2_delete needs the over middle edge"),
        (MoveSite(R3, ()), "R3 needs the middle edge of the sliding strand"),
    ])
    def test_site_with_what_its_kind_cannot_use(self, site, message):
        # (1, 4) are two edges of a face of the figure-eight
        with pytest.raises(MoveError) as info:
            apply_move_pd(catalog("4_1"), site)
        assert str(info.value) == message

    def test_labels_stay_normalized(self):
        d = build_diagram(catalog("4_1"))
        for site in (MoveSite("R1_insert", (3,)), MoveSite("R2_insert", (2, 7))):
            moved = apply_move(d, site)
            labels = sorted({e for q in moved.pd.crossings for e in q})
            assert labels == list(range(1, moved.pd.n_edges + 1))

    def test_seeded_moves_stay_planar_and_keep_counts(self):
        # per step, a random kind among those with an applicable site, then a
        # random such site; a non-planar result would fail PdCode validation
        rng = random.Random(5)
        applied = dict.fromkeys(MOVE_KINDS, 0)
        for name in catalog_names():
            d = build_diagram(catalog(name))
            counts = [profile(d).count(m) for m in range(2, 12)]
            for _ in range(6):
                edges = list(d.pd.edges())
                sites = [MoveSite(R2_INSERT, pair) for pair in itertools.permutations(edges, 2)]
                sites += [MoveSite(kind, (e,), over=over)
                          for kind in MOVE_KINDS if kind != R2_INSERT
                          for e in edges or [1] for over in (False, True)]
                moved = {}
                for site in sites:
                    try:
                        result = apply_move(d, site)
                    except MoveError:
                        continue
                    moved.setdefault(site.kind, []).append(result)
                kind = rng.choice(sorted(moved))
                d = rng.choice(moved[kind])
                applied[kind] += 1
                assert parse_pd(str(d.pd)) == d.pd
                assert [profile(d).count(m) for m in range(2, 12)] == counts, (name, kind)
        assert all(applied.values()), applied

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(catalog_names()), st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
    def test_random_moves_stay_planar_and_keep_counts(self, name, seed, n_moves):
        # random_move_site_pd draws R1/R2 insertions; an R3 slide across a
        # triangular face is taken instead half the time one applies
        rng = random.Random(seed)
        d = build_diagram(catalog(name))
        counts = [profile(d).count(m) for m in range(2, 12)]
        for _ in range(n_moves):
            slides = []
            for t in d.pd.edges():
                try:
                    slides.append(apply_move(d, MoveSite(R3, (t,))))
                except MoveError:
                    pass
            if slides and rng.random() < 0.5:
                d = rng.choice(slides)
            else:
                d = apply_move(d, random_move_site_pd(d.pd, rng))
            assert PdCode(d.pd.crossings) == d.pd
            assert [profile(d).count(m) for m in range(2, 12)] == counts, (name, seed)

    def test_random_variants_deterministic(self):
        d = build_diagram(catalog("5_2"))
        a = random_variants(d, 3, 3, seed=11)
        b = random_variants(d, 3, 3, seed=11)
        assert [v.pd for v in a] == [v.pd for v in b]
        c = random_variants(d, 3, 3, seed=12)
        assert [v.pd for v in a] != [v.pd for v in c]

    def test_random_variants_from_unknot(self):
        unk = build_diagram(parse_pd("unknot"))
        for v in random_variants(unk, 2, 3, seed=5):
            assert v.n_crossings >= 1
            assert profile(v).determinant == 1
