"""A move without its renumbering against apply_move_pd.

apply_move_pd is the move (_move_pd: handler, slot sort, compaction to
1..E after a deletion, faces and planarity) followed by the canonical
renumbering (_renumber), and verify chains the move alone.  At every
site of every kind, on the catalog, LINKS, seeded variants of both
chains, the R3 test codes and a split code, the move alone must

- renumber to apply_move_pd's result: crossings, mates, faces and
  component count;
- be a valid PdCode in its own right: PdCode(crossings) equal to it,
  labels 1..E, mates those of the slot oracle, faces a full _faces
  trace and the component count _components;
- have the invariant factors of the renumbered result;

and fail at a site exactly where apply_move_pd fails, with the same
MoveError.  No site may end in another error, such as a planarity check
that a wrong face update would trip.
"""

import pytest

from foxcolor.coloring import profile
from foxcolor.diagram import (MOVE_KINDS, MoveError, PdCode, _components, _faces, _move_pd,
                              _renumber, apply_move_pd, build_diagram, catalog, catalog_names,
                              parse_pd, random_variants)
from foxcolor.orbits import _variants

from slot_oracle import _mates
from test_moves_differential import site_codes
from test_oracle_differential import LINKS
from test_setup_differential import every_site


def split_codes():
    codes = site_codes() + [parse_pd(code) for code, _, _ in LINKS.values()]
    # verify's variants keep the labels their moves write
    for seed, name in enumerate(("3_1", "4_1", "6_2", "9_40")):
        codes += [v.pd for v in _variants(build_diagram(catalog(name)), 2, 5, seed)]
    return list(dict.fromkeys(codes))


CODES = split_codes()


def factors(pd):
    return profile(build_diagram(pd)).invariant_factors


def assert_valid(code):
    n = len(code.crossings)
    assert PdCode(code.crossings) == code
    assert sorted(e for q in code.crossings for e in q) == sorted(list(range(1, 2 * n + 1)) * 2)
    assert code.mates == _mates(code.crossings)
    assert code.faces == _faces(code.mates)
    assert code.components == _components(code.mates)


@pytest.mark.parametrize("index", range(len(CODES)))
def test_the_move_alone_renumbers_to_apply_move_pd(index):
    pd = CODES[index]
    applied = dict.fromkeys(MOVE_KINDS, 0)
    for site in every_site(pd):
        try:
            canonical = apply_move_pd(pd, site)
        except MoveError as exc:
            with pytest.raises(MoveError) as raised:
                _move_pd(pd, site)
            assert str(raised.value) == str(exc)
            continue
        moved = _move_pd(pd, site)
        renumbered = _renumber(moved)
        assert renumbered.crossings == canonical.crossings
        assert renumbered.mates == moved.mates == canonical.mates
        assert renumbered.faces == moved.faces == canonical.faces
        assert renumbered.components == moved.components == canonical.components
        assert_valid(moved)
        assert factors(moved) == factors(canonical)
        applied[site.kind] += 1
    assert applied[MOVE_KINDS[0]], applied  # every code takes a kink


def test_every_kind_applies():
    applied = dict.fromkeys(MOVE_KINDS, 0)
    for pd in CODES:
        for site in every_site(pd):
            try:
                _move_pd(pd, site)
            except MoveError:
                continue
            applied[site.kind] += 1
    assert min(applied.values()) >= 20, applied  # deletions and R3 slides too


@pytest.mark.parametrize("name", catalog_names())
def test_renumbering_a_renumbered_code_keeps_it(name):
    for v in random_variants(build_diagram(catalog(name)), 2, 3, seed=3201):
        assert _renumber(v.pd).crossings == v.pd.crossings
