"""Differential tests: the block walk that verify partitions against the
unit_kernel walk of whole colorings.

block_kernel lists each kernel vector's entries on the kept columns, the
columns no unit pivot took.  The pivot rows set every other column from
columns pivoted later or kept, so restriction to the kept columns must
send the unit_kernel words one to one onto the block words, in the same
order and constants onto constants; and as restriction commutes with
every arcwise map, the aut and inn partitions of the non-trivial words
must have the same class counts and orbit sizes on both.  On random small
matrices at composite moduli the block walk must list the restrictions
of the solutions an exhaustive search finds, one to one.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from foxcolor.coloring import profile
from foxcolor.diagram import build_diagram, catalog, catalog_names, parse_pd, random_variants
from foxcolor.linalg import block_kernel, smith_normal_form, unit_kernel
from foxcolor.orbits import AUT, INN, build_group, orbit_partition

from test_oracle_differential import LINKS
from test_unit_kernel_differential import every_solution
from test_unit_pivot_differential import matrices

BASE = {**{name: build_diagram(catalog(name)) for name in catalog_names()},
        **{name: build_diagram(parse_pd(code)) for name, (code, _, _) in LINKS.items()}}
DIAGRAMS = dict(BASE)
for _name, _d in BASE.items():
    for _i, _v in enumerate(random_variants(_d, 2, 6, seed=2901)):
        DIAGRAMS[f"{_name}~{_i}"] = _v
MODULI = range(3, 14)
LARGE = [(name, m) for name in ("unlink2", "9_40") for m in (127, 131, 251, 257)]
COMPOSITE = [m for m in range(4, 31) if any(m % q == 0 for q in range(2, m))]


def kept_columns(sd) -> list[int]:
    return sorted(set(range(sd.shape[1])).difference(j for j, _ in sd.pivots))


def restrict(word, kept):
    return type(word)(word[j] for j in kept)


def check_restriction(d, m: int):
    pr = profile(d)
    sd = pr.smith
    kept = kept_columns(sd)
    block, unit = block_kernel(sd, m), unit_kernel(sd, m)
    assert block.transform.rows == len(kept) >= 1
    assert (block.steps, block.sizes) == (unit.steps, unit.sizes)
    assert all(0 <= x < m for row in block.transform.entries for x in row)
    assert block.transform.entries == tuple(unit.transform.entries[j] for j in kept)
    for nontrivial in (False, True):
        whole = pr.walk(unit_kernel, m, nontrivial)
        words = pr.walk(block_kernel, m, nontrivial)
        assert [restrict(w, kept) for w in whole] == words
        assert len(set(words)) == len(words) == pr.count(m) - m * nontrivial
    for kind in (AUT, INN):
        group = build_group(kind, m)
        full, short = (orbit_partition(w, group) for w in (whole, words))
        assert full.class_count == short.class_count
        assert Counter(full.sizes()) == Counter(short.sizes())


@pytest.mark.parametrize("name", DIAGRAMS)
def test_block_words_are_the_colorings_on_the_kept_columns(name):
    for m in MODULI:
        check_restriction(DIAGRAMS[name], m)


@pytest.mark.parametrize("name, m", LARGE)
def test_every_word_width(name, m):
    # bytes of 1-byte lanes (127), low bytes of 2-byte lanes (131, 251), tuples (257)
    check_restriction(BASE[name], m)


def test_diagrams_cover_links_variants_and_wide_blocks():
    widths = {name: len(kept_columns(profile(d).smith)) for name, d in DIAGRAMS.items()}
    assert widths["unknot"] == 1 and widths["unlink2"] == 2
    assert max(widths.values()) >= 3
    assert sum("~" in name for name in DIAGRAMS) == 2 * len(BASE)


@settings(deadline=None, max_examples=120)
@given(matrices(max_dim=3, max_entry=30), st.sampled_from(COMPOSITE))
def test_block_walk_restricts_every_solution(a, m):
    sd = smith_normal_form(a)
    kept = kept_columns(sd)
    block = block_kernel(sd, m)
    assert block.transform.rows == len(kept)
    assert all(0 <= x < m for row in block.transform.entries for x in row)
    words = list(block.vectors())
    solutions = every_solution(a, m)
    restricted = {restrict(x, kept) for x in solutions}
    assert len(restricted) == len(solutions) == len(words) == len(set(words)) == block.count()
    assert set(words) == restricted
