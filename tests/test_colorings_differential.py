"""Differential tests: the lazy Colorings sequence against the eager list.

ColoringProfile.colorings used to return [Coloring(m, x) for x in
solve_mod(pr.smith, m).vectors()], with the non-trivial ones filtered
from that list.  It now returns a Colorings that holds the words of the
same walk and builds each Coloring on access; as a sequence it must be
that list, item for item, at every word width: bytes of 1-byte lanes
(m <= 128), the low bytes of 2-byte lanes (129 <= m <= 256) and tuples
above.
"""

from collections.abc import Sequence
from dataclasses import FrozenInstanceError

import pytest
from test_oracle_differential import LINKS

from foxcolor.coloring import Coloring, Colorings, enumerate_colorings, profile
from foxcolor.diagram import build_diagram, catalog, catalog_names, parse_pd
from foxcolor.linalg import solve_mod

DIAGRAMS = {**{name: build_diagram(catalog(name)) for name in catalog_names()},
            **{name: build_diagram(parse_pd(code)) for name, (code, _, _) in LINKS.items()}}
MODULI = (*range(3, 31), 127, 128, 129, 255, 256, 257)


def check_sequence(got, want: list, m: int) -> None:
    assert type(got) is Colorings and isinstance(got, Sequence) and got.modulus == m
    assert type(got.words) is list
    word = bytes if m <= 256 else tuple
    assert all(type(w) is word for w in got.words)
    assert got.words == [word(c.values) for c in want]
    assert len(got) == len(want)
    items = list(got)
    assert items == want
    assert set(map(type, items)) <= {Coloring}
    assert list(map(hash, items)) == list(map(hash, want))
    assert got == want and want == got
    assert got != want[1:] if want else got == []
    assert got != tuple(want)
    n = len(want)
    # every item comes from Coloring's own __init__, so the frozen check
    # at these indexes holds for all of them
    for i in {0, 1, n // 2, n - 1, -1, -n}:
        if -n <= i < n:
            assert type(got[i]) is Coloring and got[i] == want[i]
            with pytest.raises(FrozenInstanceError):
                got[i].values = want[i].values
            with pytest.raises(FrozenInstanceError):
                got[i].modulus = m
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            got[i]
    for s in (slice(None, 1), slice(1, 4), slice(-3, None), slice(None, None, -7)):
        part = got[s]
        assert type(part) is list and part == want[s]


@pytest.mark.parametrize("name", DIAGRAMS)
def test_colorings_are_the_eager_list(name):
    d = DIAGRAMS[name]
    pr = profile(d)
    for m in MODULI:
        want = [Coloring(m, x) for x in solve_mod(pr.smith, m).vectors()]
        check_sequence(pr.colorings(m), want, m)
        check_sequence(pr.colorings(m, nontrivial_only=True),
                       [c for c in want if not c.is_trivial], m)
        assert enumerate_colorings(d, m).words == pr.colorings(m).words


def test_empty_and_unequal():
    assert Colorings(5, []) == [] == Colorings(7, [])
    assert list(Colorings(5, [])) == [] and Colorings(5, [])[:] == []
    one = Colorings(5, [b"\x01\x02"])
    assert one == [Coloring(5, (1, 2))] != Colorings(5, [b"\x02\x01"])
    assert one != [Coloring(7, (1, 2))]
    with pytest.raises(TypeError):
        hash(one)
