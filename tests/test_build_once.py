"""verify's structures are built once per thing they depend on.

Counters wrap the builders: permutation tables once per group and only
for a prime with non-trivial colorings, faces once per PD code, and one
diagram per variant.  Cached fields leave equality and hashing alone.
"""

from collections import Counter

import foxcolor.diagram as dia
from foxcolor.coloring import profile
from foxcolor.diagram import PdCode, build_diagram, catalog, random_variants
from foxcolor.orbits import AUT, INN, AffineMap, build_group, verify_counts

KNOT_9_40 = build_diagram(catalog("9_40"))


def test_tables_once_per_group_and_only_with_colorings(monkeypatch):
    calls = Counter()
    as_permutation = AffineMap.as_permutation

    def counted(self):
        calls[self.modulus] += 1
        return as_permutation(self)

    monkeypatch.setattr(AffineMap, "as_permutation", counted)
    primes = (3, 5, 7, 11)
    reports = verify_counts(KNOT_9_40, primes, variants=3)
    assert all(r.passed for r in reports)
    pr = profile(KNOT_9_40)
    expected = {p: build_group(AUT, p).size + build_group(INN, p).size
                for p in primes if pr.nullity(p) >= 2}
    assert set(expected) == {3, 5}
    assert pr.nullity(7) == pr.nullity(11) == 1
    assert calls == expected


def test_faces_once_per_code(monkeypatch):
    faces_calls = []
    codes = []
    faces, post_init = dia._faces, PdCode.__post_init__

    def counted_faces(mate):
        faces_calls.append(mate)
        return faces(mate)

    def counted_post_init(self):
        codes.append(self)
        post_init(self)

    monkeypatch.setattr(dia, "_faces", counted_faces)
    monkeypatch.setattr(PdCode, "__post_init__", counted_post_init)
    random_variants(KNOT_9_40, 3, 7, seed=11)
    assert len(codes) == 3 * 7
    assert len(faces_calls) == len(codes)


def test_one_diagram_per_variant(monkeypatch):
    builds = []

    def counted(pd):
        builds.append(pd)
        return build_diagram(pd)

    monkeypatch.setattr(dia, "build_diagram", counted)
    variants = random_variants(KNOT_9_40, 4, 5, seed=3)
    assert builds == [v.pd for v in variants]


def test_cached_faces_keep_identity():
    read = catalog("9_40")
    assert read.faces and read.mates
    fresh = PdCode(read.crossings)
    bare = PdCode(read.crossings)
    del vars(bare)["mates"], vars(bare)["faces"]
    for other in (fresh, bare):
        assert read == other and hash(read) == hash(other)
    assert len({read, fresh, bare}) == 1


def test_cached_tables_keep_identity():
    for kind in (AUT, INN):
        read, fresh = build_group(kind, 7), build_group(kind, 7)
        assert len(read.tables) == read.size
        assert "tables" not in vars(fresh)
        assert read == fresh and hash(read) == hash(fresh)
