"""verify's structures are built once per thing they depend on.

Counters wrap the builders: groups and their bytes.translate tables once per
prime, and only for a prime with non-trivial colorings, faces and the
slot pairing at most once per PD code (a move that keeps its input's
slots traces no faces in full and counts no labels, and verify's moves
renumber nothing), one diagram per variant, one Smith form
per profile however often generating_arcs and extend_coloring read it,
and the reference Smith elimination of the whole matrix only where a
verb lists colorings in its order, with no more of its transform than
the walk turns.  verify partitions the block walk's words: it carries no
kernel vector through the pivot rows and builds no Coloring, and its
bytes stay those of the walk of whole colorings.
Cached fields leave equality and hashing alone.
"""

import hashlib
from collections import Counter
from functools import cached_property
from itertools import product

import pytest

import foxcolor.coloring as col
import foxcolor.diagram as dia
import foxcolor.linalg as linalg
import foxcolor.orbits as orbits
from foxcolor.cli import main
from foxcolor.coloring import Coloring, extend_coloring, generating_arcs, profile
from foxcolor.diagram import PdCode, build_diagram, catalog, parse_pd, random_variants
from foxcolor.linalg import SmithDecomposition, smith_normal_form
from foxcolor.orbits import AUT, INN, GroupSpec, build_group, prime_classes, verify_counts

KNOT_9_40 = build_diagram(catalog("9_40"))


def counting(monkeypatch, cls, name):
    """Swap cls.name, a cached_property, for one that counts its builds."""
    calls = []
    build = vars(cls)[name].func

    def counted(self):
        calls.append(self)
        return build(self)

    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return calls


def test_tables_once_per_group_and_only_with_colorings(monkeypatch):
    # the partition at m <= 256 reads the shift and scale tables and caches nothing else
    groups = counting(monkeypatch, GroupSpec, "byte_tables")
    primes = (3, 5, 7, 11)
    reports = verify_counts(KNOT_9_40, primes, variants=3)
    assert all(r.passed for r in reports)
    pr = profile(KNOT_9_40)
    assert pr.nullity(3) >= 2 and pr.nullity(5) >= 2
    assert pr.nullity(7) == pr.nullity(11) == 1
    calls = Counter((g.kind, g.modulus) for g in groups)
    assert calls == {(kind, p): 1 for kind in (AUT, INN) for p in (3, 5)}
    for g in groups:
        assert vars(g).keys() == {"kind", "modulus", "lams", "mus", "byte_tables"}


def test_groups_only_at_primes_with_colorings(monkeypatch):
    # the trefoil has nullity 1 at 5, 7 and 11, and so have its variants
    calls = []

    def counted(kind, m):
        calls.append((kind, m))
        return build_group(kind, m)

    monkeypatch.setattr(orbits, "build_group", counted)
    trefoil = build_diagram(catalog("3_1"))
    reports = verify_counts(trefoil, (5, 7, 11))
    assert calls == []
    assert [(r.aut_classes, r.inn_classes, r.aut_orbit_sizes, r.inn_orbit_sizes)
            for r in reports] == [(0, 0, (), ())] * 3
    assert all(r.passed for r in reports)
    (report,) = verify_counts(trefoil, (3,))
    assert sorted(calls) == [(AUT, 3), (INN, 3)]
    assert report.passed and (report.aut_classes, report.inn_classes) == (1, 1)


def test_faces_once_per_code(monkeypatch):
    # insertions update their input's faces and carry its component count:
    # no full face trace and no component search; parse and deletions, whose
    # slots shift, trace both once per code
    calls = Counter()
    for name in ("_faces", "_components"):
        def counted(mate, _name=name, _real=getattr(dia, name)):
            calls[_name] += 1
            return _real(mate)
        monkeypatch.setattr(dia, name, counted)
    checks = []
    check = PdCode._check_planar

    def counted_check(self):
        checks.append(self)
        check(self)

    monkeypatch.setattr(PdCode, "_check_planar", counted_check)
    variants = random_variants(KNOT_9_40, 3, 7, seed=11)
    assert len(checks) == 3 * 7
    assert calls == {}
    texts = [str(v.pd) for v in variants]
    assert [parse_pd(t) for t in texts] == [v.pd for v in variants]
    assert calls == {"_faces": len(texts), "_components": len(texts)}
    calls.clear()
    kinked = dia.apply_move_pd(variants[0].pd, dia.MoveSite(dia.R1_INSERT, (1,)))
    assert calls == {}
    loop = kinked.crossings[-1][1]  # the kink is appended: (e, loop, loop, f)
    dia.apply_move_pd(kinked, dia.MoveSite(dia.R1_DELETE, (loop,)))
    assert calls == {"_faces": 1, "_components": 1}


def test_slots_paired_once_per_code(monkeypatch):
    # a move hands its slot sort's pairing to the new code, and
    # parse_pd and PdCode pair the slots as they count the labels
    calls = Counter()
    for name in ("_sorted_slots", "_label_counts"):
        def counted(*args, _name=name, _real=getattr(dia, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(dia, name, counted)
    variants = random_variants(KNOT_9_40, 3, 7, seed=11)
    # the move's slot sort is a move result's only label check
    assert calls == {"_sorted_slots": 3 * 7}
    codes = [v.pd for v in variants] + [catalog("3_1")]
    texts = [str(v.pd) for v in variants] + ["[[2,8,4,10],[6,12,8,2],[10,4,12,6]]"]
    calls.clear()
    assert [parse_pd(t) for t in texts] == codes
    assert calls == {"_sorted_slots": len(texts)}
    calls.clear()
    assert [PdCode(c.crossings) for c in codes] == codes
    assert calls == {"_sorted_slots": len(codes)}


def test_one_diagram_per_variant(monkeypatch):
    builds = []

    def counted(pd):
        builds.append(pd)
        return build_diagram(pd)

    monkeypatch.setattr(dia, "build_diagram", counted)
    variants = random_variants(KNOT_9_40, 4, 5, seed=3)
    assert builds == [v.pd for v in variants]


def test_verify_moves_without_renumbering(monkeypatch):
    # verify's variants take one slot sort per move and no canonical
    # renumbering, build one diagram each, and every diagram one Smith form
    calls = Counter()

    def counting_calls(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((dia, "_sorted_slots"), (dia, "_renumber"), (orbits, "build_diagram"),
                         (dia, "build_diagram"), (col, "smith_normal_form")):
        counting_calls(module, name)
    reports = verify_counts(KNOT_9_40, (3, 5, 7, 11), variants=3)
    assert all(r.passed for r in reports)
    assert calls == {"_sorted_slots": 9, "build_diagram": 3, "smith_normal_form": 4}


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
    for kind, m in product((AUT, INN), (7, 8)):
        read, fresh = build_group(kind, m), build_group(kind, m)
        shifts, scales = read.byte_tables
        step = m // len(read.mus)  # 2 for inn at even m
        assert len(shifts) == m and list(map(len, scales)) == [len(read.lams)] * step
        assert "byte_tables" not in vars(fresh)
        assert read == fresh and hash(read) == hash(fresh)


@pytest.mark.parametrize("argv, diagrams", [
    (["analyze", "9_40", "--mod", "5"], 0),
    (["analyze", "9_40", "--mod", "15", "--json"], 0),
    (["catalog"], 0),
    (["verify", "9_40", "--primes", "3,5,7,11"], 0),
    (["verify", "3_1", "--primes", "3", "--moves", "5"], 0),
    (["classes", "9_40", "--mod", "5"], 0),
    (["classes", "9_40", "--mod", "15", "--group", "inn"], 0),
    (["enumerate", "9_40", "--mod", "5"], 1),
    (["enumerate", "4_1", "--mod", "6", "--all"], 1),
])
def test_reference_elimination_only_for_listing_order(monkeypatch, capsys, argv, diagrams):
    # the whole matrix's log comes from its reference elimination, and only where
    # enumerate lists colorings in its order: classes walks unit_kernel
    logs = counting(monkeypatch, SmithDecomposition, "col_ops")
    assert main(argv) == 0
    capsys.readouterr()
    assert len(logs) == diagrams
    assert len({id(sd) for sd in logs}) == diagrams
    # the walk builds only the columns it turns, never all of c
    assert all("c" not in vars(sd) for sd in logs)


def test_verify_walks_the_block_and_builds_no_coloring(monkeypatch, capsys):
    kernels = []
    for module in (linalg, col, orbits):
        def counted(sd, m, _real=module.unit_kernel):
            kernels.append(sd)
            return _real(sd, m)
        monkeypatch.setattr(module, "unit_kernel", counted)
    built = []
    init = Coloring.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Coloring, "__init__", counted_init)
    for argv in (["verify", "9_40", "--primes", "3,5,7,11"],
                 ["verify", "[[2,4,3,1],[3,4,2,1]]", "--primes", "3,257", "--moves", "1"]):
        assert main(argv) == 0
    assert kernels == [] and built == []
    assert main(["classes", "9_40", "--mod", "5"]) == 0
    assert main(["classes", "9_40", "--mod", "15", "--group", "inn"]) == 0
    capsys.readouterr()
    assert len(kernels) == len({id(sd) for sd in kernels}) == 2


@pytest.mark.parametrize("argv, digest", [
    (["verify", "9_40", "--primes", "3,5,7,11,13"],
     "970106d5c80728bc3cebe3cd9a3d992845b51322cc047d129da82444e53c994f"),
    (["verify", "9_40", "--primes", "3,5", "--moves", "2", "--seed", "7", "--json"],
     "4607f9a4b302258f6a4e6f45028138012c5925dcdb43c44f23c983b05c4ad72a"),
    (["verify", "[[2,4,3,1],[3,4,2,1]]", "--primes", "3,127,131,257", "--moves", "1", "--json"],
     "b31b791766297a79c83ccb8348747d6564aaa28cbc99d63b2e6c7dde26f3c8aa"),
])
def test_verify_bytes_of_the_whole_coloring_walk(capsys, argv, digest):
    # digests of the output when verify partitioned the unit_kernel walk's words
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_prime_classes_run_no_reference_elimination(monkeypatch):
    logs = counting(monkeypatch, SmithDecomposition, "col_ops")
    pr = profile(KNOT_9_40)
    for kind in (AUT, INN):
        for p in (3, 5, 7):
            prime_classes(pr, kind, p)
    assert logs == []
    assert "c" not in vars(pr.smith)


def test_generators_run_no_reference_elimination(monkeypatch):
    logs = counting(monkeypatch, SmithDecomposition, "col_ops")
    pr = profile(KNOT_9_40)
    for p in (3, 5, 7):
        free = sorted(generating_arcs(pr, p))
        extend_coloring(pr, p, dict.fromkeys(free, 1))
        extend_coloring(KNOT_9_40, p, dict.fromkeys(free, 1))
    assert generating_arcs(KNOT_9_40, 3) == generating_arcs(pr, 3)
    assert logs == []
    assert "c" not in vars(pr.smith)


def test_extending_through_a_profile_runs_one_smith_form(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return smith_normal_form(m)

    monkeypatch.setattr(col, "smith_normal_form", counted)
    pr = profile(KNOT_9_40)
    free = sorted(generating_arcs(pr, 3))
    extended = {extend_coloring(pr, 3, dict(zip(free, values)))
                for values in product(range(3), repeat=len(free))}
    assert len(calls) == 1
    assert len(extended) == 3 ** len(free) == pr.count(3)
    assert all(c.satisfies(KNOT_9_40) for c in extended)
