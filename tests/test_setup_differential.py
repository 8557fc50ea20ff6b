"""Differential tests: the matrix set-up path against the bodies it replaced.

The references below are the earlier code of parse_pd (relabel by a
generator expression over every quadruple), build_diagram (a union-find
with a nested find), _renumber (dicts, and a set and a sort per label)
and coloring_matrix (a dense row per crossing).  On the catalog, seeded
variants, braid closures of up to 2 000 crossings from the benchmark's
generator, and codes labelled from 0 or from negative numbers, the new
code must give the same codes, arcs, relations, canonical labels and
matrices, and parse_pd the same error messages.  The slot pairing that
_renumber hands to the moved code's check must be _mates of the result,
on every move kind; the faces and component count a move updates or
carries over must equal a full trace of the result, which must be planar.
"""

import json
import random
import sys
from collections import deque
from itertools import permutations
from pathlib import Path

import pytest

from foxcolor.coloring import coloring_matrix
from foxcolor.diagram import (_MOVE_HANDLERS, MOVE_KINDS, R1_DELETE, R1_INSERT, R2_DELETE,
                              R2_INSERT, R3, MoveError, MoveSite, PdCode, PdError, PlanarDiagram,
                              _components, _faces, _genus, _is_label, _label_counts,
                              _renumber, apply_move_pd,
                              build_diagram, catalog, catalog_names, parse_pd,
                              random_move_site_pd, random_variants)
from foxcolor.linalg import IntegerMatrix

from slot_oracle import _mates
from test_diagram import constructed_r3_sites
from test_parse_fuzz import fuzz_inputs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402  (the benchmark's input generator imports nothing from foxcolor)


def reference_parse(text: str) -> PdCode:
    stripped = text.strip()
    if stripped == "unknot":
        return PdCode(())
    try:
        raw = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise PdError(f"malformed PD code: {exc}") from None
    except RecursionError:
        raise PdError("malformed PD code: lists nested too deeply") from None
    if not isinstance(raw, list) or not raw:
        raise PdError("PD code must be a non-empty list of quadruples (or the token 'unknot')")
    quads = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 4 or not all(map(_is_label, item)):
            raise PdError(f"crossing {item!r} is not a quadruple of integers")
        quads.append(tuple(item))
    labels = sorted(_label_counts(e for q in quads for e in q))
    relabel = {old: new for new, old in enumerate(labels, start=1)}
    return PdCode(tuple(tuple(relabel[e] for e in q) for q in quads))


def reference_build(pd: PdCode) -> PlanarDiagram:
    if not pd.crossings:
        return PlanarDiagram(pd, (frozenset(),), ())
    parent = {e: e for e in pd.edges()}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, b, _, d in pd.crossings:
        rb, rd = find(b), find(d)
        if rb != rd:
            parent[max(rb, rd)] = min(rb, rd)
    classes: dict[int, set[int]] = {}
    for e in pd.edges():
        classes.setdefault(find(e), set()).add(e)
    arcs = tuple(frozenset(classes[root]) for root in sorted(classes))
    index = {e: i for i, arc in enumerate(arcs) for e in arc}
    relations = tuple((index[a], index[c], index[b]) for a, b, c, d in pd.crossings)
    return PlanarDiagram(pd, arcs, relations)


def reference_renumber(quads):
    if not quads:
        return ()
    labels = sorted({e for q in quads for e in q})
    incident: dict[int, list[int]] = {e: [] for e in labels}
    for ci, q in enumerate(quads):
        for e in set(q):
            incident[e].append(ci)
    mapping: dict[int, int] = {}
    queue: deque[int] = deque()
    for start in labels:
        if start in mapping:
            continue
        mapping[start] = len(mapping) + 1
        queue.append(start)
        while queue:
            cur = queue.popleft()
            neighbors = sorted({e for ci in incident[cur] for e in quads[ci]})
            for e in neighbors:
                if e not in mapping:
                    mapping[e] = len(mapping) + 1
                    queue.append(e)
    return tuple(tuple(mapping[e] for e in q) for q in quads)


def reference_rows(d: PlanarDiagram) -> list[tuple[int, ...]]:
    rows = []
    for i, k, j in d.crossing_relations:
        row = [0] * d.n_arcs
        row[i] += 1
        row[k] += 1
        row[j] -= 2
        rows.append(tuple(row))
    return rows


def closure_text(name: str, crossings: int, seed: int) -> str:
    strands, word = gen.grow(*gen.BRAIDS[name][:2], crossings, random.Random(seed))
    return gen.pd_text(gen.closure_pd(strands, word))


def shifted(text: str, by: int) -> str:
    return json.dumps([[e + by for e in q] for q in json.loads(text)])


CODES = {name: str(catalog(name)) for name in catalog_names()}
for _name in ("3_1", "4_1", "6_2", "9_40"):
    for _i, _v in enumerate(random_variants(build_diagram(catalog(_name)), 3, 6, seed=1301)):
        CODES[f"{_name}~{_i}"] = str(_v.pd)
for _name, _n in (("9_40", 80), ("7_1", 400), ("6_3", 900), ("7_1", 2000)):
    CODES[f"{_name}@{_n}"] = closure_text(_name, _n, 1302)
# a strand over six crossings in a row makes a long arc
for _word in ((1, 2, 3, 4, 5, 6), (-1, -2, -3, -4, -5, -6), (1, 2, 3, 4, 5, 6) * 2):
    CODES[str(_word)] = gen.pd_text(gen.closure_pd(7, _word))
TEXTS = dict(CODES)
for _name in ("3_1", "9_40", "7_1@400"):
    TEXTS[f"{_name} from 0"] = shifted(CODES[_name], -1)
    TEXTS[f"{_name} from -7"] = shifted(CODES[_name], -8)
    TEXTS[f"{_name} by 5"] = json.dumps([[5 * e for e in q] for q in json.loads(CODES[_name])])
for _name in ("9_40", "9_40@80", "6_3@900", str((1, 2, 3, 4, 5, 6) * 2)):
    # the crossings in another order merge an arc's edges in another order;
    # reversed, the last one builds union-find trees six deep
    _quads = json.loads(CODES[_name])
    TEXTS[f"{_name} reversed"] = json.dumps(_quads[::-1])
    random.Random(1305).shuffle(_quads)
    TEXTS[f"{_name} shuffled"] = json.dumps(_quads)
# sorted labels end at their count, yet are not 1..E
TEXTS["-1 for 1"] = "[[-1,4,2,5],[3,6,4,-1],[5,2,6,3]]"


def test_closures_reach_2000_crossings():
    assert max(parse_pd(t).n_crossings for t in CODES.values()) == 2000


@pytest.mark.parametrize("name", TEXTS)
def test_parse_and_build(name):
    pd = parse_pd(TEXTS[name])
    assert pd.crossings == reference_parse(TEXTS[name]).crossings
    assert all(type(q) is tuple for q in pd.crossings)
    d, ref = build_diagram(pd), reference_build(pd)
    assert d.arcs == ref.arcs and d.crossing_relations == ref.crossing_relations


def test_relabel_of_the_minus_one_code():
    assert parse_pd(TEXTS["-1 for 1"]) == parse_pd("[[1,4,2,5],[3,6,4,1],[5,2,6,3]]")


def test_parse_errors_match_reference():
    outcomes = set()
    for text in fuzz_inputs(seed=1303, count=1500):
        try:
            got = parse_pd(text).crossings
        except PdError as exc:
            got = str(exc)
        try:
            want = reference_parse(text).crossings
        except PdError as exc:
            want = str(exc)
        assert got == want, text
        outcomes.add(type(got))
    assert outcomes == {tuple, str}


@pytest.mark.parametrize("name", CODES)
def test_coloring_matrix_equals_the_dense_rows(name):
    d = build_diagram(parse_pd(CODES[name]))
    m = coloring_matrix(d)
    assert "entries" not in vars(m)
    dense = IntegerMatrix.from_rows(reference_rows(d), d.n_arcs)
    assert m.nonzeros == dense.nonzeros
    assert hash(m) == hash(dense) and m == dense  # hashing reads the dense rows
    assert m.entries == dense.entries and (m.rows, m.cols) == (dense.rows, dense.cols)


def test_kink_rows():
    # kinks make rows with coincident arcs; the unknot's kink a row of zeros
    codes = [PdCode(((2, 1, 1, 2),)), PdCode(((1, 2, 2, 1),))]
    for e in (1, 4):
        for over in (False, True):
            codes.append(apply_move_pd(catalog("3_1"), MoveSite(R1_INSERT, (e,), over)))
    coincident = set()
    for pd in codes:
        d = build_diagram(pd)
        dense = IntegerMatrix.from_rows(reference_rows(d), d.n_arcs)
        m = coloring_matrix(d)
        assert m.nonzeros == dense.nonzeros and m == dense, pd
        coincident.update(len(set(rel)) for rel in d.crossing_relations)
    assert coincident == {1, 2, 3}


def checked_move(pd: PdCode, site: MoveSite) -> PdCode:
    """apply_move_pd, its renumbering against the reference, the slot
    pairing, faces and component count it carried against _mates, _faces
    and _components of the result, and a full genus trace of the result."""
    raw = _MOVE_HANDLERS[site.kind](pd, site)
    crossings, mates = _renumber(raw)
    assert crossings == reference_renumber(raw)
    moved = apply_move_pd(pd, site)
    assert moved.crossings == crossings and moved.mates == mates
    fresh = _mates(crossings)
    assert mates == fresh and moved.faces == _faces(fresh)
    assert moved.components == _components(fresh)
    assert _genus(fresh, _faces(fresh)) == 0
    return moved


@pytest.mark.parametrize("name", CODES)
def test_renumber(name):
    quads = parse_pd(CODES[name]).crossings
    rng = random.Random(1304)
    labels = sorted({e for q in quads for e in q})
    image = rng.sample(range(-3 * len(labels), 3 * len(labels)), len(labels))
    scatter = dict(zip(labels, image))
    scattered = [tuple(map(scatter.get, q)) for q in quads]
    crossings, mates = _renumber(scattered)
    assert crossings == reference_renumber(scattered)
    assert mates == _mates(crossings) == _mates(scattered)
    # the codes the move handlers hand over, before renumbering
    if len(quads) <= 400:
        pd = PdCode(quads)
        for _ in range(6):
            pd = checked_move(pd, random_move_site_pd(pd, rng))


def every_site(pd: PdCode):
    """Sites of every kind: kinks of both chiralities on every edge (the
    unknot's too), R2 insertions on every ordered pair of a face's edges,
    and deletions and slides anchored at every edge."""
    edges = list(pd.edges()) or [1]
    yield from (MoveSite(R1_INSERT, (e,), over) for e in edges for over in (False, True))
    yield from (MoveSite(kind, (e,)) for kind in (R1_DELETE, R2_DELETE, R3) for e in edges)
    for face in pd.faces:
        labels = sorted({pd.crossings[s // 4][s % 4] for s in face})
        yield from (MoveSite(R2_INSERT, pair) for pair in permutations(labels, 2))


# two disjoint trefoils: a split code of two components
SPLIT = PdCode(((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3),
                (7, 10, 8, 11), (9, 12, 10, 7), (11, 8, 12, 9)))


def test_every_move_kind_carries_its_mates():
    codes = [PdCode(()), *(catalog(name) for name in ("3_1", "4_1", "6_2"))]
    kinked = apply_move_pd(PdCode(()), MoveSite(R1_INSERT, (1,)))
    codes += [kinked, apply_move_pd(kinked, MoveSite(R1_INSERT, (2,), over=True))]
    codes += [v.pd for v in random_variants(build_diagram(catalog("5_2")), 2, 3, seed=1306)]
    codes += [pushed for pushed, _, _ in constructed_r3_sites(catalog("4_1"))[:2]]
    # the split code, kinked, and pushed at a triangle, so that insertions,
    # deletions and R3 all run with two components
    split_kinked = apply_move_pd(SPLIT, MoveSite(R1_INSERT, (1,)))
    codes += [SPLIT, split_kinked]
    codes += [pushed for pushed, _, _ in constructed_r3_sites(split_kinked)[:2]]
    applied = dict.fromkeys(MOVE_KINDS, 0)
    split_applied = set()
    for pd in codes:
        for site in every_site(pd):
            try:
                moved = checked_move(pd, site)
            except MoveError:
                continue
            applied[site.kind] += 1
            if not moved.crossings:
                applied["to the unknot"] = applied.get("to the unknot", 0) + 1
            if pd.components > 1:
                split_applied.add(site.kind)
    assert all(applied.values()) and len(applied) == len(MOVE_KINDS) + 1, applied
    assert SPLIT.components == 2 and split_applied == set(MOVE_KINDS)


def test_a_200_move_chain_of_9_40_carries_its_mates():
    pd, rng = catalog("9_40"), random.Random(1307)
    for _ in range(200):
        pd = checked_move(pd, random_move_site_pd(pd, rng))
    assert pd.n_crossings > 200


@pytest.mark.parametrize("raw", [
    # a kink whose loop edge joins opposite slots of its crossing
    [(1, 4, 2, 5), (3, 6, 4, 7), (5, 2, 6, 3), (1, 8, 7, 8)],
    # the first crossing of the trefoil rewired in place, as R3 rewrites
    [(1, 2, 4, 5), (3, 6, 4, 1), (5, 2, 6, 3)],
])
def test_a_slot_keeping_move_to_a_non_planar_code_raises(monkeypatch, raw):
    # the result keeps every slot of the trefoil, so its faces are updated and
    # its component count carried over; the genus check must still see genus 1
    monkeypatch.setitem(_MOVE_HANDLERS, R1_INSERT, lambda pd, site: list(raw))
    with pytest.raises(PdError, match="needs a surface of genus 1"):
        apply_move_pd(catalog("3_1"), MoveSite(R1_INSERT, (1,)))
    crossings, mates = _renumber(raw)
    assert _genus(mates, _faces(mates)) == 1


@pytest.mark.parametrize("raw", [
    [(1, 2, 3, 4), (1, 2, 3, 5)],  # 4 and 5 once
    [(1, 2, 3, 4), (1, 2, 3, 3)],  # 3 three times, 4 once
    [(1, 1, 1, 1)],  # twice two ends of label 1
])
def test_labels_that_do_not_pair_raise(monkeypatch, raw):
    monkeypatch.setitem(_MOVE_HANDLERS, R1_INSERT, lambda pd, site: list(raw))
    with pytest.raises(PdError, match="must occur exactly twice"):
        apply_move_pd(catalog("3_1"), MoveSite(R1_INSERT, (1,)))
