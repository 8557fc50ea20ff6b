"""random_variants against the per-move apply_move chain it replaced, and
every explicit move site against the handlers' earlier results.

The reference below is the earlier `random_variants`: every move goes
through `apply_move`, which builds a diagram per move, and every site is
drawn from faces traced afresh from the crossings.  The PdCode chain that
builds one diagram per variant must give the same codes, arcs and
relations, and `moves --random` the same bytes.  The move handlers, which
find an edge through the slot pairing, must give the same result or the
same error message at every site as the handlers that scanned crossings
for labels: one digest pins them all.
"""

import hashlib
import random

import pytest

from foxcolor.cli import main
from foxcolor.diagram import (MOVE_KINDS, R1_DELETE, R1_INSERT, R2_DELETE, R2_INSERT, R3,
                              MoveError, MoveSite, PdError, _faces, apply_move, apply_move_pd,
                              build_diagram, catalog, catalog_names, parse_pd, random_variants)

from slot_oracle import _mates
from test_diagram import R3_DEGENERATE, R3_READY, TRIANGLED, constructed_r3_sites
from test_setup_differential import SPLIT

KNOTS = {name: build_diagram(catalog(name)) for name in catalog_names()}
# sha256 of `moves 9_40 --random 40 --seed 7 --json` stdout before the
# moves were chained on PD codes
MOVES_9_40_SHA256 = "d72a29f78c516771981d3cbdbe1bf5786b6e203e66b20cdcfa443460825dea64"
# sha256 of the outcome of every site of `sites` on every code of
# `site_codes`, as computed by the handlers that scanned crossings for labels
EVERY_SITE_SHA256 = "a2b2fc9ee69166cebe6d8028f2e8eb6a834a8f6ca8b0d5251acb02748c1efa5a"


def reference_move_site(d, rng):
    edges = list(d.pd.edges())
    if len(edges) < 2:
        return MoveSite(R1_INSERT, (1,), over=rng.random() < 0.5)
    if rng.random() < 0.5:
        return MoveSite(R1_INSERT, (rng.choice(edges),), over=rng.random() < 0.5)
    quads = d.pd.crossings
    faces = [sorted({quads[s // 4][s % 4] for s in f}) for f in _faces(_mates(quads))]
    x, y = rng.sample(rng.choice([f for f in faces if len(f) > 1]), 2)
    return MoveSite(R2_INSERT, (x, y))


def reference_variants(d, count, moves_per_variant=3, seed=0):
    rng = random.Random(seed)
    variants = []
    for _ in range(count):
        cur = d
        for _ in range(moves_per_variant):
            cur = apply_move(cur, reference_move_site(cur, rng))
        variants.append(cur)
    return variants


@pytest.mark.parametrize("name", catalog_names())
def test_variants_match_apply_move_chain(name):
    d = KNOTS[name]
    for seed in range(40):
        for moves in (0, 1, 3, 7):
            got = random_variants(d, 2, moves, seed)
            want = reference_variants(d, 2, moves, seed)
            assert [(v.pd.crossings, v.arcs, v.crossing_relations) for v in got] == \
                [(v.pd.crossings, v.arcs, v.crossing_relations) for v in want], (seed, moves)


def test_moves_random_json_bytes(capsys):
    assert main(["moves", "9_40", "--random", "40", "--seed", "7", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == MOVES_9_40_SHA256


def site_codes():
    """The catalog, the R3 test codes, both codes of every R3 slide that a
    pushed triangle of a catalog knot offers, a split code and seeded
    variants, each once."""
    codes = [catalog(name) for name in catalog_names()]
    codes += [parse_pd(text) for text in R3_READY + R3_DEGENERATE]
    for name in TRIANGLED:
        pd = catalog(name)
        # the trefoil's pushed triangles offer a slide only once it is kinked
        slides = (constructed_r3_sites(pd)
                  or constructed_r3_sites(apply_move_pd(pd, MoveSite(R1_INSERT, (1,)))))
        codes += [code for pushed, _, slid in slides for code in (pushed, slid)]
    codes.append(SPLIT)
    # kinks and bigons to delete
    for seed, name in enumerate(("unknot", "3_1", "4_1", "5_2", "6_3", "7_1")):
        codes += [v.pd for v in random_variants(build_diagram(catalog(name)), 2, 4, seed)]
    return list(dict.fromkeys(codes))


def sites(pd):
    """Kinks of both chiralities, deletions and slides at every edge and at
    one label past each end, and R2 insertions on every ordered pair of
    edges.  The unknot's one edge is 1; its other labels have their own
    test."""
    n = pd.n_edges
    labels = range(0, n + 2) if n else (1,)
    yield from (MoveSite(R1_INSERT, (e,), over) for e in labels for over in (False, True))
    yield from (MoveSite(kind, (e,)) for kind in (R1_DELETE, R2_DELETE, R3) for e in labels)
    edges = pd.edges()
    yield from (MoveSite(R2_INSERT, (x, y)) for x in edges for y in edges)


def test_every_site_matches_the_earlier_handlers():
    digest = hashlib.sha256()
    applied = dict.fromkeys(MOVE_KINDS, 0)
    for pd in site_codes():
        for site in sites(pd):
            try:
                outcome = repr(apply_move_pd(pd, site).crossings)
                applied[site.kind] += 1
            except (MoveError, PdError) as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            digest.update(outcome.encode() + b"\n")
    assert min(applied.values()) >= 20, applied  # 28 kinks deleted, the fewest
    assert digest.hexdigest() == EVERY_SITE_SHA256
