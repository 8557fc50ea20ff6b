"""random_variants against the per-move apply_move chain it replaced.

The reference below is the earlier `random_variants`: every move goes
through `apply_move`, which builds a diagram per move, and every site is
drawn from faces traced afresh from the crossings.  The PdCode chain that
builds one diagram per variant must give the same codes, arcs and
relations, and `moves --random` the same bytes.
"""

import hashlib
import random

import pytest

from foxcolor.cli import main
from foxcolor.diagram import (R1_INSERT, R2_INSERT, MoveSite, _faces, _mates, apply_move,
                              build_diagram, catalog, catalog_names, random_variants)

KNOTS = {name: build_diagram(catalog(name)) for name in catalog_names()}
# sha256 of `moves 9_40 --random 40 --seed 7 --json` stdout before the
# moves were chained on PD codes
MOVES_9_40_SHA256 = "d72a29f78c516771981d3cbdbe1bf5786b6e203e66b20cdcfa443460825dea64"


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
