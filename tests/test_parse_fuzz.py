"""Seeded fuzz of PD parsing through the command line.

Truncated, mutated and relabeled catalog codes go through
`analyze <text> --mod 3`.  Every one must end in exit 0 or exit 1 with a
message: no traceback, whatever the input.
"""

import json
import random

from foxcolor.cli import main
from foxcolor.diagram import catalog, catalog_names

CODES = [catalog(name).to_json_dict()["crossings"] for name in catalog_names() if name != "unknot"]
CASES = 2000
ODD_VALUES = (0, -1, 1.5, True, None, "1", [1], 10 ** 30)


def relabeled(quads, rng):
    labels = sorted({e for q in quads for e in q})
    image = rng.sample(range(1, 4 * len(labels)), len(labels))
    if rng.random() < 0.5:
        image.sort()  # gaps only, order kept
    new = dict(zip(labels, image))
    return [[new[e] for e in q] for q in quads]


def mutated(quads, rng):
    quads = [list(q) for q in quads]
    q = rng.randrange(len(quads))
    quad = quads[q]
    kind = rng.randrange(6)
    if kind == 0 and quad:
        quad[rng.randrange(len(quad))] = rng.randint(-2, 150)
    elif kind == 1 and len(quad) > 1:
        i, j = rng.sample(range(len(quad)), 2)
        quad[i], quad[j] = quad[j], quad[i]
    elif kind == 2:
        del quads[q]
    elif kind == 3:
        quads.insert(q, list(quad))
    elif kind == 4 and quad:
        quad[rng.randrange(len(quad))] = rng.choice(ODD_VALUES)
    else:
        quads[q] = quad[:rng.randrange(6)] + [1] * rng.randrange(2)
    return quads


def char_edit(text, rng):
    i = rng.randrange(len(text) + 1)
    edit = rng.randrange(3)
    if edit == 0:
        return text[:i] + text[i + 1:]
    if edit == 1:
        return text[:i] + rng.choice("[],-0123456789 .e\"x") + text[i:]
    return text[:i] + text[i:][::-1]


def fuzz_inputs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        quads = rng.choice(CODES)
        if rng.random() < 0.5:
            quads = relabeled(quads, rng)
        for _ in range(rng.randrange(3)):
            if quads:
                quads = mutated(quads, rng)
        text = json.dumps(quads)
        step = rng.randrange(3)
        if step == 0:
            text = text[:rng.randrange(len(text) + 1)]
        elif step == 1:
            text = char_edit(text, rng)
        yield text


def test_malformed_pd_never_escapes(capsys):
    codes = {0: 0, 1: 0}
    for text in fuzz_inputs(seed=7, count=CASES):
        code = main(["analyze", text, "--mod", "3"])
        out, err = capsys.readouterr()
        assert code in codes, (text, code)
        codes[code] += 1
        assert (err == "") == (code == 0), (text, err)
    # the mix reaches both sides of validation
    assert min(codes.values()) > CASES // 20, codes
