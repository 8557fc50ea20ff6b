"""Seeded workload inputs: closures of braid words, written as PD codes.

Every input is the closure of a braid whose link type is known in
advance, so its invariants are known without running foxcolor.  Words
grow only by moves that keep the closure's link type: R2 pairs
s_i s_i^-1 at a random place, conjugation w -> g w g^-1, and Markov
stabilization onto a new strand.  Nothing here imports foxcolor, so a
change to the library cannot change the inputs.

A letter is a nonzero int: +i is s_i and -i is s_i^-1, crossing the
strands at positions i and i+1 (1-based).
"""

from __future__ import annotations

import random

# name: (strands, braid word, invariant factors of the coloring module
# other than 1 and the trailing 0).  The determinant is their product.
BRAIDS: dict[str, tuple[int, tuple[int, ...], tuple[int, ...]]] = {
    "3_1": (2, (1, 1, 1), (3,)),
    "4_1": (3, (1, -2, 1, -2), (5,)),
    "5_1": (2, (1,) * 5, (5,)),
    "5_2": (3, (1, 1, 1, 2, -1, 2), (7,)),
    "6_1": (4, (1, 1, 2, -1, -3, 2, -3), (9,)),
    "6_2": (3, (1, 1, 1, -2, 1, -2), (11,)),
    "6_3": (3, (1, 1, -2, 1, -2, -2), (13,)),
    "7_1": (2, (1,) * 7, (7,)),
    "9_40": (4, (1, -2, 3) * 3, (5, 15)),
}


def torus_sum(k: int, q: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """k copies of T(2,q) summed: the closure of s_1^q s_2^q ... s_k^q."""
    word = tuple(i for i in range(1, k + 1) for _ in range(q))
    return k + 1, word, (q,) * k


def grow(strands: int, word: tuple[int, ...], crossings: int,
         rng: random.Random) -> tuple[int, tuple[int, ...]]:
    """Apply seeded type-preserving moves until the word has `crossings` letters.

    Stabilization adds one letter, the other moves two, so the result has
    `crossings` or `crossings + 1` letters.
    """
    word = list(word)
    while len(word) < crossings:
        move = rng.random()
        if move < 0.1:
            word.append(rng.choice((strands, -strands)))
            strands += 1
            continue
        g = rng.randint(1, strands - 1) * rng.choice((1, -1))
        if move < 0.55:
            at = rng.randint(0, len(word))
            word[at:at] = [g, -g]
        else:
            word = [g] + word + [-g]
    return strands, tuple(word)


def closure_pd(strands: int, word: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
    """PD code of the braid closure, in foxcolor's convention.

    Each quadruple is read counterclockwise from the incoming under-edge,
    with the over-strand in positions 2 and 4; the braid runs upward.
    Edge labels come out as 1..E.
    """
    cur = list(range(1, strands + 1))
    touched = set()
    nxt = strands + 1
    quads = []
    for letter in word:
        i = abs(letter) - 1
        a, b = cur[i], cur[i + 1]
        left, right = nxt, nxt + 1
        nxt += 2
        if letter > 0:  # left strand over: under b -> left, over a -> right
            quads.append((b, right, left, a))
        else:  # right strand over: under a -> right, over b -> left
            quads.append((a, b, right, left))
        cur[i], cur[i + 1] = left, right
        touched.update((i, i + 1))
    if len(touched) != strands:
        raise ValueError("every strand must cross another, or the closure has a free circle")
    closing = {cur[p]: p + 1 for p in range(strands)}
    quads = [tuple(closing.get(e, e) for e in q) for q in quads]
    labels = sorted({e for q in quads for e in q})
    relabel = {old: new for new, old in enumerate(labels, start=1)}
    return [tuple(relabel[e] for e in q) for q in quads]


def pd_text(quads) -> str:
    return "[" + ",".join("[" + ",".join(map(str, q)) + "]" for q in quads) + "]"


def arcs_and_relations(quads):
    """Arcs (edge classes joined along over-strands, ordered by smallest
    edge) and per-crossing (under-in, under-out, over) arc indices."""
    parent = {e: e for q in quads for e in q}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for _, b, _, d in quads:
        rb, rd = find(b), find(d)
        if rb != rd:
            parent[max(rb, rd)] = min(rb, rd)
    roots = sorted({find(e) for e in parent})
    index = {root: i for i, root in enumerate(roots)}
    arc = {e: index[find(e)] for e in parent}
    return len(roots), [(arc[a], arc[c], arc[b]) for a, b, c, _ in quads]


def determinant(quads) -> int:
    """|det| of the coloring matrix with its last row and column deleted
    (the knot determinant), by exact fraction-free elimination."""
    n, rels = arcs_and_relations(quads)
    rows = []
    for i, k, j in rels[:-1]:
        row = [0] * n
        row[i] += 1
        row[k] += 1
        row[j] -= 2
        rows.append(row[:-1])
    size = len(rows)
    if size == 0:
        return 1
    if any(len(r) != size for r in rows):
        raise ValueError("determinant needs as many arcs as crossings")
    sign, prev = 1, 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return abs(sign * rows[-1][-1])
