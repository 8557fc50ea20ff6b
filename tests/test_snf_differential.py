"""Differential test: the sparse Smith form against the dense elimination it
replaced.

Both follow the same pivot sequence, so c and the invariant factors must
agree exactly, not just up to unimodular equivalence.  The dense code
below is the reference and lives only here; it still carries the row
transform r, and each comparison first checks s = r @ m @ c on it.
"""

import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st
from smith_oracle import det, matmul

from foxcolor.coloring import coloring_matrix
from foxcolor.diagram import build_diagram, catalog, catalog_names, random_variants
from foxcolor.linalg import IntegerMatrix, smith_normal_form


class DenseSmith(NamedTuple):
    """What the dense reference computes: s = r @ m @ c and the diagonal of s."""

    s: IntegerMatrix
    r: IntegerMatrix
    c: IntegerMatrix
    invariant_factors: tuple[int, ...]


class _DenseWorker:
    """Mutable elimination state; rt and ct accumulate the row/column operations."""

    def __init__(self, m: IntegerMatrix):
        self.nr = m.rows
        self.nc = m.cols
        self.a = [list(row) for row in m.entries]
        self.rt = [[int(i == j) for j in range(self.nr)] for i in range(self.nr)]
        self.ct = [[int(i == j) for j in range(self.nc)] for i in range(self.nc)]

    def row_swap(self, i, j):
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.rt[i], self.rt[j] = self.rt[j], self.rt[i]

    def col_swap(self, i, j):
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        for row in self.ct:
            row[i], row[j] = row[j], row[i]

    def row_negate(self, i):
        self.a[i] = [-x for x in self.a[i]]
        self.rt[i] = [-x for x in self.rt[i]]

    def row_sub(self, i, j, q):
        """row_i -= q * row_j"""
        self.a[i] = [x - q * y for x, y in zip(self.a[i], self.a[j])]
        self.rt[i] = [x - q * y for x, y in zip(self.rt[i], self.rt[j])]

    def col_sub(self, i, j, q):
        """col_i -= q * col_j"""
        for row in self.a:
            row[i] -= q * row[j]
        for row in self.ct:
            row[i] -= q * row[j]

    def row_add(self, i, j):
        """row_i += row_j"""
        self.a[i] = [x + y for x, y in zip(self.a[i], self.a[j])]
        self.rt[i] = [x + y for x, y in zip(self.rt[i], self.rt[j])]


def _dense_find_pivot(a, s, nr, nc):
    """Smallest nonzero absolute value in the block [s:, s:], ties by lowest (row, col)."""
    best = None
    best_val = None
    for i in range(s, nr):
        row = a[i]
        for j in range(s, nc):
            v = abs(row[j])
            if v and (best_val is None or v < best_val):
                best, best_val = (i, j), v
                if v == 1:
                    return best
    return best


def dense_smith_normal_form(m: IntegerMatrix) -> DenseSmith:
    """The dense, cubic Smith normal form that smith_normal_form replaced."""
    w = _DenseWorker(m)
    nr, nc = w.nr, w.nc
    lim = min(nr, nc)
    s = 0
    while s < lim:
        piv = _dense_find_pivot(w.a, s, nr, nc)
        if piv is None:
            break
        i, j = piv
        if i != s:
            w.row_swap(s, i)
        if j != s:
            w.col_swap(s, j)
        if w.a[s][s] < 0:
            w.row_negate(s)
        while True:
            _dense_eliminate(w, s)
            bad = _dense_nondivisible(w, s)
            if bad is None:
                break
            w.row_add(s, bad)  # drags the offending row into row s; redo elimination
        s += 1
    smat = IntegerMatrix.from_rows([tuple(row) for row in w.a], cols=nc) if nr else IntegerMatrix(0, nc, ())
    rmat = IntegerMatrix.from_rows([tuple(row) for row in w.rt], cols=nr) if nr else IntegerMatrix(0, 0, ())
    cmat = IntegerMatrix.from_rows([tuple(row) for row in w.ct], cols=nc) if nc else IntegerMatrix(0, 0, ())
    factors = tuple(w.a[i][i] for i in range(lim))
    return DenseSmith(smat, rmat, cmat, factors)


def _dense_eliminate(w: _DenseWorker, s: int):
    """Clear row s and column s beyond the pivot, keeping the pivot positive."""
    while True:
        # clear the column; floor division leaves remainders in [0, pivot)
        for i in range(s + 1, w.nr):
            if w.a[i][s]:
                q = w.a[i][s] // w.a[s][s]
                if q:
                    w.row_sub(i, s, q)
        resid = [i for i in range(s + 1, w.nr) if w.a[i][s]]
        if resid:
            i = min(resid, key=lambda t: (w.a[t][s], t))
            w.row_swap(s, i)  # strictly smaller pivot; loop again
            continue
        for j in range(s + 1, w.nc):
            if w.a[s][j]:
                q = w.a[s][j] // w.a[s][s]
                if q:
                    w.col_sub(j, s, q)
        resid = [j for j in range(s + 1, w.nc) if w.a[s][j]]
        if resid:
            j = min(resid, key=lambda t: (w.a[s][t], t))
            w.col_swap(s, j)
            continue
        return


def _dense_nondivisible(w: _DenseWorker, s: int):
    """Row index of some entry in the trailing block not divisible by the pivot."""
    p = w.a[s][s]
    for i in range(s + 1, w.nr):
        row = w.a[i]
        for j in range(s + 1, w.nc):
            if row[j] % p:
                return i
    return None


def assert_same_decomposition(m: IntegerMatrix):
    want = dense_smith_normal_form(m)
    assert matmul(matmul(want.r, m), want.c) == want.s
    assert det(want.r) in (1, -1) and det(want.c) in (1, -1)
    assert all(x == 0 for i, row in enumerate(want.s.entries) for j, x in enumerate(row) if i != j)
    got = smith_normal_form(m)
    assert got.c == want.c
    assert got.invariant_factors == want.invariant_factors


def matrix(rows, cols=None):
    return IntegerMatrix.from_rows(rows, cols=cols)


EDGE_CASES = [
    IntegerMatrix(0, 0, ()),
    IntegerMatrix(0, 5, ()),
    IntegerMatrix(5, 0, ((),) * 5),
    matrix([[0, 0, 0], [0, 0, 0]]),
    matrix([[0, 2, 0], [0, 0, 0], [0, 4, 6]]),    # zero rows and columns
    matrix([[0, 0], [0, -7], [0, 0]]),
    matrix([[-1, -2], [-3, -4]]),                  # negative entries
    matrix([[-6, 0, 0], [0, -10, 0], [0, 0, -15]]),
    matrix([[1, 1, -2], [-2, 1, 1], [1, -2, 1]]),  # trefoil
]

# non-unit pivots whose trailing block is not divisible by the pivot,
# which forces the row_add fix-up
FIXUP_CASES = [
    matrix([[2, 0], [0, 3]]),
    matrix([[4, 0, 0], [0, 6, 0], [0, 0, 10]]),
    matrix([[6, 0, 0, 0], [0, 10, 0, 0], [0, 0, 15, 0], [0, 0, 0, 0]]),
    matrix([[2, 4, 0], [6, 9, 4], [0, 4, 3]]),
    matrix([[-3, 0, 6], [0, 4, 0], [9, 0, 5]]),
]


class TestAgainstDense:
    @pytest.mark.parametrize("m", EDGE_CASES, ids=lambda m: f"{m.rows}x{m.cols}")
    def test_edge_cases(self, m):
        assert_same_decomposition(m)

    @pytest.mark.parametrize("m", FIXUP_CASES, ids=lambda m: f"{m.rows}x{m.cols}")
    def test_fixup_cases(self, m, monkeypatch):
        fixups = []
        dense_row_add = _DenseWorker.row_add

        def counting_row_add(self, i, j):
            fixups.append((i, j))
            dense_row_add(self, i, j)

        monkeypatch.setattr(_DenseWorker, "row_add", counting_row_add)
        assert_same_decomposition(m)
        assert fixups, "case does not exercise the divisibility fix-up"

    def test_seeded_small_matrices(self):
        rng = random.Random(20010)
        values = (0, 0, 0, 0, 1, -1, 2, -2, 3, -4, 6, -9, 15)
        for rows in range(9):
            for cols in range(9):
                for _ in range(12):
                    m = IntegerMatrix(rows, cols, tuple(
                        tuple(rng.choice(values) for _ in range(cols)) for _ in range(rows)))
                    assert_same_decomposition(m)

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_variants(self, name):
        d = build_diagram(catalog(name))
        for variant in [d] + random_variants(d, 4, 8, seed=2001):
            assert_same_decomposition(coloring_matrix(variant))


@st.composite
def matrices(draw, max_dim=8):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return IntegerMatrix(r, c, tuple(map(tuple, rows)))


class TestAgainstDenseProperty:
    @settings(deadline=None)
    @given(matrices())
    def test_same_decomposition(self, m):
        assert_same_decomposition(m)
