"""Differential tests: the unit-pivot elimination against the slow paths it
replaces.

smith_normal_form takes its invariant factors from unit pivots and the
reference elimination of the block left without a unit; they must equal
the factors of the reference elimination of the whole matrix, and the
minor-gcd oracle's up to 6x6.  The unit pivots go shortest rows first;
reference_unit_pivots keeps the index-order rule they replace, and the
two rules must give the same factors and the same F_p kernels, with no
+-1 entry left in the rows they leave either way.  unit_kernel spans the
F_p kernel from the same pivots; its walk must list exactly the colorings
that the walk over the reference transform c lists, that the exhaustive
search finds, and, on random small matrices, that a search over all of
F_p^n finds.  generating_arcs and extend_coloring read the same F_p
kernel; they must
give the generating sets and colorings of the dense reduction of the
whole coloring matrix mod p that they replace.
"""

import itertools
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from coloring_oracle import brute_force_colorings
from hypothesis import given, settings, strategies as st
from smith_oracle import minor_gcd_factors, smith_check

import foxcolor.linalg as linalg
from foxcolor.coloring import (Coloring, coloring_matrix, extend_coloring, generating_arcs,
                               profile)
from foxcolor.diagram import build_diagram, catalog, catalog_names, parse_pd, random_variants
from foxcolor.linalg import IntegerMatrix, smith_normal_form, unit_kernel

from test_oracle_differential import LINKS

PRIMES = (3, 5, 7, 11, 13)
BASE = {**{name: build_diagram(catalog(name)) for name in catalog_names()},
        **{name: build_diagram(parse_pd(code)) for name, (code, _, _) in LINKS.items()}}
DIAGRAMS = dict(BASE)
for _name, _d in BASE.items():
    for _i, _v in enumerate(random_variants(_d, 2, 8, seed=1201)):
        DIAGRAMS[f"{_name}~{_i}"] = _v
# variants grown to 193 and 568 crossings
for _name, _moves in (("7_1", 120), ("9_40", 380)):
    (DIAGRAMS[f"{_name}~{_moves}"],) = random_variants(BASE[_name], 1, _moves, seed=1202)
# what the dense reference below reduces in well under a second
DENSE = [name for name, d in DIAGRAMS.items() if d.n_arcs <= 200]


def reference_factors(m: IntegerMatrix) -> tuple[int, ...]:
    """The reference elimination of the whole matrix, as c runs it."""
    return linalg._diagonalize(linalg._Worker(m.nonzeros, m.cols))


def reference_unit_pivots(a, nc: int):
    """The index-order rule: every row in index order, pass after pass,
    until a pass pivots on none; the column rule, the arithmetic and the
    returned record are those of linalg._unit_pivots."""
    cols = [set() for _ in range(nc)]
    for i, row in enumerate(a):
        for j in row:
            cols[j].add(i)
    pivots = []
    left = range(len(a))
    while True:
        active, left = left, []
        for i in active:
            row = a[i]
            j = None
            for k, v in row.items():
                if v == 1 or v == -1:
                    if j is None or (len(cols[k]), k) < (len(cols[j]), j):
                        j = k
            if j is None:
                left.append(i)
                continue
            for k in row:
                cols[k].remove(i)
            hit = cols[j]
            if hit:
                u = row.pop(j)
                for r in hit:
                    target = a[r]
                    q = target.pop(j) * u
                    for k, v in row.items():
                        x = target.get(k)
                        if x is None:
                            target[k] = -q * v
                            cols[k].add(r)
                        elif x != q * v:
                            target[k] = x - q * v
                        else:
                            del target[k]
                            cols[k].remove(r)
                hit.clear()
                row[j] = u
            pivots.append((j, row))
        if len(left) == len(active):
            return pivots, [a[i] for i in left]


def reference_smith(m: IntegerMatrix):
    """smith_normal_form with the unit pivots taken in index order."""
    with mock.patch.object(linalg, "_unit_pivots", reference_unit_pivots):
        return smith_normal_form(m)


def left_rows(m: IntegerMatrix, rule=None):
    """The rows a unit-pivot rule (linalg._unit_pivots unless given) leaves
    without a unit, in index order."""
    return (rule or linalg._unit_pivots)(list(map(dict, m.nonzeros)), m.cols)[1]


def kernel_set(sd, p: int) -> set[tuple[int, ...]]:
    kernel = unit_kernel(sd, p)
    vectors = list(kernel.vectors())
    assert len(vectors) == len(set(vectors)) == kernel.count()  # the basis is independent
    return set(vectors)


@pytest.mark.parametrize("name", DIAGRAMS)
def test_factors_match_the_reference_elimination(name):
    m = coloring_matrix(DIAGRAMS[name])
    sd = smith_normal_form(m)
    assert sd.invariant_factors == reference_factors(m)
    assert "c" not in vars(sd)


@pytest.mark.parametrize("name", DIAGRAMS)
def test_filled_nonzeros_view(name):
    m = coloring_matrix(DIAGRAMS[name])
    bare = IntegerMatrix(m.rows, m.cols, m.entries)
    assert "nonzeros" in vars(m) and "nonzeros" not in vars(bare)
    assert m.nonzeros == bare.nonzeros  # column order either way
    assert m == bare and hash(m) == hash(bare)
    assert smith_normal_form(m) == smith_normal_form(bare)


def test_pivot_rule():
    # row 0 pivots in column 2, the one of its units with fewer nonzeros;
    # row 1 has no unit; row 2 pivots in column 0 and leaves row 1 with -4
    m = IntegerMatrix.from_rows([[1, 0, -1], [2, 2, 0], [1, 3, 0]])
    sd = smith_normal_form(m)
    assert sd.pivots == ((2, {0: 1, 2: -1}), (0, {0: 1, 1: 3}))
    assert left_rows(m) == [{1: -4}] and sd.invariant_factors == (1, 1, 4)
    # row 0 gains a unit only once row 1 has pivoted (the tie goes to column 0),
    # so it pivots in the second pass
    m = IntegerMatrix.from_rows([[2, 3, 0], [1, 1, 0], [0, 0, 5]])
    sd = smith_normal_form(m)
    assert sd.pivots == ((0, {0: 1, 1: 1}), (1, {1: 1}))
    assert left_rows(m) == [{2: 5}] and sd.invariant_factors == (1, 1, 5)
    # the bound starts at 1, row 1's length: the first pass pivots nothing,
    # and the bound rises to 2, row 2's; row 0 waits, as it holds 3
    # nonzeros, while row 2 pivots in column 1 and leaves row 0 with
    # {0: -5, 2: 1} and row 1 with {0: -12}; row 0 pivots in the third
    # pass, in column 2, and row 1 is left
    m = IntegerMatrix.from_rows([[1, 2, 1], [0, 4, 0], [3, 1, 0]])
    sd = smith_normal_form(m)
    assert sd.pivots == ((1, {0: 3, 1: 1}), (2, {0: -5, 2: 1}))
    assert left_rows(m) == [{0: -12}] and sd.invariant_factors == (1, 1, 12)
    # in index order row 0 pivots first, in column 2, where it is alone
    ref = reference_smith(m)
    assert ref.pivots == ((2, {0: 1, 1: 2, 2: 1}), (1, {0: 3, 1: 1}))
    assert left_rows(m, reference_unit_pivots) == left_rows(m)
    assert ref.invariant_factors == sd.invariant_factors


def assert_no_unit_left(m: IntegerMatrix):
    for rule in (None, reference_unit_pivots):
        assert not any(abs(v) == 1 for row in left_rows(m, rule) for v in row.values())


@pytest.mark.parametrize("name", DIAGRAMS)
def test_pivot_orders_agree(name):
    m = coloring_matrix(DIAGRAMS[name])
    sd, ref = smith_normal_form(m), reference_smith(m)
    assert sd.invariant_factors == ref.invariant_factors
    assert_no_unit_left(m)
    for p in PRIMES:
        assert kernel_set(sd, p) == kernel_set(ref, p), p


def test_grown_variants_reach_600_crossings():
    assert max(d.n_crossings for d in DIAGRAMS.values()) >= 550


@pytest.mark.parametrize("name", DIAGRAMS)
def test_prime_kernel_lists_the_colorings(name):
    d = DIAGRAMS[name]
    pr = profile(d)
    for p in PRIMES:
        got = kernel_set(smith_normal_form(coloring_matrix(d)), p)
        assert got == {c.values for c in pr.colorings(p)}, p
        assert got == set(map(tuple, pr.colorings(p, ordered=False).words)), p
        if p ** d.n_arcs <= 10 ** 6:
            assert got == {c.values for c in brute_force_colorings(d, p)}, p


@pytest.mark.parametrize("name", DIAGRAMS)
def test_prime_colorings_leave_c_unbuilt(name):
    pr = profile(DIAGRAMS[name])
    for p in PRIMES:
        walked = pr.colorings(p, nontrivial_only=True, ordered=False).words
        assert len(walked) == pr.count(p) - p
        assert all(not Coloring(p, tuple(w)).is_trivial for w in walked)
    assert "c" not in vars(pr.smith)


def reference_generators(d, p):
    """The dense path generating_arcs and extend_coloring replace: the
    reduced echelon form of the whole coloring matrix mod p, as
    (generating arcs, pivot columns, reduced rows); the generating arcs
    are the non-pivot columns."""
    rows = [[x % p for x in row] for row in coloring_matrix(d).entries]
    pivots = []
    for col in range(d.n_arcs):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [(a - row[col] * b) % p for a, b in zip(row, rows[r])]
        pivots.append(col)
    free = [c for c in range(d.n_arcs) if c not in pivots]
    return free, pivots, rows[:len(pivots)]


def reference_extend(reference, p, assignment):
    """Back-substitution through the reduced rows of reference_generators."""
    free, pivots, rows = reference
    values = [0] * (len(free) + len(pivots))
    for c in free:
        values[c] = assignment[c] % p
    for row, col in zip(rows, pivots):
        values[col] = -sum(row[c] * values[c] for c in free) % p
    return tuple(values)


@pytest.mark.parametrize("name", DENSE)
def test_generators_match_the_dense_reference(name):
    d = DIAGRAMS[name]
    rng = random.Random(1205)
    for p in PRIMES:
        reference = reference_generators(d, p)
        free = reference[0]
        assert generating_arcs(d, p) == frozenset(free), p
        if p ** len(free) <= 125:
            assignments = itertools.product(range(p), repeat=len(free))
        else:
            assignments = ([rng.randrange(-p, 2 * p) for _ in free] for _ in range(40))
        for values in assignments:
            assignment = dict(zip(free, values))
            got = extend_coloring(d, p, assignment)
            assert got.values == reference_extend(reference, p, assignment), (p, assignment)
            assert got.modulus == p and got.satisfies(d)
        with pytest.raises(ValueError, match=rf"generating arcs \[{', '.join(map(str, free))}\]$"):
            extend_coloring(d, p, dict.fromkeys(free[1:] + [d.n_arcs], 1))


def test_dense_reference_covers_kinks_and_nullity_3():
    kinked = [name for name in DENSE
              if any(len({*rel}) < 3 for rel in DIAGRAMS[name].crossing_relations)]
    assert len(kinked) >= 30 and "7_1~120" in kinked
    assert max(profile(DIAGRAMS[name]).nullity(5) for name in DENSE) == 3


def random_matrix(rng, rows, cols, values):
    return IntegerMatrix(rows, cols, tuple(tuple(rng.choice(values) for _ in range(cols))
                                           for _ in range(rows)))


def test_prime_kernel_against_all_of_fp_n():
    rng = random.Random(1203)
    values = (0, 0, 0, 1, -1, 2, -2, 3, 5, -6, 7, 10, 21)
    checked = 0
    for p in (2, 3, 5, 7):
        for _ in range(250):
            cols = rng.randint(0, 4 if p < 7 else 3)
            m = random_matrix(rng, rng.randint(0, 5), cols, values)
            every = {x for x in itertools.product(range(p), repeat=cols)
                     if all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in m.entries)}
            assert kernel_set(smith_normal_form(m), p) == every, (p, m)
            checked += 1
    assert checked == 1000


@st.composite
def matrices(draw, max_dim=8, max_entry=10 ** 6, units=True):
    """Integer matrices of any shape 0..max_dim, with zero rows and columns
    spliced in, and with or without +-1 entries."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    entry = st.integers(-max_entry, max_entry)
    if not units:
        entry = entry.filter(lambda v: abs(v) != 1)
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    zero_rows = draw(st.sets(st.integers(0, max(r - 1, 0)))) if r else set()
    zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0)))) if c else set()
    rows = [[0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
            for i, row in enumerate(rows)]
    return IntegerMatrix(r, c, tuple(map(tuple, rows)))


class TestFactorsProperty:
    @settings(deadline=None, max_examples=150)
    @given(matrices(max_entry=9))
    def test_small_entries(self, m):
        assert smith_normal_form(m).invariant_factors == reference_factors(m)

    @settings(deadline=None, max_examples=100)
    @given(matrices(max_dim=6))
    def test_large_entries(self, m):
        assert smith_normal_form(m).invariant_factors == reference_factors(m)

    @settings(deadline=None, max_examples=100)
    @given(matrices(max_dim=6, max_entry=30, units=False))
    def test_no_unit_entry(self, m):
        assert smith_normal_form(m).invariant_factors == reference_factors(m)

    @settings(deadline=None, max_examples=150)
    @given(matrices(max_dim=6, max_entry=12))
    def test_minor_oracle(self, m):
        assert smith_normal_form(m).invariant_factors == minor_gcd_factors(m)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (1, 0), (0, 1)])
    def test_empty_shapes(self, shape):
        rows, cols = shape
        m = IntegerMatrix(rows, cols, ((),) * rows)
        sd = smith_normal_form(m)
        assert sd.invariant_factors == reference_factors(m) == (0,) * 0
        assert smith_check(m, sd.c, sd.invariant_factors)
        assert unit_kernel(sd, 3).count() == 3 ** cols


class TestPivotOrdersProperty:
    @settings(deadline=None, max_examples=150)
    @given(matrices(max_dim=5, max_entry=9))
    def test_same_factors_and_kernels(self, m):
        sd, ref = smith_normal_form(m), reference_smith(m)
        assert sd.invariant_factors == ref.invariant_factors
        assert_no_unit_left(m)
        for p in (2, 3, 5):
            assert kernel_set(sd, p) == kernel_set(ref, p), p


def test_seeded_factorizations():
    rng = random.Random(1204)
    values = (0, 0, 0, 0, 1, -1, 2, -2, 3, -4, 6, -9, 15, 10 ** 6, -999_983)
    for _ in range(1500):
        m = random_matrix(rng, rng.randint(0, 9), rng.randint(0, 9), values)
        assert smith_normal_form(m).invariant_factors == reference_factors(m), m


MISMATCH = """
import foxcolor.linalg as linalg
unit_pivots = linalg._unit_pivots

def losing_last(a, nc):
    pivots, rest = unit_pivots(a, nc)
    return pivots[:-1], rest  # one factor goes missing

linalg._unit_pivots = losing_last
m = linalg.IntegerMatrix.from_rows([[1, 1, -2], [-2, 1, 1], [1, -2, 1]])
sd = linalg.smith_normal_form(m)
try:
    sd.c
except RuntimeError as exc:
    print("raised:", exc)
else:
    print("no error")
"""


def test_factor_mismatch_raises_on_first_read_of_c(monkeypatch):
    unit_pivots = linalg._unit_pivots

    def losing_last(a, nc):
        pivots, rest = unit_pivots(a, nc)
        return pivots[:-1], rest  # one factor goes missing

    monkeypatch.setattr(linalg, "_unit_pivots", losing_last)
    sd = smith_normal_form(IntegerMatrix.from_rows([[1, 1, -2], [-2, 1, 1], [1, -2, 1]]))
    assert sd.invariant_factors != (1, 3, 0)  # the trefoil's
    for _ in range(2):  # the check is not cached away after it fails
        with pytest.raises(RuntimeError, match=r"gives invariant factors \(1, 3, 0\)"):
            sd.c
    assert "c" not in vars(sd)


def test_factor_mismatch_raises_under_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-O", "-c", MISMATCH], capture_output=True,
                         text=True, env={"PYTHONPATH": src}, check=True).stdout
    assert out.startswith("raised: reference elimination gives invariant factors (1, 3, 0)")
