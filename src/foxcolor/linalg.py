"""Exact integer matrices, Smith normal form with a unimodular column
transform, and kernels over Z/mZ.

Everything here uses Python's arbitrary-precision integers; intermediate
entries during diagonalization routinely leave machine range.

Two eliminations serve the Smith form, both on sparse storage: rows are
{col: value} dicts and a per-column set of nonzero rows finds the rows
an operation touches.

The unit-pivot elimination gives the invariant factors.  Pass after
pass, a row that holds a +-1 entry pivots on it, in the column with the
fewest nonzeros, clears that column from the other rows and leaves the
matrix with one invariant factor 1.  A pass takes only the shortest
rows, in index order, and the bound on their length rises only when a
pass pivots on none (Markowitz's rule of sparsest pivots first), so
fill-in grows few rows.  Coloring matrices have three nonzeros per row
and almost all invariant factors 1, so what is left without a unit is a
small block, which the reference elimination diagonalizes.  Invariant
factors, determinants, nullities, counts and both kernels never run more.

The reference elimination picks the nonzero of smallest absolute value,
ties by lowest (row, col), and logs its column operations; _columns
reads a log back as the columns of its transform that a caller walks.
Its pivot rule and output, factors and transform c entry for entry, are
those of dense elimination, which tests/test_snf_differential.py keeps
as the reference.  On the whole matrix it serves only the order in which
solve_mod lists the kernel, which enumerate prints: it runs when its log
is first needed, and its factors are then checked against the unit-pivot
ones.  The oracles the tests hold this module to, the minor-gcd factors
and dense determinants and products, live in tests/smith_oracle.py.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, prod
from operator import itemgetter, mul


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix, entries stored row-major.

    A matrix built by from_nonzeros holds only its rows' nonzeros and
    builds the dense entries on first read; equality and hashing read
    them, so they follow (rows, cols, entries) either way.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntegerMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        r = len(data)
        c = len(data[0]) if r else (0 if cols is None else cols)
        return cls(r, c, data)

    @classmethod
    def from_nonzeros(cls, cols: int, nonzeros) -> "IntegerMatrix":
        """The matrix whose rows hold these (column, value) pairs, in column
        order; its dense entries are built on first read."""
        m = object.__new__(cls)
        vars(m).update(rows=len(nonzeros), cols=cols, nonzeros=tuple(nonzeros))
        return m

    def __getattr__(self, name):
        # the fallback of attribute lookup: builds the entries from_nonzeros left out
        if name != "entries" or "nonzeros" not in vars(self):
            raise AttributeError(f"'IntegerMatrix' object has no attribute {name!r}")
        entries = vars(self)["entries"] = tuple(_dense(dict(row), self.cols)
                                                for row in self.nonzeros)
        return entries

    @cached_property
    def nonzeros(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each row's nonzero entries as (column, value) pairs in column order.

        Built on first read unless the matrix came from from_nonzeros; no
        part of equality or hashing.
        """
        return tuple(tuple(itertools.compress(enumerate(row), row)) for row in self.entries)


@dataclass(frozen=True)
class SmithDecomposition:
    """The Smith normal form of a matrix: its invariant factors d_i, and on
    demand a unimodular c with matrix @ c = u @ s for some unimodular u,
    s the diagonal of the d_i; so column i of matrix @ c is a multiple of
    d_i, and zero where d_i is 0 or past the factors.

    The matrix is kept as its shape and its rows' nonzeros (see
    IntegerMatrix.nonzeros); equality and hashing follow those alone.
    The invariant factors come from the unit-pivot elimination, and its
    record stays here for the kernels it gives: pivots lists (column, row) in
    pivot order, each row a {col: value} dict as it stood when it
    pivoted, and block_ops logs the column operations on the block left
    without a unit, its columns renumbered in order.  col_ops, the whole
    matrix's log, and c are built on first read and cached; col_ops
    raises RuntimeError if the reference elimination's factors differ.
    """

    shape: tuple[int, int]
    nonzeros: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)
    invariant_factors: tuple[int, ...] = field(compare=False)
    pivots: tuple[tuple[int, dict[int, int]], ...] = field(compare=False, repr=False)
    block_ops: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @cached_property
    def col_ops(self) -> tuple[tuple[int, ...], ...]:
        w = _Worker(self.nonzeros, self.shape[1])
        factors = _diagonalize(w)
        if factors != self.invariant_factors:
            raise RuntimeError(f"reference elimination gives invariant factors {factors}, "
                               f"unit pivots gave {self.invariant_factors}")
        return tuple(w.col_ops)

    @cached_property
    def c(self) -> IntegerMatrix:
        n = self.shape[1]
        return IntegerMatrix(n, n, _columns(self.col_ops, n, range(n)))

    def padded_factors(self) -> tuple[int, ...]:
        """Invariant factors extended with zeros to one entry per column.

        Columns beyond the diagonal carry no constraint, which is the same
        as a zero diagonal entry when solving s @ y = 0.
        """
        pad = self.shape[1] - len(self.invariant_factors)
        return self.invariant_factors + (0,) * pad


class _Worker:
    """Sparse elimination state.

    Rows of a are {col: value} dicts holding nonzeros only, copied from
    the rows of an nc-column matrix given as dicts or (col, value) pairs;
    cols[j] is the set of rows with a nonzero in column j.  Each operation
    is applied to a, and each column operation is appended to col_ops as
    (i, j) for a swap or (i, j, q) for col_i -= q * col_j.
    """

    def __init__(self, rows, nc: int):
        self.nr = len(rows)
        self.nc = nc
        self.a = [dict(row) for row in rows]
        self.cols = [set() for _ in range(self.nc)]
        for i, row in enumerate(self.a):
            for j in row:
                self.cols[j].add(i)
        self.col_ops = []

    def row_swap(self, i, j):
        ai, aj = self.a[i], self.a[j]
        for k in ai:
            self.cols[k].discard(i)
        for k in aj:
            self.cols[k].discard(j)
        for k in ai:
            self.cols[k].add(j)
        for k in aj:
            self.cols[k].add(i)
        self.a[i], self.a[j] = aj, ai

    def col_swap(self, i, j):
        for r in self.cols[i] | self.cols[j]:
            row = self.a[r]
            vi, vj = row.pop(i, 0), row.pop(j, 0)
            if vj:
                row[i] = vj
            if vi:
                row[j] = vi
        self.cols[i], self.cols[j] = self.cols[j], self.cols[i]
        self.col_ops.append((i, j))

    def row_negate(self, i):
        self.a[i] = {k: -v for k, v in self.a[i].items()}

    def row_sub(self, i, j, q):
        """row_i -= q * row_j"""
        target = self.a[i]
        for k, v in self.a[j].items():
            self._store(target, i, k, target.get(k, 0) - q * v)

    def col_sub(self, i, j, q):
        """col_i -= q * col_j"""
        for r in self.cols[j]:
            row = self.a[r]
            self._store(row, r, i, row.get(i, 0) - q * row[j])
        self.col_ops.append((i, j, q))

    def row_add(self, i, j):
        """row_i += row_j"""
        self.row_sub(i, j, -1)

    def _store(self, row, i, k, x):
        """Set a[i][k] = x, where row is a[i], keeping cols in step."""
        if x:
            row[k] = x
            self.cols[k].add(i)
        elif k in row:
            del row[k]
            self.cols[k].discard(i)


def _columns(ops, n: int, cols) -> tuple[tuple[int, ...], ...]:
    """Columns cols of the n x n transform logged in ops (see _Worker), as
    its n rows cut to them.  Column f is the log applied in reverse to
    e_f: a swap (i, j) swaps v_i and v_j, and (i, j, q) does v_j -= q * v_i.
    Entry k of every column asked for is kept in one {position: value}
    dict, so an operation costs a step only where entry i is nonzero."""
    rows = [{} for _ in range(n)]
    for t, f in enumerate(cols):
        rows[f][t] = 1
    for op in reversed(ops):
        if len(op) == 3:
            i, j, q = op
            target = rows[j]
            for t, v in rows[i].items():
                target[t] = x = target.get(t, 0) - q * v
                if not x:
                    del target[t]
        else:
            i, j = op
            rows[i], rows[j] = rows[j], rows[i]
    return tuple(_dense(row, len(cols)) for row in rows)


def _dense(entries, n):
    row = [0] * n
    for k, v in entries.items():
        row[k] = v
    return tuple(row)


def _find_pivot(a, s):
    """Smallest nonzero absolute value in rows s.., ties by lowest (row, col).

    Rows from s on have entries only in columns s.., so this is the block
    [s:, s:]; the scan stops after the first row holding a unit.
    """
    best = None
    for i in range(s, len(a)):
        for j, v in a[i].items():
            key = (abs(v), i, j)
            if best is None or key < best:
                best = key
        if best is not None and best[0] == 1:
            break
    return None if best is None else best[1:]


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """The Smith normal form of m: invariant factors now, c on demand.

    The unit-pivot elimination (_unit_pivots) runs on the nonzeros of m,
    shortest rows first, and splits off one factor 1 per pivot; the
    reference elimination diagonalizes the block left in the other
    columns, and its factors come last.  The factors are non-negative and
    each divides the next; being canonical, they do not depend on the
    pivot order, which shows only in the pivot record and the block's
    log.  The reference elimination of the whole matrix waits for the
    first read of its log (see SmithDecomposition), so callers that read
    only the factors or unit kernels never pay for it.
    """
    pivots, rest = _unit_pivots(list(map(dict, m.nonzeros)), m.cols)
    done = {j for j, _ in pivots}
    index = {j: t for t, j in enumerate(j for j in range(m.cols) if j not in done)}
    block = _Worker([{index[j]: v for j, v in row.items()} for row in rest], len(index))
    factors = (1,) * len(pivots) + _diagonalize(block)
    return SmithDecomposition((m.rows, m.cols), m.nonzeros, factors, tuple(pivots),
                              tuple(block.col_ops))


def _unit_pivots(a, nc: int):
    """Eliminate on +-1 pivots until no row of a holds one.

    a holds the rows of an nc-column matrix as {col: value} dicts and is
    changed in place.  Each pass visits the rows left in index order and
    takes only those holding at most bound nonzeros at the visit; longer
    ones wait.  bound starts at the fewest nonzeros of any row, and when
    a pass pivots on none it rises to the next length among the rows
    waiting; once none waits, the rows left hold no unit.  A row holding
    a unit pivots on it, in the column with the fewest nonzeros (then the
    lowest), takes that column out of every other row by a row
    operation, and leaves the matrix; the columns it also holds then
    carry no constraint that column operations could not clear.  Short
    rows first keep the fill-in, and so the block left, small.  Returns
    the pivots as (column, row) in pivot order, each row as it stood when
    it pivoted, and the rows left, in index order.
    """
    cols = [set() for _ in range(nc)]
    for i, row in enumerate(a):
        for j in row:
            cols[j].add(i)
    pivots = []
    left = range(len(a))
    bound = min(map(len, a), default=0)
    while True:
        active, left = left, []
        for i in active:
            row = a[i]
            if len(row) > bound:
                left.append(i)
                continue
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
                u = row.pop(j)  # back once the other rows are cleared
                for r in hit:
                    target = a[r]
                    q = target.pop(j) * u  # row_r -= q * row_i clears column j, as u * u = 1
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
            longer = [n for n in map(len, map(a.__getitem__, left)) if n > bound]
            if not longer:
                return pivots, [a[i] for i in left]
            bound = min(longer)


def _diagonalize(w: _Worker) -> tuple[int, ...]:
    """The reference elimination: diagonalize w's matrix and return its diagonal.

    Pivots are chosen by smallest nonzero absolute value with (row, col)
    tie-breaking, the same pivots as dense elimination under this rule,
    and every column operation is logged in w.  Diagonal entries come out
    non-negative and each divides the next; a unit pivot skips the
    divisibility check.
    """
    lim = min(w.nr, w.nc)
    s = 0
    while s < lim:
        piv = _find_pivot(w.a, s)
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
            _eliminate(w, s)
            bad = _nondivisible(w, s)
            if bad is None:
                break
            w.row_add(s, bad)  # drags the offending row into row s; redo elimination
        s += 1
    return tuple(w.a[i].get(i, 0) for i in range(lim))


def _eliminate(w: _Worker, s: int):
    """Clear row s and column s beyond the pivot, keeping the pivot positive.

    Rows above s hold only their diagonal entry, so column s has entries in
    rows s.. only and row s in columns s.. only.
    """
    a = w.a
    while True:
        # clear the column; floor division leaves remainders in [0, pivot)
        p = a[s][s]
        for i in [i for i in w.cols[s] if i != s]:
            q = a[i][s] // p
            if q:
                w.row_sub(i, s, q)
        resid = [i for i in w.cols[s] if i != s]
        if resid:
            i = min(resid, key=lambda t: (a[t][s], t))
            w.row_swap(s, i)  # strictly smaller pivot; loop again
            continue
        for j in [j for j in a[s] if j != s]:
            q = a[s][j] // p
            if q:
                w.col_sub(j, s, q)
        resid = [j for j in a[s] if j != s]
        if resid:
            j = min(resid, key=lambda t: (a[s][t], t))
            w.col_swap(s, j)
            continue
        return


def _nondivisible(w: _Worker, s: int):
    """Row index of some entry in the trailing block not divisible by the pivot.

    Every integer is divisible by a unit pivot, so that case scans nothing.
    """
    p = w.a[s][s]
    if p == 1:
        return None
    for i in range(s + 1, w.nr):
        if any(v % p for v in w.a[i].values()):
            return i
    return None


@dataclass(frozen=True)
class ModularKernel:
    """Solutions of m @ x = 0 over Z/modZ as x = transform @ y (mod modulus),
    each y_i running over the multiples of steps[i], sizes[i] values.

    solve_mod, block_kernel and unit_kernel list only the coordinates of
    size > 1, in column order: a factor d gives gcd(d, mod) values of step
    mod // gcd(d, mod), column positions past the diagonal acting as zero
    factors.  The transform is the matching columns of c (solve_mod), of
    the block's transform, one row per column no pivot took (block_kernel),
    or of that carried through the pivot rows (unit_kernel).
    """

    modulus: int
    steps: tuple[int, ...]
    sizes: tuple[int, ...]
    transform: IntegerMatrix

    def count(self) -> int:
        return prod(self.sizes)

    def vectors(self, words: bool = False):
        """An iterator over the solution vectors x in lexicographic order of the
        free vector y; each an int tuple, or with words each a word.

        The order is that of itertools.product over the ranges
        range(0, modulus, steps[j]), one per coordinate j: coordinates
        of size 1 stay at y_j = 0, the others turn like an odometer, the
        last one fastest.  Value t of coordinate j shifts x by t * steps[j]
        times column j of the transform, mod m.

        A block of vectors is one int of lanes, one entry per lane, the
        first entry lowest.  A lane is nb bytes, the narrowest of 1, 2, 4,
        8, 16, ... with 2m <= 2^w, w = 8 * nb, so two entries add without a
        carry out of their lane.  Adding S, one vector repeated once per
        vector of block X, mod m is then six big-int operations in C:
        s = X + S; s -= (((s + ONES * (2^(w-1) - m)) >> (w-1)) & ONES) * m,
        with a 1 in every lane of ONES: bit w-1 of a lane of
        s + 2^(w-1) - m is set exactly when that lane of s is at least m.

        The free coordinates after the first are folded, innermost first,
        into one block: the next block is the current one shifted by
        column j * steps[j] 0, 1, ..., sizes[j] - 1 times, laid end to
        end.  The first free coordinate shifts the block the same way, and
        int.to_bytes with struct.iter_unpack cuts each shifted block into
        tuples; above m = 2^63 the lanes are wider than 8 bytes and
        int.from_bytes reads each one.

        A word, what orbit_partition reads, is up to m = 256 the bytes of
        the entries: 1-byte lanes (m <= 128) are cut as they stand, 2-byte
        lanes keep their low bytes, block[0::2], first.  Above, the tuple.

        The fold runs on the call.  The walk is lazy at the first free
        coordinate only: it holds one block, count() / sizes[first] vectors
        at nb bytes per entry, and a caller that stops early (prime_classes'
        islice) pays for the blocks it reached.  Each step runs over a whole
        block, only the packing of one shift per free coordinate runs once
        per entry of a vector, and the blocks' tuples are chained in C, with
        no frame resumed per vector.  A 0-row transform gives count() empty
        tuples, or empty words.
        """
        m = self.modulus
        rows = self.transform.entries
        n = len(rows)
        words = words and m <= 256
        if not n:
            return itertools.repeat(b"" if words else (), self.count())
        nb = 1
        while 2 * m > 1 << 8 * nb:
            nb *= 2
        top = 8 * nb - 1
        width = n * nb  # bytes per vector

        def turn(block, size, shift):
            """block, then block + t * shift for t = 1 .. size - 1, lane by lane
            mod m; shift is one vector, added to every vector of block."""
            reps = len(block) // width
            step = int.from_bytes(shift * reps, "little")
            ones = int.from_bytes((1).to_bytes(nb, "little") * (reps * n), "little")
            low = ones * ((1 << top) - m)
            x = int.from_bytes(block, "little")
            yield block
            for _ in range(size - 1):
                x += step
                x -= (((x + low) >> top) & ones) * m
                yield x.to_bytes(len(block), "little")

        # per free coordinate j: its size, and steps[j] * column j, the shift of one step
        free = [(size, b"".join([(step * c % m).to_bytes(nb, "little") for c in column]))
                for column, step, size in zip(zip(*rows), self.steps, self.sizes) if size > 1]
        lead = free.pop(0) if free else (1, bytes(width))
        block = bytes(width)
        for size, shift in reversed(free):
            block = b"".join(turn(block, size, shift))
        blocks = turn(block, *lead)
        if words:
            if nb == 2:
                blocks = map(itemgetter(slice(0, None, 2)), blocks)
            cut = struct.Struct(f"{n}s").iter_unpack  # one 1-tuple per word
            return itertools.chain.from_iterable(itertools.chain.from_iterable(map(cut, blocks)))
        if nb <= 8:
            unpack = struct.Struct(f"<{n}{'BHIQ'[nb.bit_length() - 1]}").iter_unpack
        else:
            def unpack(data):
                cuts = range(0, len(data) + 1, nb)
                entries = map(int.from_bytes, map(data.__getitem__, map(slice, cuts, cuts[1:])),
                              itertools.repeat("little"))
                return zip(*[entries] * n)
        return itertools.chain.from_iterable(map(unpack, blocks))


def solve_mod(sd: SmithDecomposition, modulus: int) -> ModularKernel:
    """Describe the kernel of the decomposed matrix over Z/modulusZ; of c it
    builds, from the whole matrix's log, only the columns it walks."""
    steps, sizes, free = _free(sd.padded_factors(), modulus)
    n = sd.shape[1]
    return ModularKernel(modulus, steps, sizes,
                         IntegerMatrix(n, len(free), _columns(sd.col_ops, n, free)))


def block_kernel(sd: SmithDecomposition, modulus: int) -> ModularKernel:
    """The kernel over Z/modulusZ on the columns no unit pivot took, ascending:
    the columns of the block's transform (block_ops) that solve_mod would
    take of c, reduced mod modulus, with no pivot row read.  unit_kernel
    lifts it to the whole kernel, one to one."""
    width = sd.shape[1] - len(sd.pivots)
    steps, sizes, free = _free(sd.padded_factors()[len(sd.pivots):], modulus)
    rows = tuple(tuple(v % modulus for v in row) for row in _columns(sd.block_ops, width, free))
    return ModularKernel(modulus, steps, sizes, IntegerMatrix(width, len(free), rows))


def unit_kernel(sd: SmithDecomposition, modulus: int) -> ModularKernel:
    """The kernel of the decomposed matrix over Z/modulusZ from the unit pivots.

    block_kernel gives the kept columns' entries; the pivot rows then set
    their columns in reverse pivot order: a row with unit u at column j
    makes x_j = -u * (row @ x), as x_j is still 0 and every other column
    of the row was set before it; u * u = 1 makes this exact mod any
    modulus.  Entries are reduced mod modulus.  No reference elimination
    of the whole matrix runs.
    """
    block = block_kernel(sd, modulus)
    nc = sd.shape[1]
    kept = sorted(set(range(nc)).difference(j for j, _ in sd.pivots))
    basis = []
    for column in zip(*block.transform.entries):
        x = [0] * nc
        for j, v in zip(kept, column):
            x[j] = v
        for j, row in reversed(sd.pivots):
            x[j] = -row[j] * sum(map(mul, row.values(), map(x.__getitem__, row))) % modulus
        basis.append(x)
    transform = IntegerMatrix(nc, len(basis), tuple(zip(*basis)) if basis else ((),) * nc)
    return ModularKernel(modulus, block.steps, block.sizes, transform)


def _free(factors, modulus: int):
    """Steps and sizes of the coordinates the factors d leave free mod
    modulus, those with gcd(d, modulus) > 1, and their positions."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    sizes = [gcd(d, modulus) for d in factors]
    free = [f for f, g in enumerate(sizes) if g > 1]
    return tuple(modulus // sizes[f] for f in free), tuple(sizes[f] for f in free), free


def _rref_mod_p(rows, p: int):
    """Reduced row echelon form over Z/pZ of rows of equal length; returns
    (pivot_cols, reduced_rows)."""
    rows = [[x % p for x in row] for row in rows]
    nc = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(nc):
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots, rows[:r]
