"""The package's eleven records as the frozen dataclasses they were declared as.

The reference for tests/test_record_parity.py: each declaration below is
copied verbatim, decorator, docstring, fields, __post_init__ and the
members that write instance state (cached properties, from_nonzeros,
IntegerMatrix.__getattr__), from the modules that now declare the
records as plain classes on foxcolor.record.Record.  Methods that only
read fields are left out; the helpers the declarations call are the
package's own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from foxcolor.diagram import (MOVE_KINDS, MoveError, PdError, _components, _faces, _genus,
                              _is_label, _sorted_slots)
from foxcolor.linalg import _Worker, _columns, _dense, _diagonalize


@dataclass(frozen=True)
class PdCode:
    """Validated PD code: a tuple of 4-tuples whose labels are 1..E, each
    used exactly twice.

    mates, the slot pairing of the labels, is set at construction; the
    faces and component count that the planarity check reads are cached
    properties.  All three are outside equality and hashing.
    """

    crossings: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        quads = self.crossings
        if not isinstance(quads, tuple):
            raise PdError(f"crossings {quads!r} are not a tuple of quadruples")
        labels = list(chain.from_iterable(quads)) if set(map(type, quads)) == {tuple} else []
        if not (labels and set(map(len, quads)) == {4} and set(map(type, labels)) == {int}
                and min(labels) >= 1):
            # crossing by crossing: names what is wrong, admits subclasses
            for q in quads:
                if not isinstance(q, tuple):
                    raise PdError(f"crossing {q!r} is not a tuple")
                if len(q) != 4:
                    raise PdError(f"crossing {q!r} is not a quadruple")
                for e in q:
                    if not _is_label(e) or e < 1:
                        raise PdError(f"edge label {e!r} is not a positive integer")
            labels = list(chain.from_iterable(quads))
        labels, mates = _sorted_slots(labels)
        if labels and labels[-1] != len(labels):  # E distinct labels >= 1 are 1..E iff max is E
            raise PdError("edge labels must form 1..E with no gaps")
        vars(self)["mates"] = mates
        self._check_planar()

    def _check_planar(self):
        genus = _genus(self.mates, self.faces, self.components)
        if genus:
            raise PdError(f"no planar diagram has this PD code: it needs a surface "
                          f"of genus {genus}")

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Faces of the diagram as slot cycles, as traced by _faces."""
        return _faces(self.mates)

    @cached_property
    def components(self) -> int:
        """Connected components of the crossing graph, as counted by _components."""
        return _components(self.mates)


@dataclass(frozen=True)
class PlanarDiagram:
    """A PD code with its arcs and per-crossing relations.

    arcs is the partition of edge labels into over-strand classes, ordered
    by smallest member; crossing_relations holds, per crossing, the triple
    of arc indices (under-arc in, under-arc out, over-arc).
    """

    pd: PdCode
    arcs: tuple[frozenset[int], ...]
    crossing_relations: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class MoveSite:
    """Where and how to apply a Reidemeister move.

    kind        one of R1_insert, R1_delete, R2_insert, R2_delete, R3
    edges       the edge labels the move anchors to:
                  R1_insert: (edge,), kink added on that edge
                  R1_delete: (loop_edge,)
                  R2_insert: (over_edge, under_edge), two edges of one face
                  R2_delete: (over_middle_edge,)
                  R3:        (middle_edge,)  -- the edge crossing two others on the same side
    over        for R1_insert, whether the strand passes over itself at the kink
    """

    kind: str
    edges: tuple[int, ...] = ()
    over: bool = False

    def __post_init__(self):
        if self.kind not in MOVE_KINDS:
            raise MoveError(f"unknown move kind {self.kind!r}")


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


@dataclass(frozen=True, order=True, slots=True)
class Coloring:
    """Assignment of residues mod `modulus` to arcs, indexed by arc column."""

    modulus: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class ColoringProfile:
    """Invariant factors of a diagram's coloring matrix and what they imply."""

    invariant_factors: tuple[int, ...]
    determinant: int
    smith: SmithDecomposition


@dataclass(frozen=True)
class GroupSpec:
    """The affine group x -> lam*x + mu of Z_m, or its inner subgroup, as
    the lists of its lam and of its mu; every pair is one element.  The mu
    are the translations M, range(0, m, step), step 2 for inn at even m
    and 1 otherwise.  For m <= 256 orbit_partition reads byte_tables, built
    on first read and cached; above, it reads the lists alone."""

    kind: str
    modulus: int
    lams: tuple[int, ...]
    mus: tuple[int, ...]

    @cached_property
    def byte_tables(self) -> tuple[tuple[bytes, ...], tuple[tuple[bytes, ...], ...]]:
        """For m <= 256, (shifts, scales) as bytes.translate tables, whose
        first m entries are the map: shifts[a] is x -> x - a + a % step in
        M, into the slice from arc 0 = a; scales[r] is x -> lam*(x - r) + r
        for each lam, which keeps the slice words with arc 0 = r.  Built in
        C on first use, and no part of equality or hashing."""
        m = self.modulus
        step = self.mus[1] - self.mus[0]
        cycle = bytes(range(m)) * 257  # entry i is i % m, up to i = m + 255 * (m - 1)
        shifts = tuple([cycle[s:s + 256] for u in self.mus for s in [-u % m] * step])
        return shifts, tuple([tuple([cycle[c:c + 256 * l:l] for l in self.lams
                                     for c in [(r - l * r) % m]]) for r in range(step)])


@dataclass(frozen=True)
class OrbitPartition:
    """The orbits as (representative values, size) pairs, sorted."""

    orbits: tuple[tuple[tuple[int, ...], int], ...]


@dataclass(frozen=True)
class VerifyReport:
    """Brute-force class counts compared against the closed forms, plus
    the same counts on move-derived variants of the diagram."""

    label: str
    p: int
    nullity: int
    aut_classes: int
    inn_classes: int
    predicted_aut: int
    predicted_inn: int
    aut_orbit_sizes: tuple[int, ...]
    inn_orbit_sizes: tuple[int, ...]
    invariant_across_moves: bool
    failures: tuple[str, ...]
