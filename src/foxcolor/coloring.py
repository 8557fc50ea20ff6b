"""Coloring matrices and m-colorings of a diagram.

Each crossing contributes the equation
    under_in + under_out - 2 * over = 0
on the arc variables.  Every diagram has a coloring matrix; the
crossing-free one is the 0x1 matrix of its single arc.  The Smith form of
that integer matrix yields the link determinant, the mod-p nullity, and
exact coloring counts for any modulus; kernel enumeration produces the
colorings themselves, as a Colorings sequence that holds the words of the
walk and builds a Coloring only for an item that is read.  The oracle
that shares no code with the Smith form, an exhaustive search over all
m^arcs assignments, lives in tests/coloring_oracle.py.

Coloring and ColoringProfile are immutable records (see the record
module); Coloring is slotted and ordered by (modulus, values).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from functools import total_ordering
from itertools import filterfalse, repeat
from math import gcd, prod
from operator import mul

from .diagram import PlanarDiagram
from .linalg import (IntegerMatrix, SmithDecomposition, _rref_mod_p, smith_normal_form,
                     solve_mod, unit_kernel)
from .record import Record

ENUMERATION_BUDGET = 10 ** 6

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


class EnumerationBudgetError(RuntimeError):
    """The requested enumeration exceeds the configured budget."""


@total_ordering
class Coloring(Record):
    """Assignment of residues mod `modulus` to arcs, indexed by arc column.

    Ordered as the tuple (modulus, values); slotted, so pickled through
    __reduce__, as unpickling a slotted record would set its slots by
    assignment."""

    __slots__ = ("modulus", "values")
    _compared = _shown = __slots__

    def __init__(self, modulus: int, values: tuple[int, ...]):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "values", values)

    def __reduce__(self):
        return Coloring, (self.modulus, self.values)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.modulus, self.values) < (other.modulus, other.values)
        return NotImplemented

    @property
    def is_trivial(self) -> bool:
        return len(set(self.values)) <= 1

    def satisfies(self, d: PlanarDiagram) -> bool:
        m = self.modulus
        v = self.values
        return all((v[i] + v[k] - 2 * v[j]) % m == 0 for i, k, j in d.crossing_relations)


class ColoringProfile(Record):
    """Invariant factors of a diagram's coloring matrix and what they imply."""

    _compared = _shown = ("invariant_factors", "determinant", "smith")

    def __init__(self, invariant_factors: tuple[int, ...], determinant: int,
                 smith: SmithDecomposition):
        object.__setattr__(self, "invariant_factors", invariant_factors)
        object.__setattr__(self, "determinant", determinant)
        object.__setattr__(self, "smith", smith)

    def nullity(self, p: int) -> int:
        return p_nullity(self.smith, p)

    def count(self, m: int) -> int:
        return count_colorings(self.smith, m)

    def colorings(self, m: int, nontrivial_only: bool = False,
                  budget: int = ENUMERATION_BUDGET, ordered: bool = True) -> Colorings:
        """All m-colorings as a Colorings sequence of the words of walk over
        solve_mod: lexicographic in the kernel coordinates of the Smith
        form, the elimination of the whole matrix running on the first
        call.  Unordered, over unit_kernel: the same colorings in another
        order, with no elimination."""
        return Colorings(m, self.walk(solve_mod if ordered else unit_kernel, m,
                                      nontrivial_only, budget))

    def walk(self, kernel, m: int, nontrivial_only: bool = False,
             budget: int = ENUMERATION_BUDGET) -> list:
        """The words of the walk of kernel(self.smith, m), a list: whole
        colorings (solve_mod, unit_kernel) or their colors on the arcs no
        unit pivot took (block_kernel; see the orbits module).  Every row
        of a coloring matrix sums to 0, so the m constants are colorings:
        with nontrivial_only, a count of m skips the walk, and otherwise
        the m constant words of the walk's width are dropped by set
        lookup.  The budget check comes first either way."""
        total = count_colorings(self.smith, m)
        if total > budget:
            raise EnumerationBudgetError(f"{total} colorings exceed budget {budget}")
        if nontrivial_only and total == m:
            return []
        ker = kernel(self.smith, m)
        vectors = ker.vectors(words=True)
        if nontrivial_only:
            n = ker.transform.rows
            word = bytes if m <= 256 else tuple
            vectors = filterfalse({word((v,) * n) for v in range(m)}.__contains__, vectors)
        return list(vectors)


class Colorings(Sequence):
    """The m-colorings of one kernel walk, held as the walk's words.

    `words` lists them as ModularKernel.vectors(words=True) cuts them:
    bytes up to m = 256, int tuples above.  Iteration and indexing give
    a Coloring per word, built on access; a slice gives a list of them.  A Colorings equals a list of the same Coloring objects
    in the same order.  The verbs read `words` and build no Coloring.
    """

    __slots__ = ("modulus", "words")

    def __init__(self, modulus: int, words: list):
        self.modulus = modulus
        self.words = words

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return map(Coloring, repeat(self.modulus), map(tuple, self.words))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(Colorings(self.modulus, self.words[i]))
        return Coloring(self.modulus, tuple(self.words[i]))

    def __eq__(self, other):
        if isinstance(other, (list, Colorings)):
            return list(self) == list(other)
        return NotImplemented


def coloring_matrix(d: PlanarDiagram) -> IntegerMatrix:
    """Coloring matrix of a diagram: one row per crossing, one column per arc.

    Column order follows the arc order of the diagram (sorted by smallest
    edge label), so the matrix is deterministic.  Coincident arcs at a
    crossing accumulate, e.g. a kink row may come out all zero.  The
    crossing-free diagram has one arc and no row: the 0x1 matrix.  Each
    row's nonzeros are read off its crossing, in column order, and the
    matrix holds only those; its dense rows are built if something reads
    them, and the Smith form never does.
    """
    nonzeros = []
    for i, k, j in d.crossing_relations:
        if i != k != j != i:
            lo, hi = (i, k) if i < k else (k, i)
            nonzeros.append(((j, -2), (lo, 1), (hi, 1)) if j < lo else
                            ((lo, 1), (j, -2), (hi, 1)) if j < hi else
                            ((lo, 1), (hi, 1), (j, -2)))
        else:
            row = Counter((i, k))
            row[j] -= 2
            nonzeros.append(tuple((c, v) for c, v in sorted(row.items()) if v))
    return IntegerMatrix.from_nonzeros(d.n_arcs, nonzeros)


def profile(d: PlanarDiagram) -> ColoringProfile:
    """Smith-form summary of a diagram's coloring matrix, the unknot's 0x1 one included."""
    sd = smith_normal_form(coloring_matrix(d))
    # only a 0-row matrix has no factor; the crossing-free unknot reports (0,)
    return ColoringProfile(sd.invariant_factors or (0,), link_determinant(sd), sd)


def link_determinant(sd: SmithDecomposition) -> int:
    """Product of the nonzero invariant factors; zero when two or more vanish."""
    factors = sd.padded_factors()
    zeros = sum(1 for f in factors if f == 0)
    if zeros == 0:
        raise ValueError("no zero invariant factor: not a coloring matrix decomposition")
    return 0 if zeros >= 2 else prod(filter(None, factors))


def is_odd_prime(p: int) -> bool:
    """Whether p is an odd prime, decided exactly in time polynomial in its digits.

    Trial division by the primes up to 41 decides every p with such a
    factor and every p below 43^2.  Otherwise Miller-Rabin runs with
    those 13 primes as bases, which is proven deterministic below
    MILLER_RABIN_BOUND (Sorenson and Webster, 2015); beyond it no answer
    is given and ValueError is raised.
    """
    if p < 3 or p % 2 == 0:
        return False
    for q in _SMALL_PRIMES:
        if p % q == 0:
            return p == q
    if p < 43 * 43:
        return True
    if p >= MILLER_RABIN_BOUND:
        raise ValueError(f"cannot decide whether {p} is prime: odd moduli without a "
                         f"factor up to 41 must be below {MILLER_RABIN_BOUND}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def p_nullity(sd: SmithDecomposition, p: int) -> int:
    """Number of invariant factors divisible by p (true zeros included)."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return sum(1 for f in sd.padded_factors() if f % p == 0)


def count_colorings(sd: SmithDecomposition, m: int) -> int:
    """Exact number of m-colorings, trivial ones included.

    Every diagonal entry d contributes gcd(d, m) solutions for its kernel
    coordinate (gcd(0, m) = m), so the count is the product m^{zeros} *
    prod gcd(d, m) over the zero divisors, with units contributing 1.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    return prod(map(gcd, sd.padded_factors(), repeat(m)))


def enumerate_colorings(d: PlanarDiagram, m: int, nontrivial_only: bool = False,
                        budget: int = ENUMERATION_BUDGET, ordered: bool = True) -> Colorings:
    """All m-colorings of the diagram, as a Colorings sequence; see ColoringProfile.colorings."""
    return profile(d).colorings(m, nontrivial_only, budget, ordered)


def _generators(d: PlanarDiagram | ColoringProfile, p: int) -> dict[int, list[int]]:
    """Each generating arc with its p-coloring row (see generating_arcs)."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    sd = (d if isinstance(d, ColoringProfile) else profile(d)).smith
    basis = zip(*unit_kernel(sd, p).transform.entries)
    lead, rows = _rref_mod_p([x[::-1] for x in basis], p)
    return {sd.shape[1] - 1 - j: row[::-1] for j, row in zip(lead, rows)}


def generating_arcs(d: PlanarDiagram | ColoringProfile, p: int) -> frozenset[int]:
    """A set of arcs whose colors determine every p-coloring uniquely.

    They are the non-pivot columns of the coloring matrix reduced mod p,
    as many as the p-nullity.  Column j depends on the columns before it
    exactly when some p-coloring has its last nonzero value at arc j, so
    they are read off the kernel basis of unit_kernel at p: each vector
    reversed, in reduced echelon form, has pivots n-1-j at just those j.
    Given the diagram's profile in place of the diagram, no Smith form
    is computed.
    """
    return frozenset(_generators(d, p))


def extend_coloring(d: PlanarDiagram | ColoringProfile, p: int,
                    assignment: dict[int, int]) -> Coloring:
    """The unique p-coloring taking the given values on the generating arcs.

    `d` is a diagram or its profile, as for generating_arcs.
    `assignment` maps every generating arc (column index) to a residue.
    Each reduced row behind generating_arcs, reversed, is the coloring
    that is 1 at its arc and 0 at the other generating arcs; their sum
    weighted by the assignment, mod p, is the coloring.
    """
    gens = _generators(d, p)
    if set(assignment) != set(gens):
        raise ValueError(f"assignment must cover exactly the generating arcs {sorted(gens)}")
    values = [assignment[a] for a in gens]
    return Coloring(p, tuple(sum(map(mul, column, values)) % p
                             for column in zip(*gens.values())))
