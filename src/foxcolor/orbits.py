"""Affine color symmetries and equivalence classes of colorings.

Two colorings are equivalent when a permutation of Z_m that keeps the
crossing operation a * b = 2b - a for all a, b carries one to the other.
Those permutations form Aut(R_m) of the dihedral quandle, exactly the
affine maps x -> lam*x + mu with lam a unit; the inner subgroup is
lam = +-1 (mu even when m is even).  A permutation that merely keeps the
crossings of one coloring would make the classes its arc partitions by
color, which Reidemeister moves do not preserve.  Acting arcwise on the
non-trivial m-colorings of a diagram, the orbits are the equivalence
classes; for an odd prime p and nullity n the class counts have closed
forms, verified here against brute-force orbit partitions.

Every row of a coloring matrix sums to 0, so the translations x -> x + mu
map colorings to colorings; they form a normal subgroup M that acts
freely.  orbit_partition works through the quotient: each orbit is |M|
translates of one orbit of the multipliers lam on the slice, the
colorings whose arc 0 lies in range(m / |M|).  The classes command runs
it at every modulus on the words of the unit_kernel walk.  verify_counts
keeps it as the independent brute-force check for primes on the diagram
and on variants that chain the moves alone (_variants), on the words of
the block_kernel walk: the colors on the arcs no unit pivot took.  They
fix the coloring, are constant just when it is, and commute with every
arcwise map, so orbit counts and sizes are those of the colorings.
At an odd prime the action is free, and prime_classes lists the sorted
orbit representatives from the reduced echelon basis of the kernel over
F_p, without listing the colorings or building the group.

GroupSpec, OrbitPartition and VerifyReport are immutable records (see
the record module).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from itertools import chain, islice
from math import gcd
from operator import attrgetter

from .coloring import Coloring, ColoringProfile, ENUMERATION_BUDGET, is_odd_prime, profile
from .diagram import PlanarDiagram, _move_pd, build_diagram, random_move_site_pd
from .linalg import IntegerMatrix, ModularKernel, _rref_mod_p, block_kernel, unit_kernel
from .record import Record

AUT = "aut"
INN = "inn"
DEFAULT_SEED = 101
VARIANT_MOVES = 3


class GroupSpec(Record):
    """The affine group x -> lam*x + mu of Z_m, or its inner subgroup, as
    the lists of its lam and of its mu; every pair is one element.  The mu
    are the translations M, range(0, m, step), step 2 for inn at even m
    and 1 otherwise.  For m <= 256 orbit_partition reads byte_tables, built
    on first read and cached; above, it reads the lists alone."""

    _compared = _shown = ("kind", "modulus", "lams", "mus")

    def __init__(self, kind: str, modulus: int, lams: tuple[int, ...], mus: tuple[int, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "lams", lams)
        object.__setattr__(self, "mus", mus)

    @property
    def size(self) -> int:
        return len(self.lams) * len(self.mus)

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


def check_group(kind: str, m: int) -> str:
    """The normalized group kind; ValueError unless build_group(kind, m) is defined.

    Costs nothing in m, so callers can reject bad input before any work
    that grows with the group.
    """
    if m < 3:
        raise ValueError("groups are defined for modulus >= 3")
    kind = kind.lower()
    if kind not in (AUT, INN):
        raise ValueError(f"unknown group kind {kind!r}")
    return kind


def build_group(kind: str, m: int) -> GroupSpec:
    """The affine group (kind "aut": lam every unit, mu every residue) or
    its inner subgroup (kind "inn": lam = +-1).

    Both lists ascend.  For even m the inner maps only admit even mu,
    giving a dihedral group of order m; for odd m every mu occurs and the
    order is 2m.  No element is listed here.
    """
    kind = check_group(kind, m)
    if kind == AUT:
        return GroupSpec(kind, m, tuple(l for l in range(1, m) if gcd(l, m) == 1),
                         tuple(range(m)))
    return GroupSpec(kind, m, (1, m - 1), tuple(range(0, m, 2) if m % 2 == 0 else range(m)))


class OrbitPartition(Record):
    """The orbits as (representative values, size) pairs, sorted."""

    _compared = _shown = ("orbits",)

    def __init__(self, orbits: tuple[tuple[tuple[int, ...], int], ...]):
        object.__setattr__(self, "orbits", orbits)

    @property
    def class_count(self) -> int:
        return len(self.orbits)

    def sizes(self) -> tuple[int, ...]:
        return tuple(size for _, size in self.orbits)


def orbit_partition(colorings, group: GroupSpec) -> OrbitPartition:
    """Partition colorings into orbits under the group action.

    Expects the full set of non-trivial colorings for one diagram and
    modulus: Coloring objects of the group's modulus, or the words of
    ModularKernel.vectors(words=True), as classes and verify_counts pass
    them.  Mixed input, words of unequal length, duplicates, a set not
    closed under the action, or a value outside range(m) raise ValueError,
    the value before any table is built.  Orbits are listed as their
    least member and size, in that member's order.

    Each word is translated into the slice (see the module) by the map
    its arc 0 picks; words without duplicates are closed under the free
    M exactly when they are |M| times their slice words.  One step per
    orbit maps a slice word by every lam back into the slice; the images
    but the word itself must be unseen slice words, or the set is not
    closed.  The least image is the least member, as every member has a
    translate in the slice not above it, and the size is |M| times the
    images' number.  A word is bytes up to m = 256, each map one
    bytes.translate (GroupSpec.byte_tables, built by the first call that
    gets a word with an arc), and a tuple above.  A word with no arc is
    an orbit of size 1.
    """
    m = group.modulus
    words = list(colorings)
    kinds = set(map(type, words))
    unwrap = kinds == {Coloring}
    if unwrap:
        if set(map(attrgetter("modulus"), words)) - {m}:
            raise ValueError("coloring modulus differs from group modulus")
        words = list(map(attrgetter("values"), words))
    elif kinds - {bytes if m <= 256 else tuple}:
        raise ValueError("colorings must be all Coloring objects or all words")
    if m <= 256:
        try:
            if unwrap:
                words = list(map(bytes, words))
            joined = b"".join(words)
            bad = joined.translate(None, bytes(range(m)))
        except ValueError:  # a value outside range(256)
            bad = True
    else:
        bad = not all(map(range(m).__contains__, set(chain.from_iterable(words))))
    if bad:
        raise ValueError(f"coloring values must lie in range({m})")
    lengths = set(map(len, words))
    if len(lengths) > 1:
        raise ValueError("colorings differ in their number of arcs")
    if len(set(words)) != len(words):
        raise ValueError("duplicate colorings in input")
    if lengths <= {0}:
        return OrbitPartition((((), 1),) * len(words))
    k = len(group.mus)
    if m <= 256:
        shifts, scales = group.byte_tables
        sliced = set(map(bytes.translate, words, map(shifts.__getitem__, joined[::len(words[0])])))

        def images(word):
            return set(map(word.translate, scales[word[0]]))
    else:
        step = group.mus[1] - group.mus[0]
        sliced = {tuple([(x - u) % m for x in w]) for w in words for u in [w[0] - w[0] % step]}

        def images(word):
            r = word[0]
            return {tuple([(l * (x - r) + r) % m for x in word]) for l in group.lams}
    if len(sliced) * k != len(words):
        raise ValueError("input is not closed under the group action")
    found = []
    while sliced:
        orbit = images(sliced.pop())
        left = len(sliced)
        sliced -= orbit
        if left - len(sliced) != len(orbit) - 1:
            raise ValueError("input is not closed under the group action")
        found.append((min(orbit), k * len(orbit)))
    found.sort()
    return OrbitPartition(tuple((tuple(word), size) for word, size in found))


def prime_classes(pr: ColoringProfile, kind: str, p: int) -> tuple[int, list[tuple[int, ...]]]:
    """Orbit size and sorted representatives of the non-trivial p-colorings.

    For an odd prime p, without listing the colorings.  The action on
    non-trivial colorings is free, so every orbit has p(p-1) (aut) or 2p
    (inn) members, and its lexicographically least member has arc 0 = 0
    and its first nonzero value 1 (aut) or in 1..(p-1)/2 (inn).

    The kernel basis over F_p from the unit pivots (unit_kernel; no
    reference elimination of the whole matrix) is put in reduced echelon
    form, pivots ascending; that form is the subspace's own, whatever the
    basis.  The constant colorings span the row with pivot arc 0; the
    other rows b_0..b_{k-1} span the colorings with arc 0 = 0, and on
    them lex order of colorings is lex order of coefficient tuples, with
    the first nonzero coefficient the first nonzero value.  The walk
    of ModularKernel.vectors takes the coefficient tuples in that order,
    and the representatives with first nonzero coefficient at b_t, lead
    a, sit at walk positions a*p^(k-1-t) onward.  So one walk, keeping
    the positions [p^j, lead_stop*p^j) for j = 0..k-1, yields them
    sorted; it stops after its first lead_stop blocks of p^(k-1)
    vectors, at most twice the class count.
    """
    kind = check_group(kind, p)
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    size, lead_stop = (p * (p - 1), 2) if kind == AUT else (2 * p, (p + 1) // 2)
    _, rows = _rref_mod_p(zip(*unit_kernel(pr.smith, p).transform.entries), p)
    rows = rows[1:]  # drop the constants' row, the one with pivot arc 0
    k = len(rows)
    if k == 0:
        return size, []
    span = IntegerMatrix(pr.smith.shape[1], k, tuple(zip(*rows)))
    walk = ModularKernel(p, (1,) * k, (p,) * k, span).vectors()
    reps: list[tuple[int, ...]] = []
    done = 0
    for j in range(k):
        reps += islice(walk, p ** j - done, lead_stop * p ** j - done)
        done = lead_stop * p ** j
    return size, reps


def predicted_class_count(kind: str, p: int, n: int) -> int:
    """Closed-form class count for an odd prime p and nullity n >= 2.

    aut: (p^(n-1) - 1) / (p - 1)        orbits of size p(p-1)
    inn: (p^(n-1) - 1) / 2              orbits of size 2p
    """
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if n < 2:
        raise ValueError(f"nullity must be at least 2, got {n}")
    num = p ** (n - 1) - 1
    den = p - 1 if check_group(kind, p) == AUT else 2
    q, rem = divmod(num, den)
    assert rem == 0
    return q


class VerifyReport(Record):
    """Brute-force class counts compared against the closed forms, plus
    the same counts on move-derived variants of the diagram."""

    _compared = _shown = ("label", "p", "nullity", "aut_classes", "inn_classes",
                          "predicted_aut", "predicted_inn", "aut_orbit_sizes",
                          "inn_orbit_sizes", "invariant_across_moves", "failures")

    def __init__(self, label: str, p: int, nullity: int, aut_classes: int, inn_classes: int,
                 predicted_aut: int, predicted_inn: int, aut_orbit_sizes: tuple[int, ...],
                 inn_orbit_sizes: tuple[int, ...], invariant_across_moves: bool,
                 failures: tuple[str, ...]):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "nullity", nullity)
        object.__setattr__(self, "aut_classes", aut_classes)
        object.__setattr__(self, "inn_classes", inn_classes)
        object.__setattr__(self, "predicted_aut", predicted_aut)
        object.__setattr__(self, "predicted_inn", predicted_inn)
        object.__setattr__(self, "aut_orbit_sizes", aut_orbit_sizes)
        object.__setattr__(self, "inn_orbit_sizes", inn_orbit_sizes)
        object.__setattr__(self, "invariant_across_moves", invariant_across_moves)
        object.__setattr__(self, "failures", failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "knot": self.label,
            "p": self.p,
            "nullity": self.nullity,
            "aut_classes": self.aut_classes,
            "inn_classes": self.inn_classes,
            "predicted_aut": self.predicted_aut,
            "predicted_inn": self.predicted_inn,
            "orbit_sizes": list(self.aut_orbit_sizes),
            "inn_orbit_sizes": list(self.inn_orbit_sizes),
            "invariant_across_moves": self.invariant_across_moves,
            "failures": list(self.failures),
        }


def verify_counts(d: PlanarDiagram, primes: Sequence[int], *, label: str = "diagram",
                  variants: int = 3, seed: int = DEFAULT_SEED,
                  budget: int = ENUMERATION_BUDGET) -> tuple[VerifyReport, ...]:
    """Check predicted class counts against brute-force orbits, and their
    stability across seeded variants of the diagram, VARIANT_MOVES R1/R2
    moves each, for each prime.

    Every prime is validated before any work.  The variants keep the
    labels their moves write (_variants), each built once, and the
    diagram and each variant are decomposed once, by `profile`; every
    prime reads its nullity and its colorings from those profiles, the
    colorings as the words of walk(block_kernel, p), a few bytes each: no
    pivot row is read (see the module).
    Returns one report per prime, in the order given.  Diagrams without
    non-trivial p-colorings (nullity < 2) verify vacuously with zero
    classes, and a prime at which neither the diagram nor any variant has
    one builds no group.  Every mismatch lands in the report's `failures`.
    """
    primes = tuple(primes)
    for p in primes:
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
    base = profile(d)
    others = [profile(v) for v in _variants(d, variants, VARIANT_MOVES, seed)]
    return tuple(_verify_prime(base, others, p, label, budget) for p in primes)


def _variants(d: PlanarDiagram, count: int, moves: int, seed: int):
    """random_variants' chain on the labels its moves write (_move_pd), unrenumbered."""
    import random  # only here, as in random_variants
    rng = random.Random(seed)
    for _ in range(count):
        pd = d.pd
        for _ in range(moves):
            pd = _move_pd(pd, random_move_site_pd(pd, rng))
        yield build_diagram(pd)


def _verify_prime(base: ColoringProfile, others, p: int, label: str,
                  budget: int) -> VerifyReport:
    failures: list[str] = []
    n = base.nullity(p)
    if n >= 2:
        pred_aut = predicted_class_count(AUT, p, n)
        pred_inn = predicted_class_count(INN, p, n)
    else:
        pred_aut = pred_inn = 0

    groups: list[GroupSpec] = []

    def partitions(pr: ColoringProfile):
        """Non-trivial p-colorings of one diagram, as words, and their aut and inn partitions.

        The groups are built for the first diagram that has such a
        coloring, after its budget check bounds p; before that every
        partition is empty.
        """
        words = pr.walk(block_kernel, p, True, budget)
        if words and not groups:
            groups.extend((build_group(AUT, p), build_group(INN, p)))
        if not groups:
            return words, OrbitPartition(()), OrbitPartition(())
        return words, *(orbit_partition(words, g) for g in groups)

    nontrivial, aut, inn = partitions(base)
    expected_nontrivial = p ** n - p
    if len(nontrivial) != expected_nontrivial:
        failures.append(f"non-trivial count {len(nontrivial)} != p^n - p = {expected_nontrivial}")
    if aut.class_count != pred_aut:
        failures.append(f"aut classes {aut.class_count} != predicted {pred_aut}")
    if inn.class_count != pred_inn:
        failures.append(f"inn classes {inn.class_count} != predicted {pred_inn}")
    if any(s != p * (p - 1) for s in aut.sizes()):
        failures.append(f"aut orbit sizes {aut.sizes()} not all p(p-1) = {p * (p - 1)}")
    if any(s != 2 * p for s in inn.sizes()):
        failures.append(f"inn orbit sizes {inn.sizes()} not all 2p = {2 * p}")

    stable = True
    for vi, other in enumerate(others):
        vn = other.nullity(p)
        _, vaut, vinn = partitions(other)
        if (vn, vaut.class_count, vinn.class_count) != (n, aut.class_count, inn.class_count):
            stable = False
            failures.append(
                f"variant {vi}: (nullity, aut, inn) = ({vn}, {vaut.class_count}, "
                f"{vinn.class_count}) != base ({n}, {aut.class_count}, {inn.class_count})")
    return VerifyReport(label, p, n, aut.class_count, inn.class_count, pred_aut, pred_inn,
                        aut.sizes(), inn.sizes(), stable, tuple(failures))
