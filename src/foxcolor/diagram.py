"""Planar diagram codes of knots and links.

A diagram is given by its PD code: one quadruple of edge labels per
crossing, read counterclockwise starting at the incoming under-edge, so
the over-strand occupies positions 2 and 4.  Slot 4c + i is position i
of crossing c, and everything below works on slots: s ^ 2 is the far
end of the strand through slot s, even slots are under and odd ones
over, and mates[s] is the other slot of the edge in slot s.  One stable
sort of the slots by label (_sorted_slots) checks that every label
occurs twice and pairs each label's two slots; every PdCode is paired
by it, and its planarity check reads that pairing.  parse_pd renumbers
the labels to 1..E in their order, unless they are 1..E already.  Edges
merge into arcs along the over-strand (build_diagram, by a union-find
read off in one ascending pass), and each crossing contributes the
relation (under-arc, next under-arc, over-arc) that drives the coloring
system.

The crossing-free unknot cannot be written as a PD code; it is admitted
through the special token "unknot": a single arc, frozenset(), no edge.

Reidemeister moves rewrite PD codes (apply_move_pd).  A move finds an
edge as its two slots, the first by one index over the labels and the
second through mates, reads the crossings at those slots and relabels
slots.  The result is renumbered (_renumber) by label ranks from the
same slot sort, the move's only label check.  A move that keeps every
slot in place (insertions, R3) re-traces only the faces through slots
whose mate changed and carries over its input's component count; the
genus check reads these counts.  A PdCode keeps its faces, so choosing a
move site reads them without tracing again.  A PlanarDiagram (arcs and
relations) is built only where it is read: apply_move builds one per
move, random_variants one per variant.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count
from operator import ne

UNKNOT_TOKEN = "unknot"

R1_INSERT = "R1_insert"
R1_DELETE = "R1_delete"
R2_INSERT = "R2_insert"
R2_DELETE = "R2_delete"
R3 = "R3"
MOVE_KINDS = (R1_INSERT, R1_DELETE, R2_INSERT, R2_DELETE, R3)


class PdError(ValueError):
    """Malformed or inconsistent PD code."""


class MoveError(ValueError):
    """A Reidemeister move site that does not apply to the diagram."""


def _is_label(e) -> bool:
    """An int edge label; bool is an int subclass but never a label."""
    return isinstance(e, int) and not isinstance(e, bool)


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
        _, labels, mates = _sorted_slots(labels)
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

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_edges(self) -> int:
        return 2 * len(self.crossings)

    def edges(self) -> range:
        return range(1, self.n_edges + 1)

    def to_json_dict(self) -> dict:
        return {"crossings": [list(q) for q in self.crossings]}

    def __str__(self) -> str:
        if not self.crossings:
            return UNKNOT_TOKEN
        return "[" + ",".join("[" + ",".join(map(str, q)) + "]" for q in self.crossings) + "]"


def _code(crossings, mates, **known) -> PdCode:
    """PdCode(crossings) from a caller that has checked its labels and
    paired its slots; only the planarity check runs.  mates is stored as
    __post_init__ stores it, and whatever else the caller knows (faces,
    components) seeds the cached properties.
    """
    pd = object.__new__(PdCode)
    object.__setattr__(pd, "crossings", crossings)
    vars(pd).update(known, mates=mates)
    pd._check_planar()
    return pd


def _label_counts(labels) -> Counter:
    """Occurrences of each edge label; raises unless every label occurs twice."""
    counts = Counter(labels)
    bad = sorted(e for e, n in counts.items() if n != 2)
    if bad:
        raise PdError(f"edge labels must occur exactly twice, offending labels: {bad}")
    return counts


def _sorted_slots(flat):
    """Slots sorted by label, the labels in ascending order, and the mates.

    Slot s holds flat[s].  The sort is stable, so each label's two slots
    sit side by side, the lower first: pair k holds the k-th smallest
    label, and mates swaps the slots of each pair.  Raises PdError, as
    _label_counts, unless every label occurs exactly twice.
    """
    slots = sorted(range(len(flat)), key=flat.__getitem__)
    paired = list(map(flat.__getitem__, slots))
    if paired[0::2] != paired[1::2] or len(set(paired)) * 2 != len(paired):
        _label_counts(flat)  # raises, naming the labels that do not pair
    mates = [0] * len(flat)
    for s, t in zip(slots[0::2], slots[1::2]):
        mates[s], mates[t] = t, s
    return slots, paired[0::2], tuple(mates)


def _faces(mate) -> tuple[tuple[int, ...], ...]:
    """Faces of the diagram, each as the cycle of slots its walk leaves by.

    Slots are listed counterclockwise at each crossing, so walking the
    edge at slot s to its other end mate[s] and leaving again by the next
    slot of that crossing keeps one face on the right; the faces are the
    cycles of that permutation of slots.  Faces come in order of their
    least slot, each starting there.
    """
    return tuple(_trace(mate, range(len(mate))))


def _trace(mate, starts) -> list[tuple[int, ...]]:
    """The faces through the slots of starts, as _faces traces them, each
    starting at the first of starts on it (with starts ascending, at its
    least slot)."""
    seen = [False] * len(mate)
    faces = []
    for start in starts:
        if seen[start]:
            continue
        face = []
        s = start
        while not seen[s]:
            seen[s] = True
            face.append(s)
            t = mate[s]
            s = t + 1 if t % 4 != 3 else t - 3
        faces.append(tuple(face))
    return faces


def _genus(mate, faces, components=None) -> int:
    """Total genus of the surfaces the PD code's crossing graph embeds in.

    Each connected component has V - E + F = 2 - 2g with E = 2V, so the
    genera sum to (2k - F + V) / 2 over k components, and the code is
    planar exactly when that sum is 0.  _components counts k unless given.
    """
    if components is None:
        components = _components(mate)
    return (2 * components - len(faces) + len(mate) // 4) // 2


def _components(mate) -> int:
    """Connected components of the crossing graph, by a depth-first search."""
    n_crossings = len(mate) // 4
    neighbor = [t // 4 for t in mate]
    reached = [False] * n_crossings
    components = 0
    for root in range(n_crossings):
        if reached[root]:
            continue
        components += 1
        reached[root] = True
        stack = [root]
        while stack:
            c = stack.pop()
            for n in neighbor[4 * c:4 * c + 4]:
                if not reached[n]:
                    reached[n] = True
                    stack.append(n)
    return components


def parse_pd(text: str) -> PdCode:
    """Parse a PD code like "[[1,4,2,5],[3,6,4,1],[5,2,6,3]]" or the token "unknot".

    Labels are normalized to 1..E preserving their relative order.
    """
    stripped = text.strip()
    if stripped == UNKNOT_TOKEN:
        return PdCode(())
    try:
        raw = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise PdError(f"malformed PD code: {exc}") from None
    except RecursionError:
        raise PdError("malformed PD code: lists nested too deeply") from None
    if not isinstance(raw, list) or not raw:
        raise PdError("PD code must be a non-empty list of quadruples (or the token 'unknot')")
    if (set(map(type, raw)) == {list} and set(map(len, raw)) == {4}
            and set(map(type, chain.from_iterable(raw))) == {int}):
        quads = list(map(tuple, raw))  # every label checked in one scan
    else:
        quads = []
        for item in raw:
            if not isinstance(item, list) or len(item) != 4 or not all(map(_is_label, item)):
                raise PdError(f"crossing {item!r} is not a quadruple of integers")
            quads.append(tuple(item))
    flat = list(chain.from_iterable(quads))
    _, labels, mates = _sorted_slots(flat)  # before relabeling, so errors name the input's labels
    if labels[0] != 1 or labels[-1] != len(labels):  # not already 1..E
        relabel = dict(zip(labels, count(1)))
        flat = map(relabel.__getitem__, flat)
        quads = zip(flat, flat, flat, flat)
    return _code(tuple(quads), mates)


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

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    @property
    def n_crossings(self) -> int:
        return self.pd.n_crossings

    def arc_of(self, edge: int) -> int:
        for i, arc in enumerate(self.arcs):
            if edge in arc:
                return i
        raise KeyError(f"edge {edge} not in diagram")

    def arc_labels(self) -> tuple[str, ...]:
        """Human-readable arc names: the sorted edge members of each class."""
        return tuple("{" + ",".join(map(str, sorted(a))) + "}" if a else "{}" for a in self.arcs)


def build_diagram(pd: PdCode) -> PlanarDiagram:
    """Merge edges into arcs (union along each over-strand) and read off relations.

    A union links the larger root below the smaller, so no parent exceeds
    its edge, and each root is its arc's smallest edge.  One ascending
    pass then meets the roots in arc order and finds every other edge's
    parent already placed.
    """
    if not pd.crossings:
        return PlanarDiagram(pd, (frozenset(),), ())
    parent = list(range(pd.n_edges + 1))
    for _, b, _, d in pd.crossings:
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        while parent[d] != d:
            parent[d] = d = parent[parent[d]]
        if b < d:
            parent[d] = b
        elif d < b:
            parent[b] = d
    arc = [0] * len(parent)  # arc index of each edge
    members: list[list[int]] = []
    for e in pd.edges():
        if parent[e] == e:
            arc[e] = len(members)
            members.append([e])
        else:
            arc[e] = arc[parent[e]]
            members[arc[e]].append(e)
    relations = tuple((arc[a], arc[c], arc[b]) for a, b, c, _ in pd.crossings)
    return PlanarDiagram(pd, tuple(map(frozenset, members)), relations)


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


def apply_move(d: PlanarDiagram, site: MoveSite) -> PlanarDiagram:
    """Apply a Reidemeister move, returning a new diagram with edges renumbered 1..E'."""
    return build_diagram(apply_move_pd(d.pd, site))


def apply_move_pd(pd: PdCode, site: MoveSite) -> PdCode:
    """apply_move on the code alone: the move, renumbering and validation,
    without building the diagram.

    A result with no fewer crossings keeps pd's slots in place.  A face of
    pd whose slots all kept their mates is still a face, and every other
    face holds a slot that changed or is new.  pd's component count carries
    over, since an insertion joins only slots of one face.
    """
    if site.over and site.kind != R1_INSERT:
        raise MoveError(f"only {R1_INSERT} takes 'over', not {site.kind}")
    most = 2 if site.kind == R2_INSERT else 1
    if len(site.edges) > most:
        raise MoveError(f"{site.kind} takes {most} edge{'s' * (most > 1)}, not {len(site.edges)}")
    crossings, mates = _renumber(_MOVE_HANDLERS[site.kind](pd, site))
    if not pd.crossings or len(crossings) < len(pd.crossings):
        return _code(crossings, mates)
    changed = set(compress(count(), map(ne, pd.mates, mates)))
    changed.update(range(len(pd.mates), len(mates)))
    faces = list(filter(changed.isdisjoint, pd.faces))
    for face in _trace(mates, changed):  # each turned to start at its least slot
        least = face.index(min(face))
        faces.append(face[least:] + face[:least])
    return _code(crossings, mates, faces=tuple(sorted(faces)), components=pd.components)


def _ends(flat, mates, edge) -> tuple[int, int]:
    """The two slots of edge, whose labels are flat: its first slot and
    that slot's mate.  Raises MoveError unless edge is a label of flat."""
    try:
        s = flat.index(edge)
    except ValueError:
        raise MoveError(f"edge {edge} does not exist in the diagram") from None
    return s, mates[s]


def _relabel(quads, slot, label):
    """Put label in the slot of quads, a list of crossings, in place."""
    c, i = divmod(slot, 4)
    q = quads[c]
    quads[c] = q[:i] + (label,) + q[i + 1:]


def _r1_insert(pd: PdCode, site: MoveSite):
    if not site.edges:
        raise MoveError("R1_insert needs an edge")
    e = site.edges[0]
    if not pd.crossings and e == 1:
        # kink the bare unknot; both chiralities give a one-arc diagram
        return [(2, 1, 1, 2)] if site.over else [(1, 2, 2, 1)]
    # the kink sits at the second slot of e; the first keeps label e
    _, t = _ends(list(chain.from_iterable(pd.crossings)), pd.mates, e)
    f = pd.n_edges + 1
    g = pd.n_edges + 2
    quads = list(pd.crossings)
    _relabel(quads, t, f)
    quads.append((g, e, f, g) if site.over else (e, g, g, f))
    return quads


def _r1_delete(pd: PdCode, site: MoveSite):
    if not site.edges:
        raise MoveError("R1_delete needs the loop edge")
    g = site.edges[0]
    flat = list(chain.from_iterable(pd.crossings))
    s, t = _ends(flat, pd.mates, g)
    if s >> 2 != t >> 2 or not (s ^ t) & 1:  # one crossing, once under and once over
        raise MoveError(f"edge {g} is not the loop of a kink")
    # the two strands through the loop go on at the far ends of its slots
    return _delete_crossings(pd.crossings, {s >> 2}, [(flat[s ^ 2], flat[t ^ 2])])


def _r2_insert(pd: PdCode, site: MoveSite):
    """Push a finger of strand x over strand y inside a face both border.

    Draw the face with y along its top running east and x along its
    bottom running west, the directions in which the face tracing walks
    them.  The finger leaves x upward, crosses over y at an east
    crossing, runs west above y as edge `top` and crosses back down at a
    west crossing.  x and y keep their labels on their east pieces.
    """
    if len(site.edges) != 2:
        raise MoveError("R2_insert needs (over_edge, under_edge)")
    x, y = site.edges
    if x == y:
        raise MoveError("R2_insert needs two distinct edges")
    flat, mates = list(chain.from_iterable(pd.crossings)), pd.mates
    _ends(flat, mates, x)
    _ends(flat, mates, y)
    for face in pd.faces:
        labels = list(map(flat.__getitem__, face))
        if x in labels and y in labels:
            break
    else:
        raise MoveError(f"edges {x} and {y} share no face, so no R2 move joins them")
    n = pd.n_edges
    top, x_west, y_mid, y_west = n + 1, n + 2, n + 3, n + 4
    quads = list(pd.crossings)
    _relabel(quads, mates[face[labels.index(x)]], x_west)
    _relabel(quads, face[labels.index(y)], y_west)
    quads += [(y_west, x_west, y_mid, top), (y_mid, x, y, top)]
    return quads


def _r2_delete(pd: PdCode, site: MoveSite):
    if not site.edges:
        raise MoveError("R2_delete needs the over middle edge")
    u = site.edges[0]
    flat, mates = list(chain.from_iterable(pd.crossings)), pd.mates
    s, t = _ends(flat, mates, u)
    if not s & t & 1:
        raise MoveError(f"edge {u} is not an over middle edge")
    ci, cj = s >> 2, t >> 2
    if ci == cj:
        raise MoveError(f"edge {u} loops at a single crossing")
    # the under slots of ci whose edge ends at an under slot of cj
    shared = [a for a in (4 * ci, 4 * ci + 2) if mates[a] >> 2 == cj and not mates[a] & 1]
    if not shared:
        raise MoveError(f"no under middle edge pairs with {u}")
    a = min(shared, key=flat.__getitem__)
    b = mates[a]
    return _delete_crossings(pd.crossings, {ci, cj},
                             [(flat[a ^ 2], flat[b ^ 2]), (flat[s ^ 2], flat[t ^ 2])])


def _delete_crossings(quads, drop: set[int], joins):
    """Remove crossings and reconnect the dangling edge stubs.

    joins lists label pairs that become a single edge.  Pairs can chain
    (a stub label may sit on both a deleted under-slot and a deleted
    over-slot), so classes are closed with a union-find before relabeling.
    """
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in joins:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    kept = [list(q) for ci, q in enumerate(quads) if ci not in drop]
    outside: dict[int, int] = {}
    for q in kept:
        for e in q:
            outside[e] = outside.get(e, 0) + 1

    classes: dict[int, list[int]] = {}
    for e in parent:
        classes.setdefault(find(e), []).append(e)
    vanished = 0
    for members in classes.values():
        live = sum(outside.get(e, 0) for e in members)
        if live == 0:
            vanished += 1
        elif live != 2:
            raise MoveError("move would leave an inconsistent diagram")
    if not kept:
        if vanished == 1:
            return []
        raise MoveError("result is a crossing-free multi-component diagram, not encodable")
    if vanished:
        raise MoveError("move would strip a component of all its crossings, not encodable")
    sub = {e: find(e) for e in parent}
    return [tuple(sub.get(e, e) for e in q) for q in kept]


def _r3(pd: PdCode, site: MoveSite):
    """Slide the strand carrying `t` across the crossing of the two strands under (or over) it.

    t runs from slot sx of crossing x to slot sy of crossing y.  The
    corner edges a (at x) and b (at y) on the other side meet again at
    slots za and zb, on opposite sides of the completing crossing z.
    Along the sliding strand the two corner crossings swap order, so its
    outer edges trade places; on the other two strands the outer edge at
    the corner trades places with the edge beyond z.  Only triangles
    whose nine local edges are pairwise distinct are rewritten;
    wrap-around coincidences on small diagrams are rejected.
    """
    if not site.edges:
        raise MoveError("R3 needs the middle edge of the sliding strand")
    t = site.edges[0]
    flat, mates = list(chain.from_iterable(pd.crossings)), pd.mates
    sx, sy = _ends(flat, mates, t)
    xi, yi = sx >> 2, sy >> 2
    if xi == yi:
        raise MoveError(f"edge {t} loops at a single crossing")
    if (sx ^ sy) & 1:
        raise MoveError(f"edge {t} does not cross two strands on the same side")
    # the three strands must bound a face, or the slide crosses other strands;
    # that face holds t, so it runs through sx or sy
    triangles = {frozenset(map(flat.__getitem__, f)) for f in _trace(mates, (sx, sy))
                 if len(f) == 3}
    for sa in sorted((sx ^ 1, sx ^ 3)):  # other-side slots in slot order: the first slide wins
        za = mates[sa]
        for sb in sorted((sy ^ 1, sy ^ 3)):
            zb = mates[sb]
            if (za >> 2 == zb >> 2 not in (xi, yi) and (za ^ zb) & 1
                    and frozenset((t, flat[sa], flat[sb])) in triangles):
                local = (sx, sx ^ 2, sy ^ 2, sa, sa ^ 2, za ^ 2, sb, sb ^ 2, zb ^ 2)
                if len(set(map(flat.__getitem__, local))) == len(local):
                    quads = list(pd.crossings)
                    for p, q in ((sx ^ 2, sy ^ 2), (sa ^ 2, za ^ 2), (sb ^ 2, zb ^ 2)):
                        _relabel(quads, p, flat[q])
                        _relabel(quads, q, flat[p])
                    return quads
    raise MoveError(f"no triangular face completes an R3 move at edge {t}")


def _renumber(quads):
    """Canonical relabeling 1..E, and the slot pairing of the result.

    Breadth-first from the lowest label: a label's neighbors, the labels
    of its crossings, are numbered in ascending order; each crossing adds
    them once, when first visited.  One stable sort of the slots by label
    puts each label's two slots side by side, so pair k holds the slots
    of the k-th smallest label, the crossings of that label are
    slot >> 2 of its two slots, and the walk runs on ranks through lists.
    Relabeling moves no slot, so the pairing is also that of the result.
    Raises PdError unless every label occurs exactly twice.
    """
    if not quads:
        return (), ()
    flat = list(chain.from_iterable(quads))
    slots, labels, mates = _sorted_slots(flat)
    firsts, seconds = slots[0::2], slots[1::2]
    rank = [0] * len(flat)
    for k, s, t in zip(count(), firsts, seconds):
        rank[s] = rank[t] = k
    ends = iter(rank)
    near = list(map(sorted, zip(ends, ends, ends, ends)))  # each crossing's ranks, sorted once
    open_crossings = [True] * len(quads)
    new = [0] * len(labels)  # new label by rank, 0 while unnumbered
    numbered = start = 0
    while numbered < len(new):
        start = new.index(0, start)
        numbered += 1
        new[start] = numbered
        queue = [start]
        for k in queue:  # the queue grows as it is read: breadth-first
            a, b = firsts[k] >> 2, seconds[k] >> 2
            if open_crossings[a]:
                open_crossings[a] = False
                if open_crossings[b]:  # a != b: a kink edge's crossing is closed now
                    open_crossings[b] = False
                    ranks = sorted(near[a] + near[b])
                else:
                    ranks = near[a]
            elif open_crossings[b]:
                open_crossings[b] = False
                ranks = near[b]
            else:
                continue
            for j in ranks:
                if not new[j]:
                    numbered += 1
                    new[j] = numbered
                    queue.append(j)
    relabeled = map(new.__getitem__, rank)
    return tuple(zip(relabeled, relabeled, relabeled, relabeled)), mates


_MOVE_HANDLERS = {
    R1_INSERT: _r1_insert,
    R1_DELETE: _r1_delete,
    R2_INSERT: _r2_insert,
    R2_DELETE: _r2_delete,
    R3: _r3,
}


def random_move_site_pd(pd: PdCode, rng: random.Random) -> MoveSite:
    """A random R1 insertion site, or an R2 insertion site on two edges of a random face.

    Reads the faces the code cached when its planarity was checked.
    """
    if pd.n_edges < 2:
        return MoveSite(R1_INSERT, (1,), over=rng.random() < 0.5)
    if rng.random() < 0.5:
        return MoveSite(R1_INSERT, (rng.choice(pd.edges()),), over=rng.random() < 0.5)
    # the filter is that of the faces' label sets: a label sits on a slot
    # and its mate, and the slot after s in its face is neither s nor mate[s]
    quads = pd.crossings
    face = rng.choice([f for f in pd.faces if len(f) > 1])
    x, y = rng.sample(sorted({quads[s // 4][s % 4] for s in face}), 2)
    return MoveSite(R2_INSERT, (x, y))


def random_variants(d: PlanarDiagram, count: int, moves_per_variant: int = 3,
                    seed: int = 0) -> list[PlanarDiagram]:
    """Seeded R1/R2-derived variants of a diagram (same link type).

    Each variant chains its moves on PD codes, every one validated and
    renumbered as by apply_move, and builds its diagram once at the end,
    so the variants equal those of chaining apply_move.
    """
    rng = random.Random(seed)
    variants = []
    for _ in range(count):
        pd = d.pd
        for _ in range(moves_per_variant):
            pd = apply_move_pd(pd, random_move_site_pd(pd, rng))
        variants.append(build_diagram(pd))
    return variants


# Embedded PD codes.  The torus knots 3_1, 5_1, 7_1 follow the standard
# (2,n) pattern; 9_40 is the closure of the 4-strand braid (s1 s2^-1 s3)^3,
# checked by its determinant and mod-5 class structure.
_CATALOG: dict[str, str] = {
    "unknot": UNKNOT_TOKEN,
    "3_1": "[[1,4,2,5],[3,6,4,1],[5,2,6,3]]",
    "4_1": "[[4,2,5,1],[8,6,1,5],[6,3,7,4],[2,7,3,8]]",
    "5_1": "[[1,6,2,7],[3,8,4,9],[5,10,6,1],[7,2,8,3],[9,4,10,5]]",
    "5_2": "[[1,4,2,5],[3,8,4,9],[5,10,6,1],[9,6,10,7],[7,2,8,3]]",
    "6_1": "[[1,4,2,5],[7,10,8,11],[3,9,4,8],[9,3,10,2],[5,12,6,1],[11,6,12,7]]",
    "6_2": "[[1,4,2,5],[5,10,6,11],[3,9,4,8],[9,3,10,2],[7,12,8,1],[11,6,12,7]]",
    "6_3": "[[4,2,5,1],[8,4,9,3],[12,9,1,10],[10,5,11,6],[6,11,7,12],[2,8,3,7]]",
    "7_1": "[[1,8,2,9],[3,10,4,11],[5,12,6,13],[7,14,8,1],[9,2,10,3],[11,4,12,5],[13,6,14,7]]",
    "9_40": ("[[2,5,6,1],[5,3,7,8],[4,9,10,7],[8,11,12,6],[11,10,13,14],"
             "[9,15,16,13],[14,17,1,12],[17,16,18,2],[15,4,3,18]]"),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def catalog(name: str) -> PdCode:
    """PD code of an embedded knot table entry."""
    try:
        text = _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog name {name!r}; known: {', '.join(_CATALOG)}") from None
    return parse_pd(text)
