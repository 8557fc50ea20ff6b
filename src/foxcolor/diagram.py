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

Reidemeister moves rewrite PD codes in two steps.  The move (_move_pd)
finds an edge as its two slots, the first by one index over the labels
and the second through mates, reads the crossings at those slots and
relabels slots; its one slot sort checks the labels, which a deletion
then compacts to 1..E as parse_pd does.  A move that keeps every slot
in place (insertions, R3) re-traces only the faces through slots whose
mate changed and carries over its input's component count; the genus
check reads these counts.  The canonical renumbering (_renumber), last,
walks that slot pairing breadth-first and moves no slot.  apply_move_pd
takes both steps, and verify_counts the move alone; a PlanarDiagram is
built only where it is read, once per move (apply_move) or variant.  A
PdCode keeps its faces, so choosing a move site reads them untraced.

PdCode, PlanarDiagram and MoveSite are immutable records (see the record
module) whose __init__ runs their checks.  random is imported only where
moves are drawn (random_variants, verify's variants and the moves verb),
so importing the package leaves it out.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cached_property
from itertools import chain, compress, count
from operator import ne

from .record import Record

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


class PdCode(Record):
    """Validated PD code: a tuple of 4-tuples whose labels are 1..E, each
    used exactly twice.

    mates, the slot pairing of the labels, is set at construction; the
    faces and component count that the planarity check reads are cached
    properties.  All three are outside equality and hashing.
    """

    _compared = _shown = ("crossings",)

    def __init__(self, crossings: tuple[tuple[int, int, int, int], ...]):
        object.__setattr__(self, "crossings", crossings)
        quads = crossings
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
    paired its slots; only the planarity check runs.  Whatever else the
    caller knows (faces, components) seeds the cached properties."""
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
    """The labels in ascending order, and the mates, from the slots sorted by label.

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
    return paired[0::2], tuple(mates)


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
    return _code(*_compact(quads))


def _compact(quads):
    """quads as a tuple, relabeled to 1..E in label order unless already 1..E,
    and its mates; the slot sort runs first, so errors name the labels of quads."""
    flat = list(chain.from_iterable(quads))
    labels, mates = _sorted_slots(flat)
    if labels != list(range(1, len(labels) + 1)):
        relabel = dict(zip(labels, count(1)))
        flat = map(relabel.__getitem__, flat)
        quads = zip(flat, flat, flat, flat)
    return tuple(quads), mates


class PlanarDiagram(Record):
    """A PD code with its arcs and per-crossing relations.

    arcs is the partition of edge labels into over-strand classes, ordered
    by smallest member; crossing_relations holds, per crossing, the triple
    of arc indices (under-arc in, under-arc out, over-arc).
    """

    _compared = _shown = ("pd", "arcs", "crossing_relations")

    def __init__(self, pd: PdCode, arcs: tuple[frozenset[int], ...],
                 crossing_relations: tuple[tuple[int, int, int], ...]):
        object.__setattr__(self, "pd", pd)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "crossing_relations", crossing_relations)

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


class MoveSite(Record):
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

    _compared = _shown = ("kind", "edges", "over")

    def __init__(self, kind: str, edges: tuple[int, ...] = (), over: bool = False):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "over", over)
        if kind not in MOVE_KINDS:
            raise MoveError(f"unknown move kind {kind!r}")


def apply_move(d: PlanarDiagram, site: MoveSite) -> PlanarDiagram:
    """Apply a Reidemeister move, returning a new diagram with edges renumbered 1..E'."""
    return build_diagram(apply_move_pd(d.pd, site))


def apply_move_pd(pd: PdCode, site: MoveSite) -> PdCode:
    """apply_move on the code alone: the move (_move_pd), then its renumbering (_renumber)."""
    return _renumber(_move_pd(pd, site))


def _move_pd(pd: PdCode, site: MoveSite) -> PdCode:
    """The move and its checks, with the labels the move writes: pd's,
    the new ones above them, and after a deletion those relabeled to 1..E
    in their order (_compact).

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
    crossings, mates = _compact(_MOVE_HANDLERS[site.kind](pd, site))
    if not pd.crossings or len(crossings) < len(pd.crossings):
        return _code(crossings, mates)
    changed = set(compress(count(), map(ne, pd.mates, mates)))
    changed.update(range(len(pd.mates), len(mates)))
    faces = list(filter(changed.isdisjoint, pd.faces))
    faces += map(_turned, _trace(mates, changed))
    return _code(crossings, mates, faces=tuple(sorted(faces)), components=pd.components)


def _turned(face):
    """face turned to start at its least slot, as _faces lists it."""
    least = face.index(min(face))
    return face[least:] + face[:least]


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
    s, t = _ends(flat, mates, x)
    _ends(flat, mates, y)
    # the faces holding x are those through its slots, in pd.faces order
    for face in sorted(map(_turned, _trace(mates, (s, t)))):
        labels = list(map(flat.__getitem__, face))
        if y in labels:
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

    kept = [q for ci, q in enumerate(quads) if ci not in drop]
    outside = Counter(chain.from_iterable(kept))

    live = Counter()  # kept ends of each class
    for e in parent:
        live[find(e)] += outside[e]
    if set(live.values()) - {0, 2}:
        raise MoveError("move would leave an inconsistent diagram")
    vanished = list(live.values()).count(0)
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


def _renumber(pd: PdCode) -> PdCode:
    """Canonical relabeling of pd to 1..E.

    Breadth-first from label 1: a label's neighbors, the labels of its
    crossings, are numbered in ascending order; each crossing adds them
    once, when first visited.  A label's crossings are those of a slot of
    it and of that slot's mate, so pd's slot pairing serves the walk and
    no slot is sorted again.  Relabeling moves no slot, so pd's mates,
    faces and component count are those of the result.
    """
    quads, mates = pd.crossings, pd.mates
    flat = list(chain.from_iterable(quads))
    slot = dict(zip(flat, count()))  # the later slot of each label
    near = list(map(sorted, quads))  # each crossing's labels, sorted once
    open_crossings = [True] * len(quads)
    new = [0] * (len(flat) // 2 + 1)  # new label by label, 0 while unnumbered
    numbered, start = 0, 1
    while numbered < len(flat) // 2:
        start = new.index(0, start)
        numbered += 1
        new[start] = numbered
        queue = [start]
        for e in queue:  # the queue grows as it is read: breadth-first
            s = slot[e]
            a, b = s >> 2, mates[s] >> 2  # a == b for a kink's loop
            labels = near[a] if open_crossings[a] else near[b] if open_crossings[b] else ()
            if open_crossings[a] and open_crossings[b] and a != b:  # a component's start
                labels = sorted(near[a] + near[b])
            open_crossings[a] = open_crossings[b] = False
            for j in labels:
                if not new[j]:
                    numbered += 1
                    new[j] = numbered
                    queue.append(j)
    relabeled = map(new.__getitem__, flat)
    code = object.__new__(PdCode)  # planar, as pd is: no check runs
    vars(code).update(vars(pd), crossings=tuple(zip(relabeled, relabeled, relabeled, relabeled)))
    return code


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
    import random  # only here, so that importing the package leaves it unloaded
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
