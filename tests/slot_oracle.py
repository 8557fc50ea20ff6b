"""The reference slot pairing of a PD code.

Slot 4c + i is position i of crossing c.  The pairing is built here by
a dict walk over the labels, one slot at a time, and shares no code
with foxcolor, which pairs the slots by one stable sort of the slots by
label: the two must agree on every code, parsed or moved.
"""


def _mates(crossings) -> tuple[int, ...]:
    """mate[s] is the slot at the other end of the edge in slot s."""
    mate = [0] * (4 * len(crossings))
    open_end: dict[int, int] = {}
    for s, e in enumerate(e for q in crossings for e in q):
        t = open_end.pop(e, None)
        if t is None:
            open_end[e] = s
        else:
            mate[s], mate[t] = t, s
    return tuple(mate)
