"""The m-colorings of a diagram by exhaustive search, without the Smith form.

brute_force_colorings reads only the diagram's arc count and crossing
relations and shares no code with foxcolor.linalg or the kernel walk, so
tests can hold enumerate_colorings and the coloring counts to it.
"""

from foxcolor.coloring import Coloring, EnumerationBudgetError

BRUTE_FORCE_BUDGET = 10 ** 8


def brute_force_colorings(d, m: int,
                          budget: int = BRUTE_FORCE_BUDGET) -> list[Coloring]:
    """Oracle: the assignments mod m that satisfy every crossing equation of
    the diagram d (a foxcolor PlanarDiagram), sorted.

    An exhaustive backtracking search.  Arcs are set breadth-first over
    shared crossings, one component after another, each from its lowest
    arc, and each takes every value 0..m-1 in turn.  A crossing equation is
    tested once, when the last of its three arcs is set, and only a failed
    test cuts a branch.  The budget bounds m^arcs, the number of leaves of
    the unpruned tree, and is checked before any search.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    n = d.n_arcs
    if m ** n > budget:
        raise EnumerationBudgetError(f"{m}^{n} assignments exceed budget {budget}")
    rels = d.crossing_relations
    order: list[int] = []
    for start in range(n):
        if start not in order:
            order.append(start)
            for a in order:  # also reaches the arcs appended below: breadth-first
                order += sorted({b for rel in rels if a in rel for b in rel}.difference(order))
    depth = {arc: t for t, arc in enumerate(order)}
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for rel in rels:
        checks[max(depth[a] for a in rel)].append(rel)
    values = [0] * n
    found: list[tuple[int, ...]] = []

    def search(t: int) -> None:
        if t == n:
            found.append(tuple(values))
            return
        arc, tests = order[t], checks[t]
        for v in range(m):
            values[arc] = v
            if all((values[i] + values[k] - 2 * values[j]) % m == 0 for i, k, j in tests):
                search(t + 1)

    search(0)
    return [Coloring(m, x) for x in sorted(found)]
