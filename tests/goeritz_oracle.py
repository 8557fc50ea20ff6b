"""The non-unit invariant factors of a coloring matrix from the Goeritz matrix.

The coloring module of a knot or link diagram is Z + H1 of its double
branched cover, and the Goeritz matrix presents that homology (Goeritz,
Math. Z. 1933; Gordon and Litherland, Invent. Math. 1978).  So the
invariant factors other than 1 of the coloring matrix, padded with zeros
to one per arc, are those of the Goeritz matrix, which is built from the
faces of the diagram instead of its arcs.

Everything here works on the raw crossings, PD quadruples read
counterclockwise from the incoming under-edge, and shares no code with
foxcolor: it traces the faces, colors them like a checkerboard, builds
the Goeritz matrix G and diagonalizes G by its own elimination.  Each
white face is one row and column.  A crossing joins the white faces at
two opposite corners; eta is +1 when the corner between slots 0 and 1 is
white and -1 otherwise, and G_ij = -(sum of eta over the crossings joining
white faces i != j), with each row summing to zero.  A nugatory crossing
joins a white face to itself and adds nothing.  As the rows and columns
of G sum to zero, the cokernel of G on a connected diagram is Z plus that
of G with one row and column deleted, which is the coloring module; on a
split diagram G is the sum of its components', as the coloring matrix
is, so no row or column is deleted.
"""

from math import gcd


def faces(crossings):
    """The faces as lists of corners; corner 4c + i is the corner of crossing
    c between its slots i and i + 1, counterclockwise.

    The edge at slot i + 1 leads to its other slot, 4c' + j, and the face
    goes on at corner 4c' + j, on the same side of the edge.
    """
    slots = {}
    for s, label in enumerate(e for quad in crossings for e in quad):
        slots.setdefault(label, []).append(s)
    mate = {}
    for a, b in slots.values():
        mate[a], mate[b] = b, a
    seen, out = set(), []
    for start in range(4 * len(crossings)):
        face = []
        corner = start
        while corner not in seen:
            seen.add(corner)
            face.append(corner)
            corner = mate[corner - corner % 4 + (corner + 1) % 4]
        if face:
            out.append(face)
    return out


def goeritz_matrix(crossings):
    """G over the white faces, as {column: value} rows."""
    face_of = {corner: f for f, face in enumerate(faces(crossings)) for corner in face}
    # the two corners on either side of an edge, as at a crossing, differ in color
    neighbours = {}
    for c in range(len(crossings)):
        for i in range(4):
            a, b = face_of[4 * c + i], face_of[4 * c + (i + 1) % 4]
            neighbours.setdefault(a, set()).add(b)
            neighbours.setdefault(b, set()).add(a)
    white = {}
    for root in neighbours:
        if root in white:
            continue
        white[root] = True
        todo = [root]
        while todo:
            f = todo.pop()
            for g in neighbours[f]:
                if g not in white:
                    white[g] = not white[f]
                    todo.append(g)
                elif white[g] == white[f]:
                    raise ValueError("the faces admit no checkerboard coloring")
    index = {f: i for i, f in enumerate(sorted(f for f, w in white.items() if w))}
    rows = [{} for _ in index]
    for c in range(len(crossings)):
        first = 0 if white[face_of[4 * c]] else 1  # the white corners: first, first + 2
        eta = 1 - 2 * first
        i, j = index[face_of[4 * c + first]], index[face_of[4 * c + first + 2]]
        if i == j:
            continue
        for r, k, x in ((i, j, -eta), (j, i, -eta), (i, i, eta), (j, j, eta)):
            rows[r][k] = rows[r].get(k, 0) + x
    return [{k: v for k, v in row.items() if v} for row in rows]


def diagonal(rows, n):
    """The diagonal of a diagonalization of the n-column matrix whose rows
    these {column: value} dicts are, one entry per column, zeros last.

    Pivots are the entries of smallest absolute value, ties by fewest
    other entries in their row times their column; a pivot that does not
    divide the rest of its row and column leaves a smaller remainder,
    which pivots next.
    """
    a = {i: dict(row) for i, row in enumerate(rows) if row}
    cols = {}
    for i, row in a.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    out = []
    while a:
        _, _, i, j = min((abs(v), (len(row) - 1) * (len(cols[j]) - 1), i, j)
                         for i, row in a.items() for j, v in row.items())
        p = a[i][j]
        for r in cols[j] - {i}:
            q = a[r][j] // p
            for k, v in a[i].items():
                x = a[r].get(k, 0) - q * v
                if x:
                    a[r][k] = x
                    cols.setdefault(k, set()).add(r)
                elif k in a[r]:
                    del a[r][k]
                    cols[k].discard(r)
            if not a[r]:
                del a[r]
        if len(cols[j]) > 1:
            continue
        # column j is p at row i alone: column operations change row i only
        for k in [k for k in a[i] if k != j]:
            x = a[i][k] % p
            if x:
                a[i][k] = x
            else:
                del a[i][k]
                cols[k].discard(i)
        if len(a[i]) > 1:
            continue
        out.append(abs(p))
        del a[i]
        del cols[j]
    return out + [0] * (n - len(out))


def invariant_factors(diag):
    """The invariant factors of a diagonal matrix: each divides the next."""
    f = list(diag)
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            g = gcd(f[i], f[j])
            if g:
                f[i], f[j] = g, f[i] * f[j] // g
    return f


def goeritz_factors(crossings) -> tuple[int, ...]:
    """The invariant factors other than 1 of the coloring matrix of the
    diagram with these PD crossings, zeros included."""
    rows = goeritz_matrix(crossings)
    return tuple(d for d in invariant_factors(diagonal(rows, len(rows))) if d != 1)
