"""Dense integer matrix arithmetic and the oracles of the Smith form.

Everything here works on the dense entries of foxcolor's IntegerMatrix
and shares no code with foxcolor.linalg: exact products and Bareiss
determinants, the invariant factors from gcds of minors, and
smith_check, which holds a column transform c and invariant factors to
the definition of a Smith decomposition without the row transform.
"""

import itertools
from math import gcd

from foxcolor.linalg import IntegerMatrix

# the largest min(rows, cols) that minor_gcd_factors takes
MINOR_LIMIT = 6


def identity(n: int) -> IntegerMatrix:
    return IntegerMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def matmul(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    bt = tuple(zip(*b.entries)) if b.entries else tuple(() for _ in range(b.cols))
    data = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
        for row in a.entries
    )
    return IntegerMatrix(a.rows, b.cols, data)


def det(m: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def submatrix(m: IntegerMatrix, row_idx, col_idx) -> IntegerMatrix:
    rows = tuple(tuple(m.entries[i][j] for j in col_idx) for i in row_idx)
    return IntegerMatrix(len(row_idx), len(col_idx), rows)


def minor_gcd_factors(m: IntegerMatrix, max_dim: int = MINOR_LIMIT) -> tuple[int, ...]:
    """Invariant factors from gcds of k x k minors.

    d_1 * ... * d_k equals the gcd of all k x k minors, which gives an
    oracle for smith_normal_form that shares no code with it.  Exponential
    in the dimension, hence the size guard.
    """
    lim = min(m.rows, m.cols)
    if lim > max_dim:
        raise ValueError(f"minor oracle limited to min dimension {max_dim}")
    factors = []
    g_prev = 1
    for k in range(1, lim + 1):
        g = 0
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                g = gcd(g, det(submatrix(m, rows, cols)))
        if g == 0:
            factors.extend([0] * (lim - len(factors)))
            break
        factors.append(g // g_prev)
        g_prev = g
    return tuple(factors)


def columns_fit(m: IntegerMatrix, c: IntegerMatrix, factors: tuple[int, ...]) -> bool:
    """Whether c is unimodular and column j of m @ c is divisible by d_j.

    d_j is factors[j], and 0 past the factors; a column divisible by 0 is
    zero, so from the rank on the columns must vanish.
    """
    n = m.cols
    if (c.rows, c.cols) != (n, n) or det(c) not in (1, -1):
        return False
    padded = tuple(factors) + (0,) * (n - len(factors))
    columns = zip(*matmul(m, c).entries) if m.rows else ((),) * n
    return all(all(x == 0 for x in col) if d == 0 else all(x % d == 0 for x in col)
               for col, d in zip(columns, padded))


def smith_check(m: IntegerMatrix, c: IntegerMatrix, factors: tuple[int, ...],
                reference=None) -> bool:
    """Whether c and factors are the column transform and the invariant
    factors of a Smith decomposition of m.

    Three parts: det(c) = +-1; column j of m @ c divisible by d_j below
    the rank and zero from it on (columns_fit); and factors confirmed
    independently, by minor_gcd_factors up to MINOR_LIMIT, beyond it by
    equality of factors and c with those of reference(m), an elimination
    kept outside foxcolor that returns .invariant_factors and .c.

    With the true factors d_1 .. d_rho the first two parts are as strong
    as s = r @ m @ c for some unimodular r: the rho x rho minors of m @ c
    have gcd d_1 * ... * d_rho, so its first rho columns divided by the
    d_j have coprime maximal minors and extend to a unimodular matrix u
    with m @ c = u @ s, and r = u^-1.
    """
    if not columns_fit(m, c, factors):
        return False
    if min(m.rows, m.cols) <= MINOR_LIMIT:
        return tuple(factors) == minor_gcd_factors(m)
    if reference is None:
        raise ValueError(f"beyond min dimension {MINOR_LIMIT} the factors need a reference")
    want = reference(m)
    return (tuple(factors), c) == (want.invariant_factors, want.c)
