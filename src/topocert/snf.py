"""Smith normal form over the integers, with transform matrices.

Plain Python integers throughout; no modular shortcuts, no overflow.

Each pass of the elimination swaps the smallest nonzero entry of the
submatrix from (t, t) on to (t, t) and clears column t and row t with it by
adding multiples of row t to the rows below (in D and U together) and of
column t to the columns right of it (in D and V together).  A remainder is
smaller than the pivot, so the next pass pivots on it or a smaller entry; a
row with an entry the pivot does not divide is added into row t, and passes
go on until the pivot divides every entry left.  Its sign is fixed last.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

Matrix = List[List[int]]


def _identity(k: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner = len(a), (len(a[0]) if a else 0)
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += x * bk[j]
    return out


def _check_rect(mat: Sequence[Sequence[int]]) -> Tuple[int, int]:
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    for r in mat:
        if len(r) != cols:
            raise ValueError("matrix rows must all have the same length")
    return rows, cols


def smith_normal_form(mat: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U @ mat @ V == D.

    U and V are unimodular, D is diagonal with nonnegative entries satisfying
    d1 | d2 | ... .  The identity is re-verified before returning.
    """
    rows, cols = _check_rect(mat)
    D = [[int(x) for x in r] for r in mat]
    U, V = _identity(rows), _identity(cols)

    def add_row(i, t, q):  # row_i += q * row_t, in D and U
        D[i] = [a + q * b for a, b in zip(D[i], D[t])]
        U[i] = [a + q * b for a, b in zip(U[i], U[t])]

    def add_col(j, t, q):  # col_j += q * col_t, in D and V
        for r in D + V:
            r[j] += q * r[t]

    for t in range(min(rows, cols)):
        while True:
            # rows t.. are zero left of column t
            size = [abs(x) for r in D[t:] for x in r]
            if not any(size):
                break
            k = size.index(min(filter(None, size)))  # the first smallest
            i, j = t + k // cols, k % cols
            D[t], D[i], U[t], U[i] = D[i], D[t], U[i], U[t]
            for r in D + V:
                r[t], r[j] = r[j], r[t]
            p = D[t][t]
            for i in range(t + 1, rows):
                if D[i][t]:
                    add_row(i, t, -(D[i][t] // p))
            for j in range(t + 1, cols):
                if D[t][j]:
                    add_col(j, t, -(D[t][j] // p))
            # p must divide every entry left: a remainder in row t is taken
            # up by the next pass, and a row below with an entry p does not
            # divide is added into row t first
            bad = [i for i in range(t, rows) for x in D[i] if x % p]
            if not bad:
                break
            if bad[0] > t:
                add_row(t, bad[0], 1)
        if D[t][t] < 0:
            D[t], U[t] = [-x for x in D[t]], [-x for x in U[t]]

    check = matmul(matmul(U, [list(r) for r in mat]), V)
    if check != D:
        raise AssertionError("smith normal form bookkeeping failed")
    diag = diagonal(D)
    for a, b in zip(diag, diag[1:]):
        if b and (a == 0 or b % a):
            raise AssertionError("divisor chain violated")
    return U, D, V


def diagonal(D: Sequence[Sequence[int]]) -> List[int]:
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]
