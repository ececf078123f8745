"""Exact linear algebra over Z and Q shared by the polytope and lattice modules.

Matrices are lists of lists (rows). Everything here is arbitrary precision:
integer routines stay in int, rational routines use fractions.Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += aik * bk[j]
    return out


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    return [sum(ai[j] * v[j] for j in range(len(v))) for ai in a]


def transpose(a: Sequence[Sequence]) -> list:
    return [list(col) for col in zip(*a)]


def det_bareiss(mat: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
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
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def snf_with_transforms(mat: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix, Matrix]:
    """Smith normal form S = U * mat * V with U, V unimodular.

    Returns (S, U, V). S is diagonal (padded with zero rows/cols for
    non-square input) with s_1 | s_2 | ... | s_r, all nonnegative.
    """
    a = [list(row) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = identity(m)
    v = identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        arow, usrc = a[src], u[src]
        for j in range(n):
            a[dst][j] += c * arow[j]
        for j in range(m):
            u[dst][j] += c * usrc[j]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # find a pivot
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            # clear column t
            done = True
            for i in range(t + 1, m):
                if a[i][t] % a[t][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    swap_rows(t, i)
                    done = False
                elif a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
            if not done:
                continue
            for j in range(t + 1, n):
                if a[t][j] % a[t][t] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    # move the smaller remainder into the pivot slot
                    swap_cols(t, j)
                    done = False
                elif a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
            if done:
                break
        # divisibility condition against the rest of the matrix
        d = a[t][t]
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % d != 0:
                    add_row(i, t, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if d < 0:
            negate_row(t)
        t += 1
    return a, u, v


def solve_rational(mat: Sequence[Sequence], rhs: Sequence) -> Optional[List[Fraction]]:
    """Solve mat * x = rhs exactly; None when inconsistent.

    For underdetermined systems returns one solution (free variables at 0).
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(m)]
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if aug[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                c = aug[i][col]
                aug[i] = [xi - c * xr for xi, xr in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = aug[i][n]
    return x


def inverse_rational(mat: Sequence[Sequence]) -> List[List[Fraction]]:
    """Exact inverse of a nonsingular square matrix."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)]
           + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if aug[i][col] != 0:
                piv = i
                break
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                c = aug[i][col]
                aug[i] = [xi - c * xr for xi, xr in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def in_lattice(generators: Sequence[Sequence[int]], x: Sequence[int]) -> bool:
    """Whether x lies in the integer span of the generator vectors."""
    if not generators:
        return all(v == 0 for v in x)
    cols = [list(col) for col in zip(*generators)]  # columns are generators
    s, u, _v = snf_with_transforms(cols)
    y = mat_vec(u, list(x))
    r = min(len(s), len(s[0]))
    for i in range(len(y)):
        if i < r and s[i][i] != 0:
            if y[i] % s[i][i] != 0:
                return False
        elif y[i] != 0:
            return False
    return True


def kernel_lattice_basis(vec: Sequence[int]) -> List[List[int]]:
    """Basis of the sublattice {x in Z^n : <vec, x> = 0} for a nonzero vec."""
    s, _u, v = snf_with_transforms([list(vec)])
    # vec * V = (g, 0, ..., 0): columns 2..n of V span the kernel lattice
    if s[0][0] == 0:
        raise ValueError("zero vector has full kernel")
    n = len(vec)
    cols = transpose(v)
    return [list(cols[j]) for j in range(1, n)]
