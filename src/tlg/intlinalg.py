"""Exact linear algebra over Z and Q shared by the polytope, lattice and
Picard-Fuchs modules.

Matrices are lists of lists (rows). Everything here is arbitrary precision
and stays in int while it eliminates: the one row elimination is the
fraction-free echelon `_IntEchelon`, and `inverse_rational` clears the
denominators of each row first and forms Fractions only from its final
rows. The chart of a hyperplane's kernel lattice, `kernel_lattice_chart`,
runs the column steps of the Smith form of one row in int and keeps the
inverse of the unimodular transform beside it, so a point's coordinates
are the dot products of its integer rows with the point, with no linear
system solved and no Fraction. That chart serves only
`polytope.lattice_chart`, the facet charts of the Minkowski check. The
Smith form with transforms is `lattice.snf_with_transforms`, beside its
only caller `discriminant`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, List, Sequence, Tuple

Matrix = List[List[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def _denominator(points: Iterable[Sequence]) -> int:
    """Least common denominator of the int and Fraction coordinates."""
    den = 1
    for p in points:
        for x in p:
            if not isinstance(x, int):
                q = x.denominator
                den = den * q // gcd(den, q)
    return den


def _integral(vec: Sequence) -> List[int]:
    """vec scaled by the least positive integer clearing its denominators."""
    den = _denominator((vec,))
    return [int(x * den) for x in vec]


class _IntEchelon:
    """Fraction-free reduced row echelon form over Z, grown row by row.

    Every stored row is primitive with its pivot as leading, positive
    entry, and each pivot column is zero in every other row. Scaling a row
    by a nonzero integer changes neither the span nor the kernel, so ranks
    are exact, the rows are the unique reduced echelon form of the span up
    to order and scale, and a corank-one system yields its primitive kernel
    generator directly.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows: List[List[int]] = []
        self.pivots: List[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: Sequence[int]) -> bool:
        """Insert an integer vector; True when it enlarged the span."""
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                a = row[piv]
                g = gcd(a, c)
                a //= g
                c //= g
                v = [a * x - c * y for x, y in zip(v, row)]
        for piv, a in enumerate(v):
            if a:
                break
        else:
            return False
        g = gcd(*v)
        if a < 0:
            g = -g
        if g != 1:
            v = [x // g for x in v]
        a = v[piv]
        rows = self.rows
        for k, row in enumerate(rows):
            c = row[piv]
            if c:
                g = gcd(a, c)
                r = [(a // g) * x - (c // g) * y for x, y in zip(row, v)]
                g = gcd(*r)
                rows[k] = [x // g for x in r] if g != 1 else r
        rows.append(v)
        self.pivots.append(piv)
        return True

    def kernel_basis(self, width: int) -> List[List[int]]:
        """One integer kernel vector per free column f, in column order.

        Row i reads a_i x_(p_i) + sum of row_i[g] x_g over the free columns
        g = 0. Taking x_f = lcm of the a_i of the rows meeting f, and every
        other free column 0, leaves each x_(p_i) = -row_i[f] x_f / a_i
        integral; the vectors span the kernel over Q.
        """
        basis = []
        for f in range(width):
            if f in self.pivots:
                continue
            lcm = 1
            for row, piv in zip(self.rows, self.pivots):
                if row[f]:
                    a = row[piv]
                    lcm = lcm * a // gcd(lcm, a)
            vec = [0] * width
            vec[f] = lcm
            for row, piv in zip(self.rows, self.pivots):
                vec[piv] = -row[f] * (lcm // row[piv])
            basis.append(vec)
        return basis

    def kernel_vector(self, width: int) -> Tuple[int, ...]:
        """Primitive generator of the kernel, which must be a line.

        With one free column f every row reads a_i x_(p_i) + b_i x_f = 0
        with gcd(a_i, b_i) = 1, and a row with b_i = 0 has a_i = 1. So
        x_f = lcm(a_i) leaves, for every prime of x_f, some
        x_(p_i) = -b_i x_f / a_i that it does not divide, and the vector of
        kernel_basis is primitive without a final gcd.
        """
        basis = self.kernel_basis(width)
        if len(basis) != 1:
            raise ValueError("kernel is not one-dimensional")
        return tuple(basis[0])


def _echelon(rows: Iterable[Sequence]) -> _IntEchelon:
    """Echelon of the span of int or Fraction rows, each cleared of its
    denominators first."""
    ech = _IntEchelon()
    for row in rows:
        ech.add(_integral(row))
    return ech


def inverse_rational(mat: Sequence[Sequence]) -> List[List[Fraction]]:
    """Exact inverse of a nonsingular square matrix, read off the echelon
    of [mat | I]; the matrix is singular exactly when a pivot falls in I."""
    n = len(mat)
    ech = _echelon(list(row) + [int(i == j) for j in range(n)]
                   for i, row in enumerate(mat))
    inv: List[List[Fraction]] = [[] for _ in range(n)]
    for row, piv in zip(ech.rows, ech.pivots):
        if piv >= n:
            raise ZeroDivisionError("singular matrix")
        inv[piv] = [Fraction(x, row[piv]) for x in row[n:]]
    return inv


def kernel_lattice_chart(vec: Sequence[int]
                         ) -> Tuple[List[List[int]], List[List[int]]]:
    """Basis of the sublattice {x in Z^n : <vec, x> = 0} for a nonzero vec,
    with the rows that read coordinates in it.

    The column steps of the Smith form of the row [vec] (a smallest nonzero
    entry swapped to the front, then column j -= q column 0, swapped in
    when a remainder is left) bring it to (g, 0, ..., 0) = [vec] * V.
    Columns 2..n of V span the kernel lattice. V^-1 is kept beside V: a
    column swap of V swaps rows of V^-1, and column j += c column 0 of V
    is row 0 -= c row j of V^-1. V is unimodular, so V^-1 is integral, and
    since V^-1 V = I its rows 2..n send a kernel vector to its coordinates
    in that basis (and each basis vector to a unit vector).
    """
    a = list(vec)
    n = len(a)
    if not any(a):
        raise ValueError("zero vector has full kernel")
    cols, inv = identity(n), identity(n)  # the columns of V, and V^-1

    def swap(j):
        a[0], a[j] = a[j], a[0]
        cols[0], cols[j] = cols[j], cols[0]
        inv[0], inv[j] = inv[j], inv[0]

    swap(min((j for j in range(n) if a[j]), key=lambda j: abs(a[j])))
    done = False
    while not done:
        done = True
        for j in range(1, n):
            if a[j]:
                q = a[j] // a[0]
                a[j] -= q * a[0]
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[0])]
                inv[0] = [x + q * y for x, y in zip(inv[0], inv[j])]
                if a[j]:
                    swap(j)
                    done = False
    return cols[1:], inv[1:]
