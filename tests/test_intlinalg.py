import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlg.intlinalg import (det_bareiss, identity, inverse_rational,
                           kernel_lattice_basis, mat_mul, mat_vec,
                           snf_with_transforms, solve_rational, transpose)


def test_det_bareiss_small_cases():
    assert det_bareiss([[5]]) == 5
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert det_bareiss([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    # row swap flips the sign
    assert det_bareiss([[3, 4], [1, 2]]) == 2


def test_matrix_helpers():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert mat_mul(a, b) == [[2, 1], [4, 3]]
    assert mat_vec(a, [1, 1]) == [3, 7]
    assert transpose(a) == [[1, 3], [2, 4]]
    assert identity(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_snf_diagonal_and_transforms():
    m = [[12, 6, 4, 8],
         [3, 9, 6, 12],
         [2, 16, 14, 28],
         [20, 10, 10, 20]]
    s, u, v = snf_with_transforms(m)
    assert mat_mul(mat_mul(u, m), v) == s
    diag = [s[i][i] for i in range(4)]
    assert diag == [1, 10, 30, 0]
    for i in range(4):
        for j in range(4):
            if i != j:
                assert s[i][j] == 0
    assert abs(det_bareiss(u)) == 1
    assert abs(det_bareiss(v)) == 1
    # successive divisibility of the nonzero invariant factors
    nz = [d for d in diag if d]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0


def test_snf_rank_deficient():
    m = [[2, 4], [1, 2]]
    s, u, v = snf_with_transforms(m)
    assert mat_mul(mat_mul(u, m), v) == s
    assert [s[0][0], s[1][1]] == [1, 0]


def test_snf_rectangular():
    m = [[2, 0, 0], [0, 6, 0]]
    s, u, v = snf_with_transforms(m)
    assert mat_mul(mat_mul(u, m), v) == s
    assert s[0][0] == 2 and s[1][1] == 6


def test_solve_rational():
    sol = solve_rational([[2, 0], [0, 4]], [1, 1])
    assert sol == [Fraction(1, 2), Fraction(1, 4)]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None
    sol2 = solve_rational([[1, 1], [1, 1]], [2, 2])
    assert sol2 is not None
    assert sum(sol2) == 2


def test_kernel_lattice_basis():
    basis = kernel_lattice_basis([2, -3, 1])
    assert len(basis) == 2
    for vec in basis:
        assert 2 * vec[0] - 3 * vec[1] + vec[2] == 0
    # the basis spans the full rank-2 kernel lattice: (1, 0, -2) and
    # (0, 1, 3) must be integer combinations of it
    for target in ([1, 0, -2], [0, 1, 3]):
        sol = solve_rational(transpose(basis), target)
        assert sol is not None
        assert all(c.denominator == 1 for c in sol)


def test_inverse_rational():
    inv = inverse_rational([[2, 1], [1, 1]])
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    with pytest.raises(ZeroDivisionError):
        inverse_rational([[1, 1], [1, 1]])


ENTRIES = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def matrices(draw, square=False):
    """Small int/Fraction matrices; about half get a row that combines two
    earlier ones, so rank-deficient cases come up often."""
    m = draw(st.integers(1, 4))
    n = m if square else draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        i = draw(st.integers(1, m - 1))
        j = draw(st.integers(0, i - 1))
        a, b = draw(ENTRIES), draw(ENTRIES)
        rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[j])]
    return rows


def _int_rows(rows):
    """Each row scaled by the lcm of its denominators (rank and whether
    the determinant vanishes do not change)."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(Fraction(x) * den) for x in row])
    return out


def _rank(rows):
    """Largest nonvanishing minor, by Bareiss determinants."""
    rows = _int_rows(rows)
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for r in itertools.combinations(range(m), k):
            for c in itertools.combinations(range(n), k):
                if det_bareiss([[rows[i][j] for j in c] for i in r]):
                    return k
    return 0


@settings(max_examples=300, deadline=None)
@given(data=st.data(), a=matrices())
def test_solve_rational_solves_or_reports_inconsistency(data, a):
    n = len(a[0])
    if data.draw(st.booleans()):
        y = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
        b = [sum(Fraction(x) * yj for x, yj in zip(row, y)) for row in a]
    else:
        b = data.draw(st.lists(ENTRIES, min_size=len(a), max_size=len(a)))
    x = solve_rational(a, b)
    augmented = [list(row) + [bi] for row, bi in zip(a, b)]
    if x is None:
        assert _rank(augmented) > _rank(a)
    else:
        assert _rank(augmented) == _rank(a)
        assert len(x) == n
        assert all(isinstance(xj, Fraction) for xj in x)
        assert [sum(Fraction(aij) * xj for aij, xj in zip(row, x))
                for row in a] == [Fraction(bi) for bi in b]


@settings(max_examples=300, deadline=None)
@given(a=matrices(square=True))
def test_inverse_rational_inverts_or_raises_on_singular(a):
    n = len(a)
    if det_bareiss(_int_rows(a)) == 0:
        with pytest.raises(ZeroDivisionError):
            inverse_rational(a)
        return
    inv = inverse_rational(a)
    product = [[sum(inv[i][k] * a[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    assert product == identity(n)
