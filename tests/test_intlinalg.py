import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlg.intlinalg import (det_bareiss, identity, inverse_rational,
                           kernel_lattice_chart)
from tlg.lattice import snf_with_transforms


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def test_det_bareiss_small_cases():
    assert det_bareiss([[5]]) == 5
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert det_bareiss([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    # row swap flips the sign
    assert det_bareiss([[3, 4], [1, 2]]) == 2


def test_matrix_helpers():
    assert identity(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_snf_diagonal_and_transforms():
    m = [[12, 6, 4, 8],
         [3, 9, 6, 12],
         [2, 16, 14, 28],
         [20, 10, 10, 20]]
    s, u, v = snf_with_transforms(m)
    assert _mul(_mul(u, m), v) == s
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
    assert _mul(_mul(u, m), v) == s
    assert [s[0][0], s[1][1]] == [1, 0]


def test_snf_rectangular():
    m = [[2, 0, 0], [0, 6, 0]]
    s, u, v = snf_with_transforms(m)
    assert _mul(_mul(u, m), v) == s
    assert s[0][0] == 2 and s[1][1] == 6


def test_kernel_lattice_basis():
    basis, coords = kernel_lattice_chart([2, -3, 1])
    assert len(basis) == 2
    for vec in basis:
        assert 2 * vec[0] - 3 * vec[1] + vec[2] == 0
    # the coordinate rows invert the basis, and they read integer
    # coordinates of (1, 0, -2) and (0, 1, 3), which span the rank-2
    # kernel lattice, so the basis spans it too
    assert _mul(coords, transpose(basis)) == identity(2)
    for target in ([1, 0, -2], [0, 1, 3]):
        c = mat_vec(coords, target)
        assert mat_vec(transpose(basis), c) == target
    with pytest.raises(ValueError):
        kernel_lattice_chart([0, 0])


def test_kernel_lattice_chart_matches_the_smith_form_route():
    # the chart runs the Smith form's column steps on one row itself; the
    # reference reads the same basis off V and the coordinate rows off V^-1
    rng = random.Random(20181)
    for _ in range(2000):
        vec = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        if not any(vec):
            continue
        _s, _u, v = snf_with_transforms([vec])
        coords = [[int(x) for x in row] for row in inverse_rational(v)[1:]]
        assert kernel_lattice_chart(vec) == (transpose(v)[1:], coords), vec


def test_inverse_rational():
    inv = inverse_rational([[2, 1], [1, 1]])
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    with pytest.raises(ZeroDivisionError):
        inverse_rational([[1, 1], [1, 1]])


ENTRIES = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def square_matrices(draw):
    """Small int/Fraction square matrices; about half get a row that
    combines two earlier ones, so singular cases come up often."""
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=m, max_size=m),
                         min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        i = draw(st.integers(1, m - 1))
        j = draw(st.integers(0, i - 1))
        a, b = draw(ENTRIES), draw(ENTRIES)
        rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[j])]
    return rows


def _int_rows(rows):
    """Each row scaled by the lcm of its denominators (whether the
    determinant vanishes does not change)."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(Fraction(x) * den) for x in row])
    return out


@settings(max_examples=300, deadline=None)
@given(a=square_matrices())
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
