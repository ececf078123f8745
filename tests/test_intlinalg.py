import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

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


def _minor_gcd(m, k):
    """gcd of the k x k minors of m."""
    rows, cols = range(len(m)), range(len(m[0]))
    return gcd(*(det_bareiss([[m[i][j] for j in cs] for i in rs])
                 for rs in combinations(rows, k) for cs in combinations(cols, k)))


def _assert_smith_form(m):
    # s_1 ... s_k is the gcd of the k x k minors, V is unimodular, and
    # column j of m V is s_j times column j of U^-1, so s_j divides it
    s, v = snf_with_transforms(m)
    rows, cols = len(m), len(m[0])
    assert [len(row) for row in s] == [cols] * rows
    assert all(x == 0 for i, row in enumerate(s) for j, x in enumerate(row)
               if i != j)
    diag = [s[j][j] if j < rows else 0 for j in range(cols)]
    for k in range(1, min(rows, cols) + 1):
        assert prod(diag[:k]) == _minor_gcd(m, k), (m, s)
    assert abs(det_bareiss(v)) == 1
    for j, col in enumerate(zip(*_mul(m, v))):
        assert all(x % diag[j] == 0 if diag[j] else x == 0 for x in col)
    return diag


def _random_matrices(seed, shape, rank_deficient=False):
    rng = random.Random(seed)
    for _ in range(300):
        rows, cols = shape(rng)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        if rank_deficient:
            # row i becomes a combination of the others
            i = rng.randrange(rows)
            j, k = (rng.choice([r for r in range(rows) if r != i])
                    for _ in range(2))
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
        yield m


def test_snf_diagonal_and_transforms():
    m = [[12, 6, 4, 8],
         [3, 9, 6, 12],
         [2, 16, 14, 28],
         [20, 10, 10, 20]]
    diag = _assert_smith_form(m)
    assert diag == [1, 10, 30, 0]
    # successive divisibility of the nonzero invariant factors
    nz = [d for d in diag if d]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    for m in _random_matrices(36, lambda rng: (rng.randint(1, 4),) * 2):
        _assert_smith_form(m)


def test_snf_rank_deficient():
    assert _assert_smith_form([[2, 4], [1, 2]]) == [1, 0]
    for m in _random_matrices(
            37, lambda rng: (rng.randint(2, 4), rng.randint(1, 4)), True):
        _assert_smith_form(m)


def test_snf_rectangular():
    assert _assert_smith_form([[2, 0, 0], [0, 6, 0]]) == [2, 6, 0]
    for m in _random_matrices(
            38, lambda rng: rng.sample(range(1, 6), 2)):
        _assert_smith_form(m)


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
        _s, v = snf_with_transforms([vec])
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
