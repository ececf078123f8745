import pytest

from tlg.laurent import LaurentPoly, NotLaurent
from tlg.mutation import (MutationData, PivotInFactor, SliceNotDivisible,
                          elementary_mutation, polytope_mutation_effect)
from tlg.polytope import NotFullDimensional, Polytope, newton_polytope
from tlg.series import phi_coefficients

S7_VARS = ("x", "y", "q0", "q1", "q2")


def s7_model():
    x, y, q0, q1, q2 = (LaurentPoly.variable(n, S7_VARS) for n in S7_VARS)
    return x + y + q0 * (x * y) ** -1 + q0 * q1 * y ** -1 + q2 * x * y


def test_basic_mutation():
    vs = ("x", "y")
    x, y = (LaurentPoly.variable(n, vs) for n in vs)
    f = y + x * y + y ** -1
    g = elementary_mutation(f, "y", 1 + x)
    assert g == y + (1 + x) * y ** -1


def test_mutation_of_rank_three_surface_model():
    f = s7_model()
    x, y, q0, q1, q2 = (LaurentPoly.variable(n, S7_VARS) for n in S7_VARS)
    g = elementary_mutation(f, "y", 1 + q2 * x)
    expected = (x + y + q0 * (x * y) ** -1
                + (q0 * q1 + q0 * q2) * y ** -1
                + q0 * q1 * q2 * x * y ** -1)
    assert g == expected


def test_mutation_preserves_period():
    f = s7_model()
    g = elementary_mutation(f, "y", 1 + LaurentPoly.variable("q2", S7_VARS)
                            * LaurentPoly.variable("x", S7_VARS))
    a = phi_coefficients(f, 8, period_vars=("x", "y"))
    b = phi_coefficients(g, 8, period_vars=("x", "y"))
    assert a == b


def test_mutation_is_an_involution():
    f = s7_model()
    factor = 1 + (LaurentPoly.variable("q2", S7_VARS)
                  * LaurentPoly.variable("x", S7_VARS))
    g = elementary_mutation(f, "y", factor)
    back = elementary_mutation(g, "y", factor, exponent_rule=lambda k: k)
    assert back == f


def test_mutation_custom_rule_mapping():
    vs = ("x", "y")
    x, y = (LaurentPoly.variable(n, vs) for n in vs)
    f = y + x * y + y ** -1
    g = elementary_mutation(f, "y", 1 + x, exponent_rule={1: 0, -1: 0})
    assert g == f
    h = elementary_mutation(f, "y", 1 + x, exponent_rule={1: -1, -1: 1})
    assert h == y + (1 + x) * y ** -1
    with pytest.raises(ValueError):
        elementary_mutation(f, "y", 1 + x, exponent_rule={1: -1})


def test_mutation_witness_errors():
    vs = ("x", "y")
    x, y = (LaurentPoly.variable(n, vs) for n in vs)
    with pytest.raises(NotLaurent):
        elementary_mutation(y + y ** -1, "y", 1 + x)
    with pytest.raises(PivotInFactor):
        elementary_mutation(y + x * y, "y", 1 + y)
    with pytest.raises(ValueError):
        elementary_mutation(y + x * y, "z", 1 + x)
    with pytest.raises(ValueError):
        elementary_mutation(y + x * y, "y", LaurentPoly.zero(vs))


def test_polytope_mutation_matches_newton_polytope():
    f = s7_model()
    factor = 1 + (LaurentPoly.variable("q2", S7_VARS)
                  * LaurentPoly.variable("x", S7_VARS))
    g = elementary_mutation(f, "y", factor)

    def xy_hull(h):
        pts = set()
        for e, _ in h.terms():
            i, j = h.variables.index("x"), h.variables.index("y")
            pts.add((e[i], e[j]))
        return Polytope(pts)

    data = MutationData((0, 1), Polytope([(0, 0), (1, 0)]))
    moved = polytope_mutation_effect(xy_hull(f), data)
    assert moved == xy_hull(g)


def test_polytope_mutation_effect_in_3d():
    simplex = Polytope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    data = MutationData((0, 0, 1), Polytope([(0, 0, 0)]))
    assert polytope_mutation_effect(simplex, data) == simplex


# the shear A = [[1, 0, 0], [1, 1, 0], [2, -1, 1]] has det 1 and takes the
# height <(0, 0, 1), v> to <(-3, 1, 1), A v>
SHEAR = ((1, 0, 0), (1, 1, 0), (2, -1, 1))


def _shear(p):
    return Polytope(tuple(sum(a * b for a, b in zip(row, v)) for row in SHEAR)
                    for v in p.vertices)


X, Y, Z = (LaurentPoly.variable(n, ("x", "y", "z")) for n in "xyz")
THREE_VARIABLE_CASES = {
    "triangle": (Z * (1 + X + Y) + X + Y + (X * Y * Z) ** -1, 1 + X + Y),
    "segment": (Z * (1 + X) ** 2 + Y + X ** -1 + (1 + X) * (Y * Z ** 2) ** -1,
                1 + X),
}


@pytest.mark.parametrize("f, factor", THREE_VARIABLE_CASES.values(),
                         ids=THREE_VARIABLE_CASES.keys())
def test_polytope_mutation_effect_in_3d_moves_a_factor(f, factor):
    g = elementary_mutation(f, "z", factor)
    data = MutationData((0, 0, 1), newton_polytope(factor))
    moved = polytope_mutation_effect(newton_polytope(f), data)
    assert moved == newton_polytope(g)
    assert moved != newton_polytope(f)
    # the same mutation in sheared coordinates, whose slice planes are
    # not coordinate planes
    sheared = MutationData((-3, 1, 1), _shear(data.factor))
    assert polytope_mutation_effect(_shear(newton_polytope(f)), sheared) \
        == _shear(moved)


def test_polytope_mutation_with_a_factor_that_misses_the_origin():
    # x (1 + x + y) divides the height-1 slice 1 + x + y to x^-1: the
    # difference is taken against the factor where it lies, not after
    # a translation to the origin
    f, factor = Z * (1 + X + Y) + X + Y + (X * Y * Z) ** -1, X * (1 + X + Y)
    data = MutationData((0, 0, 1), newton_polytope(factor))
    assert polytope_mutation_effect(newton_polytope(f), data) \
        == newton_polytope(elementary_mutation(f, "z", factor))


FOUR_VARS = ("x", "y", "u", "z")
X4, Y4, U4, Z4 = (LaurentPoly.variable(n, FOUR_VARS) for n in FOUR_VARS)


def _layered(layers, factor):
    """The sum of z^k g_k factor^max(k, 0) over the items k: g_k of layers,
    plus a simplex at height 0 that makes the Newton polytope
    full-dimensional."""
    f = X4 + Y4 + U4 + (X4 * Y4 * U4) ** -1
    for k, g in layers.items():
        f = f + Z4 ** k * g * factor ** max(k, 0)
    return f


FOUR_VARIABLE_CASES = {
    "segment": ({1: Y4 + U4, -1: (X4 * Y4) ** -1}, 1 + X4),
    "triangle": ({2: U4, 1: X4 ** -1 + U4, -1: U4 ** -1},
                 1 + X4 + Y4),
    "square": ({1: Y4 * U4 ** -1, -2: Y4 ** -1 + X4}, (1 + X4) * (1 + U4)),
}


@pytest.mark.parametrize("layers, factor", FOUR_VARIABLE_CASES.values(),
                         ids=FOUR_VARIABLE_CASES.keys())
def test_polytope_mutation_effect_in_4d_matches_newton_polytope(layers,
                                                                factor):
    f = _layered(layers, factor)
    data = MutationData((0, 0, 0, 1), newton_polytope(factor))
    moved = polytope_mutation_effect(newton_polytope(f), data)
    assert moved == newton_polytope(elementary_mutation(f, "z", factor))
    assert moved != newton_polytope(f)


def test_polytope_mutation_errors():
    square = Polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    seg = Polytope([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        polytope_mutation_effect(square, MutationData((0, 1),
                                                      Polytope([(0, 1)])))
    with pytest.raises(ValueError):
        polytope_mutation_effect(square, MutationData((0, 0), seg))
    with pytest.raises(NotFullDimensional):
        polytope_mutation_effect(seg, MutationData((0, 1), seg))
    with pytest.raises(SliceNotDivisible):
        tri = Polytope([(0, 0), (1, 0), (0, 1)])
        polytope_mutation_effect(tri, MutationData((0, 1), seg))
    cube4 = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    p4 = Polytope(cube4 + [(-1, -1, -1, -1)])
    assert polytope_mutation_effect(p4, MutationData(
        (0, 0, 0, 1), Polytope([(0, 0, 0, 0)]))) == p4


def test_polytope_mutation_square_collapse():
    square = Polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    seg = Polytope([(0, 0), (1, 0)])
    moved = polytope_mutation_effect(square, MutationData((0, 1), seg))
    assert moved == Polytope([(0, 0), (1, 0), (0, 1)])
