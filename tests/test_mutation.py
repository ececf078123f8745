import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlg import builders, intlinalg, mutation
from tlg.laurent import LaurentPoly, NotLaurent
from tlg.mutation import (MutationData, PivotInFactor, SliceNotDivisible,
                          elementary_mutation, polytope_mutation_effect)
from tlg.parametric import phi_coefficients
from tlg.polytope import (DimensionMismatch, NotFullDimensional, Polytope,
                          newton_polytope)

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



def test_a_mapping_rule_must_cover_every_height_of_the_polytope():
    # the Laurent side asks the rule only at the heights 1 and -1 that
    # have terms; the polytope side slices at every height from -1 to 1
    vs = ("x", "y")
    x, y = (LaurentPoly.variable(n, vs) for n in vs)
    f, rule = y + x * y + y ** -1, {1: -1, -1: 1}
    assert elementary_mutation(f, "y", 1 + x, exponent_rule=rule) == \
        y ** -1 + y + x * y ** -1
    data = MutationData((0, 1), Polytope([(0, 0), (1, 0)]), rule)
    with pytest.raises(ValueError, match=r"heights \[0\]; .* from -1 to 1"):
        polytope_mutation_effect(newton_polytope(f), data)

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
    full-dimensional. The variables are those of factor, with z last."""
    *xs, z = (LaurentPoly.variable(n, factor.variables)
              for n in factor.variables)
    f = sum(xs[1:], xs[0]) + math.prod(xs[1:], start=xs[0]) ** -1
    for k, g in layers.items():
        f = f + z ** k * g * factor ** max(k, 0)
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


FIVE_VARS = ("x", "y", "u", "v", "z")
X5, Y5, U5, V5, Z5 = (LaurentPoly.variable(n, FIVE_VARS) for n in FIVE_VARS)
FIVE_VARIABLE_CASES = {
    "segment": ({1: Y5 + U5 * V5, -1: (X5 * Y5) ** -1 + V5}, 1 + X5),
    "triangle": ({2: U5, 1: X5 ** -1 + V5, -1: U5 ** -1 + Y5 * V5 ** -1},
                 1 + X5 + Y5),
    "square": ({1: Y5 * U5 ** -1 + V5, -2: Y5 ** -1 + X5 * V5},
               (1 + X5) * (1 + U5)),
}


@pytest.mark.parametrize("layers, factor", FIVE_VARIABLE_CASES.values(),
                         ids=FIVE_VARIABLE_CASES.keys())
def test_polytope_mutation_effect_in_5d_matches_newton_polytope(layers,
                                                                factor):
    f = _layered(layers, factor)
    data = MutationData((0, 0, 0, 0, 1), newton_polytope(factor))
    moved = polytope_mutation_effect(newton_polytope(f), data)
    assert moved == newton_polytope(elementary_mutation(f, "z", factor))
    assert moved != newton_polytope(f)


def _unimodular(draw, d):
    """A random product of elementary shears and its inverse."""
    a = [[int(i == j) for j in range(d)] for i in range(d)]
    inv = [row[:] for row in a]
    for _ in range(draw(st.integers(0, 2 * d))):
        i, j = draw(st.permutations(range(d)))[:2]
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in inv:
            row[j] -= c * row[i]
    return a, inv


@st.composite
def _layered_mutations(draw):
    """A layered f in 3 to 5 variables, pivot last, with a factor in the
    others and a unimodular shear A with its inverse."""
    n = draw(st.integers(3, 5))
    names = tuple(f"x{i}" for i in range(n))
    exps = st.tuples(*[st.integers(-1, 1)] * (n - 1), st.just(0))

    def poly(size):
        return LaurentPoly(names, {e: 1 for e in draw(
            st.lists(exps, min_size=1, max_size=size))})
    factor = poly(3)
    layers = {k: poly(2) for k in draw(st.lists(
        st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=3,
        unique=True))}
    return _layered(layers, factor), factor, _unimodular(draw, n)


@settings(max_examples=100, deadline=None)
@given(_layered_mutations())
def test_polytope_mutation_matches_laurent_mutation_under_a_shear(case):
    f, factor, (a, inv) = case

    def sheared(q):
        return Polytope(tuple(sum(x * y for x, y in zip(row, v)) for row in a)
                        for v in q.vertices)
    g = elementary_mutation(f, f.variables[-1], factor)
    # heights <e_n, v> become <w, A v> with w the last row of A^-1
    data = MutationData(tuple(inv[-1]), sheared(newton_polytope(factor)))
    assert polytope_mutation_effect(sheared(newton_polytope(f)), data) \
        == sheared(newton_polytope(g))


SIMPLEX3 = Polytope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])


def test_polytope_mutation_rejects_a_short_direction():
    with pytest.raises(DimensionMismatch):
        polytope_mutation_effect(SIMPLEX3, MutationData(
            (0, 1), Polytope([(0, 0)])))


def test_polytope_mutation_rejects_a_factor_in_another_dimension():
    with pytest.raises(DimensionMismatch):
        polytope_mutation_effect(SIMPLEX3, MutationData(
            (0, 0, 1), Polytope([(0, 0), (1, 0)])))


def test_polytope_mutation_rejects_a_non_integer_direction():
    with pytest.raises(TypeError, match="integer"):
        polytope_mutation_effect(SIMPLEX3, MutationData(
            (0, 0.5, 1), Polytope([(0, 0, 0)])))


def test_exponent_rule_rejects_a_non_integer_power():
    vs = ("x", "y")
    x, y = (LaurentPoly.variable(n, vs) for n in vs)
    square = Polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    seg = Polytope([(0, 0), (1, 0)])
    for rule in (lambda k: 0.7 * k if k else 0, {0: 0, 1: 0.5}):
        with pytest.raises(TypeError, match="slice 1"):
            elementary_mutation(y + x * y + 1, "y", 1 + x, exponent_rule=rule)
        with pytest.raises(TypeError, match="slice 1"):
            polytope_mutation_effect(square, MutationData((0, 1), seg, rule))


XY = tuple(LaurentPoly.variable(n, ("x", "y")) for n in ("x", "y"))
SQUARE = Polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
SEGMENT = Polytope([(0, 0), (1, 0)])


@pytest.mark.parametrize("build", [
    lambda: Polytope([(True, 0), (0, 1), (0, 0)]),
    lambda: XY[0] ** True,
    lambda: elementary_mutation(XY[1] + XY[0] * XY[1] + 1, "y", 1 + XY[0],
                                exponent_rule={0: 0, 1: True}),
    lambda: polytope_mutation_effect(SQUARE, MutationData(
        (0, 1), SEGMENT, {0: 0, 1: True})),
    lambda: polytope_mutation_effect(SQUARE, MutationData((0, True),
                                                          SEGMENT)),
], ids=["vertex", "power", "rule-power", "polytope-rule-power",
        "direction"])
def test_a_bool_is_no_integer(build):
    # isinstance(True, int) holds, so each read True as 1: the vertex
    # (True, 0) stayed a lattice point, f ** True was f, and the power
    # True and the direction (0, True) were taken as 1 and (0, 1)
    with pytest.raises(TypeError):
        build()


def test_polytope_mutation_reads_a_slice_from_edge_crossings():
    # no vertex of the square lies at height 0: its slice there is the
    # crossing of its two vertical edges, and the rule keeps it in place
    # while it halves the slices above and below
    vs = ("x", "y")
    x, y = (LaurentPoly.variable(n, vs) for n in vs)
    f, rule = (1 + x) * (y + 1 + y ** -1), {1: -1, 0: 0, -1: -1}
    data = MutationData((0, 1), Polytope([(0, 0), (1, 0)]), rule)
    moved = polytope_mutation_effect(newton_polytope(f), data)
    assert moved == Polytope([(0, -1), (1, 0), (0, 1)])
    assert moved == newton_polytope(
        elementary_mutation(f, "y", 1 + x, exponent_rule=rule))


def test_polytope_mutation_inexact_difference_with_surviving_candidates():
    # the candidates (0, 0, 1) and (1, 0, 1) fit the segment inside the
    # top triangle, but with it they miss its vertex (0, 2, 1)
    p = Polytope([(0, 0, 1), (2, 0, 1), (0, 2, 1), (0, 0, -1)])
    data = MutationData((0, 0, 1), Polytope([(0, 0, 0), (1, 0, 0)]))
    with pytest.raises(SliceNotDivisible, match="slice at height 1 "):
        polytope_mutation_effect(p, data)


def test_polytope_mutation_builds_one_polytope_and_no_chart(monkeypatch):
    f, factor = THREE_VARIABLE_CASES["triangle"]
    p, data = newton_polytope(f), MutationData((0, 0, 1),
                                               newton_polytope(factor))
    calls = []
    init, chart = Polytope.__init__, intlinalg.kernel_lattice_chart

    def counting_init(self, points):
        calls.append("Polytope")
        init(self, points)

    def counting_chart(*args):
        calls.append("kernel_lattice_chart")
        return chart(*args)
    monkeypatch.setattr(Polytope, "__init__", counting_init)
    for module in (intlinalg, builders):
        monkeypatch.setattr(module, "kernel_lattice_chart", counting_chart)
    assert not hasattr(mutation, "kernel_lattice_chart")
    moved = polytope_mutation_effect(p, data)
    assert calls == ["Polytope"]
    assert moved == newton_polytope(elementary_mutation(f, "z", factor))


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
