import hashlib
import itertools
import math
import pickle
from fractions import Fraction
from math import ceil, factorial, floor, gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tlg import catalog, polytope
from tlg.commands import unimodular_equivalent
from tlg.delpezzo import _boundary_cycle, polygon_edges
from tlg.intlinalg import identity, kernel_lattice_chart
from tlg.laurent import LaurentPoly
from tlg.polytope import (DimensionTooLarge, NotFullDimensional,
                          NotLatticePolytope, OriginNotInterior, Polytope,
                          PolytopeError, dual, edges, is_reflexive,
                          lattice_chart, lattice_points, newton_polytope,
                          normalized_volume)

TRIANGLE = Polytope([(1, 0), (0, 1), (-1, -1)])
BIG = Polytope([(2, -1), (-1, 2), (-1, -1)])


def test_hull_drops_non_vertices():
    p = Polytope([(0, 0), (2, 0), (0, 2), (1, 0), (1, 1)])
    assert set(p.vertices) == {(0, 0), (2, 0), (0, 2)}
    assert p.dim == 2


@pytest.mark.parametrize("vertex", [[0.5, 0], [1, True]],
                         ids=["float", "bool"])
def test_from_json_dict_reads_integers_and_rational_strings_only(vertex):
    p = Polytope([(0, 0), (1, 0), (Fraction(1, 2), 1)])
    assert p.to_json_dict()["vertices"][1] == ["1/2", 1]
    assert Polytope.from_json_dict(p.to_json_dict()) == p
    with pytest.raises(TypeError) as info:
        Polytope.from_json_dict({"dim": 2,
                                 "vertices": [[0, 0], vertex, [0, 1]]})
    assert str(info.value) == ("vertices[1]: coordinates must be integers "
                               f"or rational strings, got {vertex!r}")


def test_facets_and_contains():
    sq = Polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert len(sq.facets) == 4
    for n, h in sq.facets:
        assert h == 1
    assert sq.contains((0, 0))
    assert sq.contains((1, 1))
    assert not sq.contains((2, 0))
    assert sq.contains((Fraction(1, 2), Fraction(-1, 2)))


def test_dual_of_anticanonical_triangle():
    assert set(dual(TRIANGLE).vertices) == {(2, -1), (-1, 2), (-1, -1)}
    # polarity is an involution on reflexive polytopes
    assert set(dual(BIG).vertices) == set(TRIANGLE.vertices)


def test_reflexive_checks():
    assert is_reflexive(TRIANGLE)
    assert is_reflexive(BIG)
    assert not is_reflexive(Polytope([(2, 0), (0, 2), (-2, 0), (0, -2)]))
    cube = Polytope([(a, b, c) for a in (-1, 1) for b in (-1, 1)
                     for c in (-1, 1)])
    assert is_reflexive(cube)


def test_dual_requires_interior_origin():
    shifted = Polytope([(1, 0), (2, 0), (1, 1)])
    with pytest.raises(OriginNotInterior):
        dual(shifted)
    segment = Polytope([(1, 0), (-1, 0)])
    with pytest.raises(NotFullDimensional):
        dual(segment)


def _h_form(p: Polytope):
    return p.ambient_dim, p.dim, p.vertices, p._equations, p._facets


@st.composite
def _polytopes_around_the_origin(draw):
    """Polytopes in Q^d, d <= 4, holding the points +-c e_i, c > 0, and up
    to six more, all with coordinates in [-3, 3] over one denominator 1, 2
    or 3: full-dimensional with the origin strictly inside."""
    d = draw(st.integers(1, 4))
    den = draw(st.sampled_from([1, 1, 2, 3]))
    coord = st.builds(Fraction, st.integers(-3 * den, 3 * den), st.just(den))
    axis = coord.filter(lambda c: c > 0)
    points = [tuple(s * draw(axis) if j == i else 0 for j in range(d))
              for i in range(d) for s in (1, -1)]
    points += draw(st.lists(st.tuples(*[coord] * d), max_size=6))
    return Polytope(points)


@settings(max_examples=150, deadline=None)
@given(_polytopes_around_the_origin())
@example(Polytope([(-2,), (1,)]))
@example(Polytope([(2, 0), (0, 2), (-2, 0), (0, -2)]))
def test_polar_dual_is_the_hull_of_its_vertices(p):
    nabla = dual(p)
    assert _h_form(nabla) == _h_form(Polytope(nabla.vertices))
    assert _h_form(dual(nabla)) == _h_form(p)


def test_polar_dual_of_every_catalog_newton_polytope():
    rational = 0
    for entry in catalog.load():
        delta = newton_polytope(entry.laurent)
        nabla = dual(delta)
        assert _h_form(nabla) == _h_form(Polytope(nabla.vertices))
        assert _h_form(dual(nabla)) == _h_form(delta)
        rational += not nabla.is_lattice()
    # the duals of the seven Newton polytopes that are not reflexive
    assert rational == 7


def test_lattice_points_regions():
    cube = Polytope([(a, b, c) for a in (-1, 1) for b in (-1, 1)
                     for c in (-1, 1)])
    assert len(lattice_points(cube)) == 27
    assert len(lattice_points(cube, region="boundary")) == 26
    assert lattice_points(cube, region="interior") == [(0, 0, 0)]
    assert len(lattice_points(BIG)) == 10


def test_boundary_point_sum_for_dual_pair():
    b_t = len(lattice_points(TRIANGLE, region="boundary"))
    b_d = len(lattice_points(BIG, region="boundary"))
    assert b_t + b_d == 12


def test_normalized_volume():
    simplex = Polytope([(0, 0), (1, 0), (0, 1)])
    assert normalized_volume(simplex) == 1
    assert normalized_volume(TRIANGLE) == 3
    assert normalized_volume(BIG) == 9
    simplex3 = Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert normalized_volume(simplex3) == 1
    with pytest.raises(NotFullDimensional):
        normalized_volume(Polytope([(0, 0), (3, 0)]))
    with pytest.raises(NotLatticePolytope):
        normalized_volume(Polytope([(0, 0), (Fraction(1, 2), 0), (0, 1)]))


def test_newton_polytope():
    vs = ("x", "y")
    x, y = (LaurentPoly.variable(n, vs) for n in vs)
    f = x + y + (x * y) ** -1 + 5
    assert set(newton_polytope(f).vertices) == {(1, 0), (0, 1), (-1, -1)}


def test_newton_polytope_of_threefold_model():
    vs = ("x", "y", "z")
    x, y, z = (LaurentPoly.variable(n, vs) for n in vs)
    f = x + y + z + (x * y * z) ** -1
    nabla = dual(newton_polytope(f))
    assert set(nabla.vertices) == {(3, -1, -1), (-1, 3, -1), (-1, -1, 3),
                                   (-1, -1, -1)}
    assert normalized_volume(nabla) == 64


def test_edges_and_ccw():
    es = edges(TRIANGLE)
    assert len(es) == 3
    cube = Polytope([(a, b, c) for a in (0, 1) for b in (0, 1)
                     for c in (0, 1)])
    assert len(edges(cube)) == 12
    walk = polygon_edges(TRIANGLE)
    assert len(walk) == 3
    # counterclockwise: positive cross products all the way around
    for i in range(3):
        (_, u, _), (_, w, _) = walk[i], walk[(i + 1) % 3]
        assert u[0] * w[1] - u[1] * w[0] > 0


def test_polygon_edges_walk_counterclockwise_from_the_first_vertex():
    # built from every lattice point, so (0, -1), (1, -1), (2, -1) and
    # (1, 0) are collinear boundary points and no vertices
    tri = Polytope(lattice_points(Polytope([(-1, -1), (3, -1), (-1, 1)])))
    assert tri.vertices == ((-1, -1), (-1, 1), (3, -1))
    assert polygon_edges(tri) == [((-1, -1), (1, 0), 4),
                                  ((3, -1), (-2, 1), 2),
                                  ((-1, 1), (0, -1), 2)]
    square = Polytope([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    assert polygon_edges(square) == [((-1, -1), (1, 0), 2),
                                     ((1, -1), (0, 1), 2),
                                     ((1, 1), (-1, 0), 2),
                                     ((-1, 1), (0, -1), 2)]


@pytest.mark.parametrize("p", [
    Polytope([(0, 0), (2, 1)]),
    Polytope([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]),
    Polytope([(0, 0), (Fraction(1, 2), 0), (0, 1)]),
], ids=["segment", "cube", "rational"])
def test_polygon_edges_need_a_lattice_polygon(p):
    with pytest.raises(NotFullDimensional):
        polygon_edges(p)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=3, max_size=10)
       .map(Polytope).filter(lambda p: p.dim == 2))
def test_polygon_edges_properties(p):
    walk = polygon_edges(p)
    starts = [v for v, _, _ in walk]
    assert starts[0] == p.vertices[0]
    assert sorted(starts) == sorted(p.vertices)
    for (v, u, n), (w, u2, _) in zip(walk, walk[1:] + walk[:1]):
        assert gcd(*u) == 1 and n >= 1
        assert (v[0] + n * u[0], v[1] + n * u[1]) == w
        assert u[0] * u2[1] - u[1] * u2[0] > 0
    assert [sum(n * u[i] for _, u, n in walk) for i in (0, 1)] == [0, 0]
    boundary = lattice_points(p, "boundary")
    assert sum(n for _, _, n in walk) == len(boundary)
    cycle = _boundary_cycle(p.vertices)
    assert len(cycle) == len(set(cycle))
    assert sorted(cycle) == sorted(boundary)


def test_unimodular_equivalence():
    sheared = Polytope([(1, 1), (0, 1), (-1, -2)])  # shear of TRIANGLE
    u = unimodular_equivalent(TRIANGLE, sheared)
    assert u is not None
    mapped = {tuple(sum(row[i] * v[i] for i in range(2)) for row in u)
              for v in TRIANGLE.vertices}
    assert mapped == set(sheared.vertices)
    assert unimodular_equivalent(TRIANGLE, BIG) is None
    with pytest.raises(DimensionTooLarge):
        five = [tuple(int(i == j) for j in range(5)) for i in range(5)]
        p5 = Polytope(five + [tuple(-1 for _ in range(5))])
        unimodular_equivalent(p5, p5)


def test_lattice_chart_preserves_relations():
    # points of a facet of the cube get 2d coordinates preserving affine
    # structure: point = origin + coords . basis, coordinates distinct
    pts = [(1, -1, -1), (1, 1, -1), (1, -1, 1), (1, 1, 1), (1, 0, 0)]
    origin, basis, coords = lattice_chart(pts, (1, 0, 0))
    assert len(coords) == len(pts)
    assert len(set(coords)) == len(pts)
    for pt, co in zip(pts, coords):
        rebuilt = tuple(origin[i] + sum(c * b[i] for c, b in zip(co, basis))
                        for i in range(3))
        assert rebuilt == pt


def test_lattice_chart_rejects_points_off_the_hyperplane():
    with pytest.raises(PolytopeError):
        lattice_chart([(1, 0, 0), (2, 0, 0)], (1, 0, 0))


@st.composite
def _plane_points(draw):
    """A nonzero normal in Z^2..Z^5 and distinct integer points on one
    hyperplane <n, x> = c: every coordinate but one is drawn, and the
    last one is solved for when it comes out integral."""
    d = draw(st.integers(2, 5))
    n = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d)
             .filter(any))
    i = min((j for j in range(d) if n[j]), key=lambda j: abs(n[j]))
    free = st.lists(st.integers(-5, 5), min_size=d - 1, max_size=d - 1)
    x0 = draw(free)
    x0.insert(i, draw(st.integers(-5, 5)))
    c = sum(a * b for a, b in zip(n, x0))
    pts = {tuple(x0)}
    for rest in draw(st.lists(free, max_size=12)):
        r = c - sum(a * b for a, b in zip(n[:i] + n[i + 1:], rest))
        if r % n[i] == 0:
            pts.add(tuple(rest[:i] + [r // n[i]] + rest[i:]))
    return tuple(n), i, sorted(pts)


@settings(max_examples=200, deadline=None)
@given(_plane_points())
def test_lattice_chart_properties(case):
    n, i, pts = case
    d = len(n)
    base, basis, coords = lattice_chart(pts, n)
    assert base == min(pts)
    assert all(isinstance(x, int) for c in coords for x in c)
    assert len(set(coords)) == len(pts)
    for pt, c in zip(pts, coords):
        assert len(c) == d - 1
        assert tuple(base[j] + sum(ck * b[j] for ck, b in zip(c, basis))
                     for j in range(d)) == pt
    same_basis, rows = kernel_lattice_chart(n)
    assert basis == same_basis
    assert [[sum(x * y for x, y in zip(r, b)) for b in basis]
            for r in rows] == identity(d - 1)
    # off the plane: a step along coordinate i changes <n, x> by n_i
    off = tuple(x + (j == i) for j, x in enumerate(pts[0]))
    with pytest.raises(PolytopeError):
        lattice_chart(pts + [off], n)
    # on the plane but not a lattice point: half a primitive kernel vector
    j = (i + 1) % d
    w = [0] * d
    w[i], w[j] = n[j], -n[i]
    g = gcd(*w)
    half = tuple(x + Fraction(wk, 2 * g) for x, wk in zip(pts[0], w))
    with pytest.raises(PolytopeError):
        lattice_chart(pts + [half], n)


def test_hull_of_grid_points_with_collinear_edges():
    grid = list(itertools.product((-1, 0, 1), repeat=4))
    cube = Polytope(grid)
    assert len(cube.vertices) == 16
    assert cube.facets == tuple(sorted(
        (tuple(s * (i == j) for j in range(4)), 1)
        for i in range(4) for s in (-1, 1)))
    assert normalized_volume(cube) == 16 * 24


def test_newton_polytope_is_built_once_and_pickles():
    vs = ("x", "y", "z")
    x, y, z = (LaurentPoly.variable(n, vs) for n in vs)
    f = x + y + z + (x * y * z) ** -1
    delta = newton_polytope(f)
    assert newton_polytope(f) is delta
    # products and other derived polynomials start without a polytope
    assert (f * f)._newton is None
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g._newton == delta
    assert g._newton.facets == delta.facets


def _rank(rows):
    """Rank by plain rational elimination, independent of the hull code."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] / rows[rank][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


_small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def _point_sets(draw):
    d = draw(st.integers(2, 5))
    # the unit grid makes collinear and coplanar input points likely
    coord = draw(st.sampled_from([st.integers(-1, 1), st.integers(-3, 3),
                                  _small_fractions]))
    count = draw(st.integers(1, 14 - d))
    return d, draw(st.lists(st.tuples(*[coord] * d), min_size=count,
                            max_size=count))


@settings(max_examples=80, deadline=None)
@given(_point_sets())
def test_hull_properties(case):
    d, points = case
    p = Polytope(points)
    assert set(p.vertices) <= {tuple(Fraction(x) for x in q) for q in points}
    assert p.dim == _rank([[a - b for a, b in zip(q, points[0])]
                           for q in points[1:]] or [[0] * d])
    again = Polytope(p.vertices)
    assert again.vertices == p.vertices
    for v in p.vertices:
        rest = [q for q in points if tuple(Fraction(x) for x in q) != v]
        assert not rest or not Polytope(rest).contains(v)
    if p.dim < d:
        with pytest.raises(NotFullDimensional):
            p.facets
        return
    assert again.facets == p.facets
    assert len({n for n, _ in p.facets}) == len(p.facets)
    for n, h in p.facets:
        assert all(isinstance(x, int) for x in n) and gcd(*n) == 1
        values = [sum(a * b for a, b in zip(n, q)) + h for q in points]
        assert all(v >= 0 for v in values)
        on = [q for q, v in zip(points, values) if v == 0]
        # a facet holds d affinely independent input points
        assert _rank([[a - b for a, b in zip(q, on[0])] for q in on[1:]]) == d - 1


def _det(rows):
    """Determinant by permutation expansion, independent of the hull code."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _brute_force_facets(points, d):
    """Every hyperplane through d of the points that has all of them on one
    side, as (primitive inner normal, height)."""
    found = set()
    for subset in itertools.combinations(points, d):
        diffs = [[a - b for a, b in zip(q, subset[0])] for q in subset[1:]]
        # the cofactors of the difference rows give a normal of their span
        n = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in diffs])
             for j in range(d)]
        if not any(n):
            continue
        g = gcd(*n)
        n = [x // g for x in n]
        h = -sum(a * b for a, b in zip(n, subset[0]))
        values = [sum(a * b for a, b in zip(n, q)) + h for q in points]
        if all(v <= 0 for v in values):
            n, h = [-x for x in n], -h
        elif not all(v >= 0 for v in values):
            continue
        found.add((tuple(n), h))
    return sorted(found)


@st.composite
def _small_point_sets(draw):
    d = draw(st.integers(2, 5))
    # the unit grid gives coplanar points and non-simplicial facets; in Z^5
    # at most 8 points of {0, 1}^5 or {-1, 0, 1}^5 keep the brute force
    # small, and a new point often lies on a surviving facet (v_G = 0)
    coord = draw(st.sampled_from(
        [st.integers(0, 1), st.integers(-1, 1)] if d == 5
        else [st.integers(-1, 1), st.integers(-3, 3)]))
    points = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1,
                           max_size=8 if d == 5 else 10, unique=True))
    return d, points


# In the 4-D example a visible and a surviving facet share d - 1 = 3
# points, the collinear (1, y, 0, -1): they meet in an edge, not in a ridge.
# In the 3-D one, (1, 1, 0) lies on the surviving plane z = 0 while it sees
# x + y + z <= 1, and (2, 0, 1) lies on y = 0 while it sees two facets: the
# pencil of such a ridge gives the surviving plane back, which is no new
# facet. The 5-D one has such ridges too: pairing them gives a duplicate.
@settings(max_examples=200, deadline=None)
@given(_small_point_sets())
@example((5, [(0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0),
              (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 0),
              (1, 1, 0, 0, 0), (1, 1, 1, 1, 1)]))
@example((4, [(-1, -1, 0, 1), (-1, 0, -1, 0), (-1, 0, -1, 1), (0, -1, 0, -1),
              (1, -1, 0, -1), (1, 0, 0, -1), (1, 1, 0, -1), (1, 1, 1, 0)]))
@example((3, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0),
              (2, 0, 1)]))
def test_facets_match_brute_force(case):
    d, points = case
    rank = _rank([[a - b for a, b in zip(q, points[0])] for q in points[1:]])
    if rank < d:
        assert Polytope(points).dim == rank
        return
    p = Polytope(points)
    facets = _brute_force_facets(points, d)
    assert list(p.facets) == facets
    def normals_through(*qs):
        return [n for n, h in facets
                if all(sum(a * b for a, b in zip(n, q)) + h == 0 for q in qs)]
    # a vertex is a point where the facet normals reach rank d, and an edge
    # a vertex pair where they reach rank d - 1
    assert list(p.vertices) == sorted(
        q for q in points if _rank(normals_through(q)) == d)
    assert edges(p) == [
        (a, b) for a, b in itertools.combinations(p.vertices, 2)
        if _rank(normals_through(a, b)) == d - 1]


@st.composite
def _degenerate_point_sets(draw):
    """Points base + sum of c_k w_k in Q^d, d <= 5, with fewer steps w_k
    than d: small integer steps, and coefficients c_k in {0, 1/den, ..., 2}
    with den 1 or 2, so the coordinates are integers or halves."""
    d = draw(st.integers(1, 5))
    rank = draw(st.integers(0, d - 1))
    base = draw(st.tuples(*[st.integers(-2, 2)] * d))
    steps = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * d),
                          min_size=rank, max_size=rank))
    den = draw(st.sampled_from([1, 2]))
    coeff = st.builds(Fraction, st.integers(0, 2 * den), st.just(den))
    points = [tuple(b + sum(c * w[j] for c, w in zip(cs, steps))
                    for j, b in enumerate(base))
              for cs in draw(st.lists(st.tuples(*[coeff] * rank),
                                      min_size=1, max_size=rank + 3))]
    return d, points


@settings(max_examples=100, deadline=None)
@given(_degenerate_point_sets())
@example((3, [(0, 0, 0), (3, 0, 3), (0, 3, 3)]))
@example((2, [(Fraction(1, 2), Fraction(1, 2)), (Fraction(5, 2), Fraction(5, 2))]))
def test_degenerate_lattice_points_match_brute_force(case):
    d, points = case
    p = Polytope(points)
    assert p.dim < d
    box = [range(ceil(min(col)), floor(max(col)) + 1) for col in zip(*points)]
    expected = [x for x in itertools.product(*box) if p.contains(x)]
    every = lattice_points(p)
    assert every == expected
    boundary = lattice_points(p, "boundary")
    interior = lattice_points(p, "interior")
    assert sorted(boundary + interior) == every
    assert not set(boundary) & set(interior)
    # relative to the span, a point has no boundary and a segment's
    # boundary is its two ends
    if p.dim == 0:
        assert boundary == []
    if p.dim == 1:
        assert set(boundary) == set(p.vertices) & set(every)


def _off_span_step(points):
    """A unit vector outside the directions of the affine span of points."""
    d = len(points[0])
    diffs = [[a - b for a, b in zip(q, points[0])] for q in points[1:]]
    rank = _rank(diffs or [[0] * d])
    return next(e for e in (tuple(int(i == j) for j in range(d))
                            for i in range(d))
                if _rank(diffs + [list(e)]) > rank)


@settings(max_examples=100, deadline=None)
@given(_degenerate_point_sets(),
       st.lists(st.integers(0, 4), min_size=7, max_size=7))
@example((3, [(0, 0, 0), (3, 0, 3), (0, 3, 3)]), [1] * 7)
@example((2, [(Fraction(1, 2), Fraction(1, 2)),
              (Fraction(5, 2), Fraction(5, 2))]), [1] * 7)
def test_degenerate_contains_matches_convex_combinations(case, ws):
    d, points = case
    p = Polytope(points)
    verts = p.vertices
    # at most rank + 3 <= 7 points are drawn
    weights = ws[:len(verts)] if any(ws[:len(verts)]) else [1] * len(verts)
    total = sum(weights)
    inside = tuple(sum(Fraction(w) * v[j] for w, v in zip(weights, verts)) / total
                   for j in range(d))
    assert p.contains(inside)
    assert all(p.contains(v) for v in verts)
    step = _off_span_step(verts)
    for t in (1, Fraction(1, 2)):
        assert not p.contains(tuple(x + t * e for x, e in zip(inside, step)))
    # a vertex is no convex combination of the centroid and a point beyond it
    centroid = [sum(col) / Fraction(len(verts)) for col in zip(*verts)]
    for v in verts if len(verts) > 1 else ():
        for t in (Fraction(1, 3), 1):
            assert not p.contains(tuple(x + t * (x - c)
                                        for x, c in zip(v, centroid)))


def test_degenerate_contains_and_lattice_points_build_no_polytope(monkeypatch):
    lower = [Polytope([(0, 1, 2), (3, 4, 5)]),
             Polytope([("1/2", 0, 1, 0), (2, "3/2", 1, 0), (0, 0, 1, "5/2")]),
             Polytope([(1, "1/2")])]
    calls = []
    init = Polytope.__init__

    def counting_init(self, points):
        calls.append("Polytope")
        init(self, points)
    monkeypatch.setattr(Polytope, "__init__", counting_init)
    for p in lower:
        assert p.contains(p.vertices[-1])
        assert not p.contains(tuple(x + 1 for x in p.vertices[-1]))
        for region in ("all", "boundary", "interior"):
            lattice_points(p, region)
    assert calls == []
    assert lattice_points(lower[0]) == [(0, 1, 2), (1, 2, 3), (2, 3, 4),
                                        (3, 4, 5)]


def test_the_point_of_z0_is_full_dimensional_with_no_facets():
    p = Polytope([()])
    assert p.dim == 0 and p.is_full_dimensional()
    assert p.facets == ()
    assert p.contains(())
    assert lattice_points(p) == lattice_points(p, "interior") == [()]
    assert lattice_points(p, "boundary") == []
    # with no facets it is its own dual, and reflexive
    assert dual(p) == p and is_reflexive(p)
    assert normalized_volume(p) == 1


def test_rational_degenerate_polytope_pickles():
    # a rectangle in the plane x_1 = x_2, x_3 = 1 of Z^4
    p = Polytope([("1/2", "1/2", 1, 0), ("5/2", "5/2", 1, 0),
                  ("1/2", "1/2", 1, 2), ("5/2", "5/2", 1, 2)])
    q = pickle.loads(pickle.dumps(p))
    assert q == p and q.dim == 2 and not q.is_full_dimensional()
    with pytest.raises(NotFullDimensional):
        q.facets
    probes = list(p.vertices) + [(1, 1, 1, 1), (1, 2, 1, 1), (1, 1, 0, 1),
                                 (3, 3, 1, 1)]
    assert [q.contains(x) for x in probes] == [True] * 5 + [False] * 3
    assert lattice_points(q) == [(1, 1, 1, k) for k in range(3)] + [
        (2, 2, 1, k) for k in range(3)]
    assert lattice_points(q, "interior") == [(1, 1, 1, 1), (2, 2, 1, 1)]


# A 4-simplex in Z^5 whose direction lattice has a Smith basis with entries
# up to 1.4e13: a chart in that basis enumerates a box of 9 x 1724 x
# 658147772 x 46978 points, while the pivot coordinates of the echelon have
# a box no larger than the ambient one.
SKEWED_SIMPLEX = [(-4, 2, 5, 0, -2), (-7, 6, -1, -7, 1), (0, 2, 7, 1, -7),
                  (8, 5, 7, -7, -5), (3, -2, 3, 0, -5)]


def test_skewed_simplex_lattice_points_match_brute_force():
    p = Polytope(SKEWED_SIMPLEX)
    assert p.dim == 4 and len(p.vertices) == 5
    # the simplex spans the hyperplane <n, x> = <n, v0>; the brute force
    # runs over the ambient box and asks contains only on that hyperplane
    base = SKEWED_SIMPLEX[0]
    diffs = [[a - b for a, b in zip(v, base)] for v in SKEWED_SIMPLEX[1:]]
    n = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in diffs]) for j in range(5)]
    level = sum(a * b for a, b in zip(n, base))
    box = [range(min(col), max(col) + 1) for col in zip(*SKEWED_SIMPLEX)]
    expected = [x for x in itertools.product(*box)
                if sum(a * b for a, b in zip(n, x)) == level
                and p.contains(x)]
    assert lattice_points(p) == expected
    assert set(p.vertices) <= set(expected)
    boundary = lattice_points(p, "boundary")
    assert sorted(boundary + lattice_points(p, "interior")) == expected


# A skewed 4-polytope in Z^5: a walk over the box of its four pivot
# coordinates visits 137,088 points for its 13 lattice points. Its points
# were listed by that walk, which tested every point of the box.
SKEWED_4_POLYTOPE = [(-10, -8, -2, -3, 7), (-10, -8, -1, -8, 8),
                     (-7, -14, 7, 6, 9), (-7, -14, 8, 1, 10),
                     (-3, 1, -7, -5, 0), (1, 1, 2, 1, -1),
                     (5, 13, -9, -10, -8)]


def test_skewed_4_polytope_lattice_points():
    p = Polytope(SKEWED_4_POLYTOPE)
    assert p.dim == 4
    interior = [(-6, -4, -3, -5, 4), (-5, -5, -1, -2, 4), (-5, -2, -3, -7, 3),
                (-4, -3, -1, -4, 3), (-3, -4, 1, -1, 3), (0, 4, -5, -6, -2)]
    assert lattice_points(p, "interior") == interior
    assert lattice_points(p, "boundary") == sorted(SKEWED_4_POLYTOPE)
    assert lattice_points(p) == sorted(SKEWED_4_POLYTOPE + interior)


@st.composite
def _full_point_sets(draw):
    """Up to eight points in Q^d, d <= 4, with integer or half-integer
    coordinates in [-3, 3]."""
    d = draw(st.integers(1, 4))
    den = draw(st.sampled_from([1, 2]))
    coord = st.builds(Fraction, st.integers(-3 * den, 3 * den), st.just(den))
    return draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1,
                         max_size=8))


@settings(max_examples=100, deadline=None)
@given(_full_point_sets())
@example([(0, 0), (3, 1), (1, 3)])
@example([(Fraction(1, 2), 0), (Fraction(5, 2), 1), (0, Fraction(5, 2))])
def test_full_dimensional_lattice_points_match_brute_force(points):
    p = Polytope(points)
    assume(p.is_full_dimensional())
    box = [range(ceil(min(col)), floor(max(col)) + 1) for col in zip(*points)]
    expected = [x for x in itertools.product(*box) if p.contains(x)]
    assert lattice_points(p) == expected
    on_facet = [x for x in expected
                if any(sum(a * b for a, b in zip(n, x)) + h == 0
                       for n, h in p.facets)]
    assert lattice_points(p, "boundary") == on_facet
    assert lattice_points(p, "interior") == sorted(set(expected)
                                                   - set(on_facet))


def test_rational_degenerate_lattice_points():
    segment = Polytope([("1/2", "1/2"), ("5/2", "5/2")])
    assert lattice_points(segment) == [(1, 1), (2, 2)]
    assert lattice_points(segment, "interior") == [(1, 1), (2, 2)]
    assert lattice_points(segment, "boundary") == []
    point = Polytope([("1/2", 3, 0)])
    assert lattice_points(point) == []
    assert lattice_points(point, "interior") == []
    assert lattice_points(Polytope([(1, 3, 0)])) == [(1, 3, 0)]
    assert lattice_points(Polytope([(1, 3, 0)]), "boundary") == []


def _unimodular(draw, d):
    """A random matrix in GL(d, Z): a signed permutation times elementary
    row operations with small multipliers."""
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d))
    u = [[signs[i] if j == perm[i] else 0 for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        c = draw(st.integers(-2, 2))
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


@st.composite
def _volume_cases(draw):
    d = draw(st.integers(1, 5))
    coord = st.integers(-2, 2)
    points = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1,
                           max_size=d + 5, unique=True))
    shift = draw(st.tuples(*[st.integers(-3, 3)] * d))
    return d, points, _unimodular(draw, d), shift


@settings(max_examples=150, deadline=None)
@given(_volume_cases())
def test_normalized_volume_is_determinant_and_unimodular_invariant(case):
    d, points, u, shift = case
    p = Polytope(points)
    if p.dim < d:
        return
    vol = normalized_volume(p)
    image = [tuple(sum(a * b for a, b in zip(row, q)) + t
                   for row, t in zip(u, shift)) for q in points]
    assert normalized_volume(Polytope(image)) == vol
    simplex = points[:d + 1]
    diffs = [[a - b for a, b in zip(q, simplex[0])] for q in simplex[1:]]
    det = _det(diffs)
    if det:
        assert normalized_volume(Polytope(simplex)) == abs(det)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_normalized_volume_of_the_unit_cube(d):
    cube = Polytope(itertools.product((0, 1), repeat=d))
    assert normalized_volume(cube) == factorial(d)


@settings(max_examples=60, deadline=None)
@given(_volume_cases(), st.integers(2, 3))
def test_normalized_volume_scales_with_dilation(case, k):
    d, points, _, _ = case
    p = Polytope(points)
    if p.dim < d:
        return
    dilated = Polytope([tuple(k * x for x in q) for q in points])
    assert normalized_volume(dilated) == k ** d * normalized_volume(p)


def test_reflexive_catalog_duals_have_the_boundary_point_volume():
    # a reflexive polygon has as many boundary points as its normalized
    # area; the boundary of a reflexive 3-polytope has a unimodular
    # triangulation with B vertices and 2B - 4 triangles, each the base of
    # a cone of height one over the origin
    duals = [q for q in (dual(newton_polytope(e.laurent))
                         for e in catalog.load())
             if q.ambient_dim <= 3 and q.is_lattice() and is_reflexive(q)]
    assert len(duals) == 16
    for q in duals:
        boundary = len(lattice_points(q, "boundary"))
        expected = boundary if q.ambient_dim == 2 else 2 * boundary - 4
        assert normalized_volume(q) == expected


def test_normalized_volume_builds_no_polytope_and_no_chart(monkeypatch):
    entry = next(e for e in catalog.load() if e.id == "G36-2111")
    q = dual(newton_polytope(entry.laurent))
    calls = []
    init, chart = Polytope.__init__, polytope.lattice_chart

    def counting_init(self, points):
        calls.append("Polytope")
        init(self, points)

    def counting_chart(*args):
        calls.append("lattice_chart")
        return chart(*args)
    monkeypatch.setattr(Polytope, "__init__", counting_init)
    monkeypatch.setattr(polytope, "lattice_chart", counting_chart)
    assert normalized_volume(q) == 84
    assert calls == []


def test_normalized_volume_of_a_dual_takes_no_dot_product(monkeypatch):
    # the volume reads the incidences the dual keeps, transposed from the
    # Newton polytope's hull, where it recounted them with one dot product
    # per facet and vertex
    entry = next(e for e in catalog.load() if e.id == "G36-2111")
    q = dual(newton_polytope(entry.laurent))

    def refuse(*args):
        raise AssertionError("_dot called")
    monkeypatch.setattr(polytope, "_dot", refuse)
    assert normalized_volume(q) == 84


def _incidence_recount(p):
    return tuple(frozenset(i for i, v in enumerate(p.vertices)
                           if sum(a * b for a, b in zip(n, v)) + h == 0)
                 for n, h in p._facets)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    _point_sets(), _degenerate_point_sets(),
    st.lists(st.tuples(_small_fractions), min_size=1, max_size=4)
    .map(lambda points: (1, points))))
@example((1, [(Fraction(-1, 2),), (3,)]))
@example((3, [(0, 0, 0), (3, 0, 3), (0, 3, 3)]))
def test_kept_incidences_match_a_recount(case):
    # in Z^1 to Z^5, full-dimensional or not, integer or rational
    _, points = case
    p = Polytope(points)
    assert p._incidences == _incidence_recount(p)


@settings(max_examples=100, deadline=None)
@given(_polytopes_around_the_origin())
def test_dual_keeps_the_transposed_incidences(p):
    assert dual(p)._incidences == _incidence_recount(dual(p))


def test_catalog_duals_keep_the_transposed_incidences():
    reflexive = [delta for delta in (newton_polytope(e.laurent)
                                     for e in catalog.load())
                 if is_reflexive(delta)]
    assert len(reflexive) == 18
    for delta in reflexive:
        assert delta._incidences == _incidence_recount(delta)
        nabla = dual(delta)
        assert nabla._incidences == _incidence_recount(nabla)


def test_g36_hulls_pair_visible_facets_only_with_leaning_survivors(monkeypatch):
    # every new facet is the pencil of a visible facet F and a surviving
    # facet G, reduced by one gcd; pairing F with the survivors G whose
    # plane holds the new point too made 1,452 and 1,078 pencils
    pencils = []

    def counting_gcd(*args):
        pencils.append(args)
        return gcd(*args)
    monkeypatch.setattr(polytope, "math",
                        SimpleNamespace(**{**vars(math), "gcd": counting_gcd}))
    entries = {e.id: e for e in catalog.load()}
    counts = {}
    for entry_id in ("G36-2111", "G36-1112"):
        pencils.clear()
        Polytope(entries[entry_id].laurent.exponents())
        counts[entry_id] = len(pencils)
    assert counts == {"G36-2111": 293, "G36-1112": 207}


# sha256 of the facets and vertices of each catalog entry's Newton
# polytope, the vertices and facets of its dual and its normalized volume
# (see _geometry_text). Every line but the dual facets hashed the same at
# 4befdb7, before the hull built its new facets from pencils of facet
# planes. The hashes were computed at 23a54f0, where the dual was still
# the hull of its vertices, so they check the dual read off by polarity
# against that hull
CATALOG_GEOMETRY = {
    "1-1":
        "01eb94d9c58d37c9d0d9552790616ec102655eed6cdd6fa2f4e694ceefd170bd",
    "1-2":
        "83bf4c62ad5231a6682399c0ba775cf3f22e8a3654609b885845e1725bf65dc6",
    "1-3":
        "26090ce838e905d548068ea566f451449b13142f52fec620e6124c97cf8ec0dc",
    "1-4":
        "62b333cacc83f748bffcbff3d2ee0091b0dbba4d0f4985d350249d07ca5f85a1",
    "1-5":
        "2f2d82fea9d4d24b1d0ee0f5a053b9e46c74a1d8b32595bf89a6b587e334a11e",
    "1-6":
        "f78ae8d0428a28382f317dc5453b17cbdbb767b00467c50d2cf3f23cec7b6e4b",
    "1-7":
        "faa64483d9fb4f1c6cc6b6be2a8eade7bfe3596ce6a0db332f0343fbfabd8cb8",
    "1-8":
        "355c66d9ba7339f6ed3ed6f1e5b146c1fa1e46145b52486616cce94d4f5f7717",
    "1-9":
        "12f79227ebacf548e7a7593e5fddfa3f6df6aaedafd1bfa5f2d74e341065b6f9",
    "1-10":
        "db32dd8fe8c3b710e53e18c56e3138c9693c1b10bdd2f7c4bf412a951dbba353",
    "1-11":
        "e3ea83f371e49e7b8fca281310d17dc1dc2c46480bfdcf0420980fc74b674638",
    "1-12":
        "259d3ca281f083b3182b785ea2be3db0bc8b0fc2c2b4d050584e40bf4338c8a3",
    "1-13":
        "f89a902384d01b8580d12516e2b5e0b96bb76b345483404380eb85985aa9cced",
    "1-14":
        "e61c5c19ace6eb13ce079d74ad53656418500f7d5f038cc64398199a6f53b472",
    "1-15":
        "02af125f2efab551496d225050fbb330e7c23d95571f3d4eb8d5cf921d17dde5",
    "1-16":
        "b27f7a198dc613627e5465691c68ac7da109a9ed37c2d51b5b087ab402731ace",
    "1-17":
        "62448da73bbf1f72851e67311a29f0a572ac96ee149843f53576e2ad44fdf0d8",
    "2-1":
        "6d5d828ffcde4d929cd999c852215306d2ecb2091042a1969a4cea52088ee052",
    "2-2":
        "418a9967c28cf041be73033e38e933a8458bd0c19f55264cb12472a22ec0644a",
    "2-3":
        "980ad80ee30bb215727d464c2f0e2d144af3bef8b4fe7a76cf44e04f967a84f1",
    "9-1":
        "ab3282c2f3663f690a49836b3ee66bc4aa2af4790c4c6759fd18245ab36c49db",
    "10-1":
        "9011ad9fb055f04c19faf76003fbc7d7fa24c84fc012ac27a4b3b0aa5c6fb48e",
    "S7-d1":
        "321c6089c908d42e69235a23a36b454698646909a59dba9622eadfea15a090c2",
    "G36-2111":
        "397ff7b623ccac8db4db5a5018b5d4bebf71f138cfaa7677b213d4c805ded9d2",
    "G36-1112":
        "175a393d74d76132870f06eddbf0f3a8026a8f1c6e733755b0faa726727e597d",
}


def _geometry_text(p: Polytope) -> str:
    lines = [f"facet {list(n)} {h}" for n, h in p.facets]
    lines += [f"vertex {list(v)}" for v in p.vertices]
    nabla = dual(p)
    lines += [f"dual {[str(x) for x in v]}" for v in nabla.vertices]
    lines += [f"dual facet {list(n)} {h}" for n, h in nabla.facets]
    lines.append(f"volume {normalized_volume(p)}")
    return "\n".join(lines)


def test_geometry_pins_cover_every_catalog_entry():
    assert sorted(e.id for e in catalog.load()) == sorted(CATALOG_GEOMETRY)


@pytest.mark.parametrize("entry_id", sorted(CATALOG_GEOMETRY))
def test_catalog_geometry_is_pinned(entry_id):
    entry = next(e for e in catalog.load() if e.id == entry_id)
    text = _geometry_text(newton_polytope(entry.laurent))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        CATALOG_GEOMETRY[entry_id]
