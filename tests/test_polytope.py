import hashlib
import itertools
import math
import pickle
from fractions import Fraction
from math import ceil, factorial, floor, gcd
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlg import catalog, polytope
from tlg.builders import _boundary_cycle
from tlg.intlinalg import identity, kernel_lattice_chart, mat_mul, transpose
from tlg.laurent import LaurentPoly
from tlg.polytope import (DimensionTooLarge, NotFullDimensional,
                          NotLatticePolytope, OriginNotInterior, Polytope,
                          PolytopeError, dual, edges, is_reflexive,
                          lattice_chart, lattice_points, minkowski_sum,
                          newton_polytope, normalized_volume, polygon_edges,
                          unimodular_equivalent)

TRIANGLE = Polytope([(1, 0), (0, 1), (-1, -1)])
BIG = Polytope([(2, -1), (-1, 2), (-1, -1)])


def test_hull_drops_non_vertices():
    p = Polytope([(0, 0), (2, 0), (0, 2), (1, 0), (1, 1)])
    assert set(p.vertices) == {(0, 0), (2, 0), (0, 2)}
    assert p.dim == 2


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


def test_minkowski_sum():
    seg_x = Polytope([(0, 0), (1, 0)])
    seg_y = Polytope([(0, 0), (0, 1)])
    sq = minkowski_sum(seg_x, seg_y)
    assert set(sq.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert minkowski_sum(TRIANGLE, TRIANGLE) == \
        Polytope([(2, 0), (0, 2), (-2, -2)])


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
    assert mat_mul(rows, transpose(basis)) == identity(d - 1)
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
# polytope, the vertices of its dual and its normalized volume (see
# _geometry_text), computed at 4befdb7, before the hull built its new
# facets from pencils of facet planes
CATALOG_GEOMETRY = {
    "1-1":
        "77e5f4108178254978032cf0430bf9656c1ef74b4c8b332fdd292a1555ee1779",
    "1-2":
        "c5fe8e1743a3e4a131825c1ca86a38f1d80da4170858f9b4215dd97900b98bbc",
    "1-3":
        "ca00d6b221734fee78fc5efefb8c4daa7d54409145c92afb6987aaebd41ec291",
    "1-4":
        "6a93bb6f675aec495b3c95b287282fb500166f71f166f3a7066ea49cb029f29d",
    "1-5":
        "9a9c26932b9cbdf2e57733b562163ef06fb3e470fcbc1d2a4712ba3c58ddab87",
    "1-6":
        "746520b9f694b3fd113c9b5e0b1cdf4d4b28e6f2d991a8c39d1e535c81b516cb",
    "1-7":
        "0f031ca6ac8cc0945b198fe384a4b6334d1507d8e9af6051a36c60d69065c026",
    "1-8":
        "7fabb3c108829702e988e6e072566c9f48d3a6a6e8697c7e73a282ad260b5ffa",
    "1-9":
        "0fde612902cdc630a5d5de87b9a0fa706e1cca6d363e62f53c55b65d319bd30d",
    "1-10":
        "0b90d91e465c39407ea054a89a9d98754caabe7e8a43b469650284f3125b2dfb",
    "1-11":
        "e96da6c45228b85bfc98648984b90d08c76c25d0ba73ac1c0f128bfccbe186bd",
    "1-12":
        "dd90daa76ef9721dc06580b1e793f3247626ff51dd693abab0cc006022a96c4d",
    "1-13":
        "8990ff6e8f3d55242ac1b8cdf935aa56abb93037872fcc17bfa99781ec23f3e0",
    "1-14":
        "b93812ef9d48b8b2ddfd399dc368d61d64b5ceacce928711c99d2bdee4a4b789",
    "1-15":
        "32a1626559260fbb2dce389c68ffabc682ae5e0943352657d53faa224889253e",
    "1-16":
        "fe4ed467f038d233ecb9a4d397a084f9c6a3eaa8b452e5d5081ca376e007626c",
    "1-17":
        "daf41ef83277fa12eface3549a9de9906153da21b5017d6212be06dc662524b4",
    "2-1":
        "c99ef27c44bc44ce1d46f67206583143364b9f24b6eda41599b6ed4cc3e7f8b4",
    "2-2":
        "edfabfd4ea85c474bb54cdc9a9c1df767142d588c40efad21c91072387f2d8cb",
    "2-3":
        "0d4f30c7436294b72351b7d5490f25ff20dbe7f41e6ec8f12403056bbc0d3151",
    "9-1":
        "fdd2093505106f26c1fd0b608695cbe53c07040daf4d98655031b6f5eabf4e3d",
    "10-1":
        "b57af68dc082590abd03c9fb89dff858fd7799a4d3e29d1339e336b54c7bf9c4",
    "S7-d1":
        "cf51fa502547b41a3581e17eff75fbacebece6d5b38cf2f45b00746fb95bc8f1",
    "G36-2111":
        "13617b98e431f9dda6ea80be66f0bc2ec6b2e7d5bec7a30443beba3cff275d0e",
    "G36-1112":
        "d772cb4eb1dc78fc6393ed65c55f2189e7839b7c30e348ff46b87487ca1e12b0",
}


def _geometry_text(p: Polytope) -> str:
    lines = [f"facet {list(n)} {h}" for n, h in p.facets]
    lines += [f"vertex {list(v)}" for v in p.vertices]
    lines += [f"dual {[str(x) for x in v]}" for v in dual(p).vertices]
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
