import hashlib
import io
import itertools
import json
from contextlib import redirect_stdout
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tlg import (builders, catalog, delpezzo, intlinalg, lattice, minkowski,
                 polytope)
from tlg.cli import main
from tlg.builders import (BadCertificate, FacetDecomposition,
                          MinkowskiCertificate, check_minkowski)
from tlg.delpezzo import (BadBase, DelPezzoScript, EdgesDisagree,
                          PointInsideHull, del_pezzo_model, polygon_edges)
from tlg.laurent import LaurentPoly
from tlg.minkowski import (InteriorFacetPoint, a_type_polynomial,
                           binomial_principle, certificate_from_json_dict,
                           is_An_polygon, minkowski_polynomial)
from tlg.parametric import phi_coefficients
from tlg.polytope import (Polytope, dual, is_reflexive, lattice_chart,
                          lattice_points, newton_polytope)
from tlg.series import WciSpec
from tlg.wci import (BadPartition, NefPartition, find_nef_partitions,
                     wci_laurent)


def lp(expr_vars, terms):
    return LaurentPoly(tuple(expr_vars), terms)


def test_wci_projective_space():
    f = wci_laurent(WciSpec((1, 1, 1, 1), ()))
    assert f == lp(("x1", "x2", "x3"), {(1, 0, 0): 1, (0, 1, 0): 1,
                                        (0, 0, 1): 1, (-1, -1, -1): 1})


def test_wci_quartic_threefold():
    f = wci_laurent(WciSpec((1, 1, 1, 1, 1), (4,)))
    vs = ("x1", "x2", "x3")
    x1, x2, x3 = (LaurentPoly.variable(n, vs) for n in vs)
    expected = (1 + x1 + x2 + x3) ** 4 * (x1 * x2 * x3) ** -1
    assert f == expected


def test_wci_explicit_partition_and_names():
    spec = WciSpec((1, 1, 1, 1, 1), (4,))
    part = NefPartition(((4,), (0, 1, 2, 3)), "very_good")
    f = wci_laurent(spec, part, var_names=("a", "b", "c"))
    assert set(f.variables) == {"a", "b", "c"}
    a, b, c = (LaurentPoly.variable(n, ("a", "b", "c")) for n in "abc")
    assert f == (1 + a + b + c) ** 4 * (a * b * c) ** -1


def test_wci_partition_validation():
    spec = WciSpec((1, 1, 1, 1, 1), (4,))
    with pytest.raises(BadPartition):
        wci_laurent(spec, NefPartition(((0, 1, 2, 3, 4),), "plain"))
    with pytest.raises(BadPartition):
        wci_laurent(spec, NefPartition(((4,), (0, 1, 2)), "plain"))
    with pytest.raises(BadPartition):
        wci_laurent(spec, NefPartition(((4, 3), (0, 1, 2, 3)), "plain"))


def test_find_nef_partitions_counts_and_quality():
    spec = WciSpec((1, 1, 1, 2, 3), (6,))
    every = find_nef_partitions(spec)
    assert len(every) == 4
    best = find_nef_partitions(spec, "very_good")
    assert len(best) == 3
    assert all(p.quality == "very_good" for p in best)
    qualities = sorted(p.quality for p in every)
    assert qualities == ["plain", "very_good", "very_good", "very_good"]
    with pytest.raises(ValueError):
        find_nef_partitions(spec, "excellent")


def test_binomial_principle_triangle():
    tri = Polytope([(1, 0), (0, 1), (-1, -1)])
    assert binomial_principle(tri) == lp(("x", "y"), {(1, 0): 1, (0, 1): 1,
                                                      (-1, -1): 1})


def test_binomial_principle_big_triangle():
    big = Polytope([(2, -1), (-1, 2), (-1, -1)])
    vs = ("x", "y")
    x, y = (LaurentPoly.variable(n, vs) for n in vs)
    # boundary of the degree-9 triangle carries (x+y+1)^3/(xy) without
    # the interior constant term
    expected = (x + y + 1) ** 3 * (x * y) ** -1 - 6
    assert binomial_principle(big) == expected


def test_binomial_principle_rejects_facet_interior_points():
    cube = Polytope([(a, b, c) for a in (-1, 1) for b in (-1, 1)
                     for c in (-1, 1)])
    with pytest.raises(InteriorFacetPoint):
        binomial_principle(cube)
    with pytest.raises(ValueError):
        binomial_principle(Polytope([(2, 0), (0, 2), (-2, -2)]))


def test_is_An_polygon():
    assert is_An_polygon(Polytope([(0, 0), (1, 0)])) == 0
    assert is_An_polygon(Polytope([(0, 0), (2, 0)])) is None
    assert is_An_polygon(Polytope([(0, 0), (1, 0), (0, 1)])) == 1
    assert is_An_polygon(Polytope([(0, 0), (2, 0), (0, 1)])) == 2
    assert is_An_polygon(Polytope([(0, 0), (3, 0), (0, 1)])) == 3
    assert is_An_polygon(Polytope([(0, 0), (2, 0), (0, 2)])) is None
    square = Polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert is_An_polygon(square) is None
    # a summand lives in its facet's chart Z^2
    assert is_An_polygon(Polytope([(0, 0, 0), (1, 0, 0)])) is None
    assert is_An_polygon(Polytope([(0, 0, 0), (2, 0, 0), (0, 1, 0)])) is None


def test_is_An_polygon_needs_height_one():
    # edge lengths (2, 1, 1) like an A_2 triangle, but height 5 over the
    # long edge: 4 interior lattice points
    tall = Polytope([(0, 0), (2, 0), (1, 5)])
    assert len(lattice_points(tall, "interior")) == 4
    assert is_An_polygon(tall) is None
    with pytest.raises(BadCertificate):
        a_type_polynomial(tall)


def test_check_minkowski_rejects_the_quartic_in_p11112():
    # catalog 1-12 has the facet conv((-1,3,-1), (3,-1,-1), (0,0,1)) with
    # edge lengths 4, 1, 1 and coefficient 0 at its interior points; a
    # triangle with a unit edge has no lattice Minkowski summands, and it
    # is too tall to be A_4
    f = next(e.laurent for e in catalog.load() if e.id == "1-12")
    assert check_minkowski(f) is None


def test_a_type_polynomial():
    tri = Polytope([(0, 0), (2, 0), (0, 1)])
    assert a_type_polynomial(tri) == lp(("x", "y"), {(0, 0): 1, (1, 0): 2,
                                                     (2, 0): 1, (0, 1): 1})
    tri3 = Polytope([(0, 0), (3, 0), (0, 1)])
    f3 = a_type_polynomial(tri3, variables=("u", "v"))
    assert f3 == lp(("u", "v"), {(0, 0): 1, (1, 0): 3, (2, 0): 3, (3, 0): 1,
                                 (0, 1): 1})


def test_check_minkowski_quartic():
    vs = ("x", "y", "z")
    x, y, z = (LaurentPoly.variable(n, vs) for n in vs)
    f = (1 + x + y + z) ** 4 * (x * y * z) ** -1
    cert = check_minkowski(f)
    assert cert is not None
    for fd in cert.facets:
        for s in fd.summands:
            assert Polytope(s).vertices == s
            assert is_An_polygon(Polytope(s)) is not None
    rebuilt = minkowski_polynomial(newton_polytope(f), cert)
    # the facet products pin every boundary coefficient; the interior
    # origin carries no term by convention
    assert rebuilt == f - 24


def _p3_model():
    vs = ("x", "y", "z")
    x, y, z = (LaurentPoly.variable(n, vs) for n in vs)
    return x + y + z + (x * y * z) ** -1


def test_check_minkowski_projective_space():
    f = _p3_model()
    cert = check_minkowski(f)
    assert cert is not None
    assert minkowski_polynomial(newton_polytope(f), cert) == f


def test_check_minkowski_finds_nothing_for_2_3_intersection():
    f = wci_laurent(WciSpec((1, 1, 1, 1, 1, 1), (2, 3)))
    assert check_minkowski(f) is None


def test_check_minkowski_needs_reflexive_3d():
    vs = ("x", "y")
    x, y = (LaurentPoly.variable(n, vs) for n in vs)
    with pytest.raises(ValueError):
        check_minkowski(x + y + (x * y) ** -1)


@pytest.mark.parametrize("bound", [0, -1, 2.5, True])
def test_check_minkowski_needs_a_bound_of_at_least_one(bound):
    # 0 used to find nothing and -1 to search with no limit; 2.5 lifted the
    # bound, so 1-2 got facets of 4 summands, and True ran as 1
    with pytest.raises(ValueError, match="max_summands"):
        check_minkowski(_p3_model(), max_summands=bound)


def _counting_hulls(monkeypatch):
    calls = []
    init = Polytope.__init__

    def counting_init(self, points):
        calls.append(points)
        init(self, points)
    monkeypatch.setattr(Polytope, "__init__", counting_init)
    return calls


def _refusing_lattice_points(monkeypatch):
    def refuse(*args):
        raise AssertionError("lattice_points called")
    for module in (builders, minkowski, polytope):
        monkeypatch.setattr(module, "lattice_points", refuse, raising=False)


def test_check_minkowski_builds_no_hull_per_minkowski_sum(monkeypatch):
    # every facet polygon is read off the Newton polytope's hull; hulling
    # each facet again from its chart lattice points made 10 on 1-8, a
    # Polytope per candidate summand and per checked choice's first summand
    # 50, and hulling every choice's Minkowski sum before that 62
    f = next(e.laurent for e in catalog.load() if e.id == "1-8")
    newton_polytope(f)
    calls = _counting_hulls(monkeypatch)
    _refusing_lattice_points(monkeypatch)
    assert check_minkowski(f) is not None
    assert len(calls) == 0


def test_minkowski_polynomial_builds_no_hull(monkeypatch):
    f = next(e.laurent for e in catalog.load() if e.id == "1-8")
    p = newton_polytope(f)
    cert = check_minkowski(f)
    calls = _counting_hulls(monkeypatch)
    _refusing_lattice_points(monkeypatch)
    minkowski_polynomial(p, cert)
    assert len(calls) == 0


def test_catalog_pass_hull_count(monkeypatch):
    # one `catalog verify --order 4` pass; 115 with a facet polygon hulled
    # per Minkowski facet, 439 with a Polytope per candidate summand and
    # per checked choice
    calls = _counting_hulls(monkeypatch)
    with redirect_stdout(io.StringIO()):
        assert main(["catalog", "verify", "--order", "4",
                     "--output", "json"]) == 0
    assert len(calls) == 25


def test_check_minkowski_builds_and_walks_no_facet_polygon(monkeypatch):
    # each facet polygon's edges are read off the Newton polytope's
    # ridges, where one polygon built and walked per facet made 10 walks
    # on 1-8, and walking each checked triangle too made 14
    def refuse(*args):
        raise AssertionError("polygon_edges or Polytope._full called")
    for module in (builders, delpezzo, minkowski, polytope):
        monkeypatch.setattr(module, "polygon_edges", refuse, raising=False)
    monkeypatch.setattr(Polytope, "_full", refuse)
    flagged = [e.laurent for e in catalog.load() if e.minkowski_flag]
    assert len(flagged) == 13
    assert all(check_minkowski(f) is not None for f in flagged)


def test_check_minkowski_searches_each_distinct_facet_polygon_once(
        monkeypatch):
    # facets with the same first vertex, budget in the same order and the
    # same terms share one search within a call: 61 over the 13 flagged
    # entries, where one search per facet made 90; a second round makes
    # them all again, as nothing is kept between calls
    calls = []
    search = builders._decompose_facet

    def counting_search(*args):
        calls.append(args)
        return search(*args)
    monkeypatch.setattr(builders, "_decompose_facet", counting_search)
    flagged = [e.laurent for e in catalog.load() if e.minkowski_flag]
    assert len(flagged) == 13
    for f in flagged:
        check_minkowski(f)
    assert len(calls) == 61
    for f in flagged:
        check_minkowski(f)
    assert len(calls) == 2 * 61


def test_check_minkowski_charts_facets_with_no_smith_form(monkeypatch):
    # the facet chart runs the Smith form's column steps on the normal
    # itself, with no generic Smith form and no Fraction inverse
    def refuse(*args):
        raise AssertionError("Smith form or Fraction inverse called")
    for module in (builders, intlinalg, lattice, polytope):
        for name in ("snf_with_transforms", "inverse_rational"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    f = next(e.laurent for e in catalog.load() if e.id == "1-8")
    assert check_minkowski(f) is not None


# sha256 of check_minkowski's certificate JSON, or None or the error, for
# each 3-variable catalog entry in catalog order: 13 certificates, 1-3 and
# 1-12 without one, 7 entries whose Newton polytope is not reflexive
MINKOWSKI_BOX_SHA256 = \
    "dbb5e16ee4c686db94aa312f2d5c6edc1c9be115c2fc58cdfa851d27d2b3b284"


def test_minkowski_certificates_are_byte_identical():
    lines = []
    for e in catalog.load():
        if len(e.laurent.variables) != 3:
            continue
        try:
            cert = check_minkowski(e.laurent)
            rec = {"id": e.id, "certificate":
                   None if cert is None else cert.to_json_dict()}
        except ValueError as exc:
            rec = {"id": e.id, "error": str(exc)}
        lines.append(json.dumps(rec, sort_keys=True))
    assert len(lines) == 22
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        MINKOWSKI_BOX_SHA256


def test_minkowski_check_json_is_byte_identical(tmp_path, capsys):
    f = next(e.laurent for e in catalog.load() if e.id == "1-8")
    model = tmp_path / "1-8.json"
    model.write_text(json.dumps(f.to_json_dict()))
    assert main(["minkowski", "check", "--input", str(model),
                 "--output", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == \
        "fc2d7e66684bb6a3239a3d71b7cf44b6162bbd8a08f0d980f03c5f0d0129ceff"


def _assert_candidates_match_their_hulls(budget):
    for verts, edges_of_s, poly in builders._candidate_summands(budget):
        q = Polytope(verts)
        assert q.vertices == verts
        if q.dim == 2:
            assert edges_of_s == tuple((step, n)
                                       for _, step, n in polygon_edges(q))
        else:
            d = (verts[1][0] - verts[0][0], verts[1][1] - verts[0][1])
            assert gcd(*d) == 1
            assert edges_of_s == ((d, 1), ((-d[0], -d[1]), 1))
        assert minkowski._a_type_edges(verts) == edges_of_s
        assert poly == a_type_polynomial(q)
        assert all(budget[step] >= n for step, n in edges_of_s)


def _rehulled_facets(p):
    # the path the facet generator replaces: every lattice point of p on
    # the facet, charted, hulled again and walked
    points = lattice_points(p)
    for normal, height in p.facets:
        pts = [q for q in points
               if sum(a * b for a, b in zip(normal, q)) + height == 0]
        base, basis, proj = lattice_chart(pts, normal)
        facet = Polytope(proj)
        yield (normal, base, basis, facet.vertices[0],
               [(step, n) for _, step, n in polygon_edges(facet)])


def _assert_facets_match_the_rehull(p, points):
    # the budget's key order is the walk's, which orders the candidates
    got = [(normal, base, basis, first, list(budget.items()))
           for normal, base, basis, _, first, budget
           in builders._facet_polygons(p, points)]
    assert got == list(_rehulled_facets(p))


def _reflexive_3d_entries():
    for e in catalog.load():
        p = newton_polytope(e.laurent)
        if p.ambient_dim == 3 and p.is_full_dimensional() and \
                min(h for _, h in p.facets) > 0 and is_reflexive(p):
            yield e


@pytest.mark.parametrize("entry_id",
                         [e.id for e in _reflexive_3d_entries()])
def test_facet_polygons_match_the_rehull(entry_id):
    f = next(e.laurent for e in catalog.load() if e.id == entry_id)
    p = newton_polytope(f)
    # the search charts f's exponents, the certificate check p's vertices
    _assert_facets_match_the_rehull(p, tuple(f.exponents()))
    _assert_facets_match_the_rehull(p, p.vertices)


def test_the_reflexive_3d_entries_are_the_minkowski_box():
    # the 13 certified entries and 1-3 and 1-12, which have no certificate
    assert len(list(_reflexive_3d_entries())) == 15


POINT3 = st.tuples(*[st.integers(-2, 2)] * 3)


@settings(max_examples=150, deadline=None)
@given(st.lists(POINT3, min_size=4, max_size=9).map(Polytope)
       .filter(lambda q: q.dim == 3))
@example(Polytope([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]))
@example(Polytope([(a, b, c) for a in (-1, 1) for b in (-1, 1)
                   for c in (-1, 1)]))
def test_facet_polygons_of_a_polytope_match_the_rehull(q):
    _assert_facets_match_the_rehull(q, q.vertices)
    _assert_facets_match_the_rehull(q, lattice_points(q))


@pytest.mark.parametrize("entry_id", [e.id for e in catalog.load()
                                      if e.minkowski_flag])
def test_candidate_summands_match_their_hulls(entry_id):
    f = next(e.laurent for e in catalog.load() if e.id == entry_id)
    for *_, budget in _rehulled_facets(newton_polytope(f)):
        _assert_candidates_match_their_hulls(dict(budget))


@pytest.mark.parametrize("entry_id", [e.id for e in catalog.load()
                                      if e.minkowski_flag])
def test_minkowski_polynomial_rebuilds_each_flagged_entry(entry_id):
    # the facet products pin every boundary coefficient; the interior
    # origin carries f's constant term alone
    f = next(e.laurent for e in catalog.load() if e.id == entry_id)
    rebuilt = minkowski_polynomial(newton_polytope(f), check_minkowski(f))
    assert rebuilt + f.constant_term() == f


def _vertex_sums_hull(summands):
    return Polytope([tuple(map(sum, zip(*vs)))
                     for vs in itertools.product(*(s.vertices
                                                   for s in summands))])


def _generates_z2(summands):
    # the index of the lattice that vectors span in Z^2 is the gcd of their
    # 2x2 minors; here the vectors are every difference of lattice points
    diffs = [(p[0] - pts[0][0], p[1] - pts[0][1])
             for pts in map(lattice_points, summands) for p in pts[1:]]
    return gcd(*(u[0] * v[1] - u[1] * v[0]
                 for u, v in itertools.combinations(diffs, 2))) == 1


BOX = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
SUMMAND = st.lists(BOX, min_size=2, max_size=5, unique=True).map(Polytope) \
    .filter(lambda s: s.dim > 0)
POLYGON = st.lists(BOX, min_size=3, max_size=6).map(Polytope) \
    .filter(lambda q: q.dim == 2)


@settings(max_examples=200, deadline=None)
@given(POLYGON)
@example(Polytope([(0, 0), (2, 0), (0, 1)]))
@example(Polytope([(0, 0), (2, 0), (0, 2)]))
@example(Polytope([(-2, -2), (2, -1), (-1, 2)]))
def test_candidate_summands_of_a_polygon_match_their_hulls(q):
    edges_of_q = tuple((step, n) for _, step, n in polygon_edges(q))
    _assert_candidates_match_their_hulls(dict(edges_of_q))
    # a supplied summand's edges are read off its vertices, for A-type
    # polygons only: by Pick, a triangle with edge lengths (1, 1, n) and no
    # interior lattice point has twice its area n
    a_type = len(q.vertices) == 3 and \
        sorted(n for _, n in edges_of_q)[:2] == [1, 1] and \
        not lattice_points(q, "interior")
    assert minkowski._a_type_edges(q.vertices) == \
        (edges_of_q if a_type else None)


def _edged(s):
    # (first vertex, edges) of a lattice polygon or segment
    if s.dim == 2:
        return s.vertices[0], [(step, n) for _, step, n in polygon_edges(s)]
    (a, b), (c, e) = s.vertices
    d = (c - a, e - b)
    n = gcd(*d)
    step = (d[0] // n, d[1] // n)
    return s.vertices[0], [(step, n), ((-step[0], -step[1]), n)]


@settings(max_examples=300, deadline=None)
@given(st.lists(SUMMAND, min_size=1, max_size=3),
       st.one_of(st.none(), st.lists(BOX, min_size=3, max_size=6)))
@example([Polytope([(0, 0), (1, 1)]), Polytope([(0, 0), (1, -1)])], None)
@example([Polytope([(0, 0), (2, 0)]), Polytope([(0, 0), (0, 1)])], None)
@example([Polytope([(0, 0), (1, 0), (0, 1)])], [(1, 0), (2, 0), (1, 1)])
def test_facet_check_accepts_exactly_the_admissible_sums(summands, other):
    # other None: the facet is the hull of the vertex sums, else a polygon
    # drawn on its own or that hull with the drawn points added
    exact = _vertex_sums_hull(summands)
    if other is None:
        facet = exact
    else:
        facet = Polytope(other if len(other) % 2 else
                         list(exact.vertices) + other)
    assume(facet.dim == 2)
    adds_up = exact == facet
    try:
        budget = {step: n for _, step, n in polygon_edges(facet)}
        builders._check_facet_decomposition(budget, facet.vertices[0],
                                            [_edged(s) for s in summands])
        message = None
    except BadCertificate as exc:
        message = str(exc)
    if not adds_up:
        assert message == "summands do not add up to the facet"
    elif not _generates_z2(summands):
        assert message == "summand lattices do not generate the facet lattice"
    else:
        assert message is None


@pytest.mark.parametrize("summand, message", [
    (((1, 0), (1, 1), (2, 0)), "do not add up"),
    (((0, 0),), "not an A-type polygon"),
    (((0, 0, 0), (1, 0, 0), (0, 1, 0)), "not an A-type polygon"),
    (((0, 0), (2, 0)), "not an A-type polygon"),
    (((0, 0), (1, 0), (0, 1), (1, 1)), "not an A-type polygon"),
    (((1, 0), (0, 0)), "not an A-type polygon"),
])
def test_minkowski_polynomial_checks_supplied_summands(summand, message):
    f = _p3_model()
    cert = check_minkowski(f)
    first = cert.facets[0]
    bad = FacetDecomposition(first.normal, (summand,))
    with pytest.raises(BadCertificate, match=message):
        minkowski_polynomial(newton_polytope(f),
                             MinkowskiCertificate((bad,) + cert.facets[1:]))


def test_minkowski_polynomial_needs_a_lattice_polytope():
    # every facet of this dual lies at height one, but it has the vertex
    # (-1, -1, 3/2), which no facet chart holds
    p = dual(Polytope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)]))
    assert is_reflexive(p) and not p.is_lattice()
    cert = MinkowskiCertificate(tuple(FacetDecomposition(n, ())
                                      for n, _ in p.facets))
    with pytest.raises(ValueError, match="reflexive 3-polytopes"):
        minkowski_polynomial(p, cert)


def test_minkowski_polynomial_rejects_a_facet_listed_twice():
    f = _p3_model()
    cert = check_minkowski(f)
    twice = MinkowskiCertificate(cert.facets + (cert.facets[0],))
    with pytest.raises(BadCertificate, match="do not match"):
        minkowski_polynomial(newton_polytope(f), twice)


@pytest.mark.parametrize("path, key, message", [
    ((), "facets", "missing key 'facets'"),
    (("facets", 1), "normal", "facet 1: missing key 'normal'"),
    (("facets", 2), "summands", "facet 2: missing key 'summands'"),
    (("facets", 3, "summands", 0), "dim",
     "facet 3, summand 0: missing key 'dim'"),
    (("facets", 0, "summands", 0), "vertices",
     "facet 0, summand 0: missing key 'vertices'"),
])
def test_minkowski_certificate_missing_keys_are_bad_certificates(path, key,
                                                                 message):
    data = check_minkowski(_p3_model()).to_json_dict()
    holder = data
    for step in path:
        holder = holder[step]
    del holder[key]
    with pytest.raises(BadCertificate) as exc:
        certificate_from_json_dict(data)
    assert str(exc.value) == message


@pytest.mark.parametrize("key, value, message", [
    ("dim", 3, "declared dim 3 but points live in 2"),
    ("vertices", [[0, "a"]], "Invalid literal for Fraction: 'a'"),
    # a JSON float is no coordinate, not even 0.0 or 1.0
    ("vertices", [[0.0, 0.0], [1.0, 0.0]],
     "vertices[0]: coordinates must be integers or rational strings, "
     "got [0.0, 0.0]"),
])
def test_minkowski_certificate_summand_that_is_no_polytope_is_bad(
        key, value, message):
    # Polytope.from_json_dict raised DimensionMismatch or ValueError here
    data = check_minkowski(_p3_model()).to_json_dict()
    data["facets"][1]["summands"][0][key] = value
    with pytest.raises(BadCertificate) as exc:
        certificate_from_json_dict(data)
    assert str(exc.value) == f"facet 1, summand 0: {message}"


def test_minkowski_certificate_summand_that_is_not_a_type_is_bad():
    # the square's hull is a polygon, but no A-type one
    data = check_minkowski(_p3_model()).to_json_dict()
    data["facets"][1]["summands"][0]["vertices"] = \
        [[0, 0], [1, 0], [0, 1], [1, 1], [0, 0]]
    with pytest.raises(BadCertificate) as exc:
        certificate_from_json_dict(data)
    assert str(exc.value) == ("facet 1, summand 0: summand ((0, 0), (0, 1), "
                              "(1, 0), (1, 1)) is not an A-type polygon")


def test_minkowski_certificate_normal_holding_a_list_is_bad():
    # hashing the normal in minkowski_polynomial raised a bare TypeError
    data = check_minkowski(_p3_model()).to_json_dict()
    data["facets"][2]["normal"] = [[1], 0, 0]
    with pytest.raises(BadCertificate) as exc:
        certificate_from_json_dict(data)
    assert str(exc.value) == \
        "facet 2: normal must be a list of integers, got [[1], 0, 0]"


def test_minkowski_certificate_json_round_trip():
    f = _p3_model()
    cert = check_minkowski(f)
    again = certificate_from_json_dict(cert.to_json_dict())
    assert again == cert
    assert minkowski_polynomial(newton_polytope(f), again) == f


def test_del_pezzo_bases():
    f = del_pezzo_model(DelPezzoScript("P2", (), ("q0",)))
    assert f == lp(("x", "y", "q0"), {(1, 0, 0): 1, (0, 1, 0): 1,
                                      (-1, -1, 1): 1})
    g = del_pezzo_model(DelPezzoScript("quadric_square", (), ("q0", "q1")))
    assert g == lp(("x", "y", "q0", "q1"),
                   {(1, 0, 0, 0): 1, (-1, 0, 1, 0): 1,
                    (0, 1, 0, 0): 1, (0, -1, 0, 1): 1})


def test_del_pezzo_steps_toric():
    script = DelPezzoScript("P2", ((1, 1), (0, -1), (1, -1)),
                            ("q0", "q1", "q2", "q3"))
    f = del_pezzo_model(script)
    vs = ("x", "y", "q0", "q1", "q2", "q3")
    assert f == lp(vs, {
        (1, 0, 0, 0, 0, 0): 1,          # x
        (0, 1, 0, 0, 0, 0): 1,          # y
        (-1, -1, 1, 0, 0, 0): 1,        # q0 / (x y)
        (1, 1, 0, 1, 0, 0): 1,          # q1 x y
        (0, -1, 1, 0, 1, 0): 1,         # q0 q2 / y
        (1, -1, 1, 0, 1, 1): 1,         # q0 q2 q3 x / y
    })


def test_del_pezzo_hulls_each_step_once(monkeypatch):
    # one hull of the markings and the new point per step, one of the final
    # markings; a contains check on the old hull and a second hull for the
    # boundary walk made 8
    calls = []
    init = Polytope.__init__

    def counting_init(self, points):
        calls.append(points)
        init(self, points)
    monkeypatch.setattr(Polytope, "__init__", counting_init)
    del_pezzo_model(DelPezzoScript("P2", ((1, 1), (0, -1), (1, -1)),
                                   ("q0", "q1", "q2", "q3")))
    assert len(calls) == 4


@pytest.mark.parametrize("coordinate", [1.5, True, "1"])
def test_del_pezzo_step_needs_integer_coordinates(coordinate):
    # int() read (1.5, 1) and (True, 1) as the step (1, 1)
    with pytest.raises(TypeError, match="integer coordinates"):
        del_pezzo_model(DelPezzoScript("P2", ((coordinate, 1),),
                                       ("q0", "q1")))


def test_del_pezzo_step_needs_two_coordinates():
    with pytest.raises(ValueError, match="pairs"):
        del_pezzo_model(DelPezzoScript("P2", ((1, 1, 0),), ("q0", "q1")))


def test_del_pezzo_step_on_a_marked_vertex_is_inside():
    # a marked vertex stays a vertex of the new hull, so only the marking
    # tells it apart from a point outside
    with pytest.raises(PointInsideHull):
        del_pezzo_model(DelPezzoScript("P2", ((1, 0),), ("q0", "q1")))


def test_del_pezzo_steps_surface():
    script = DelPezzoScript("P2", ((1, 1), (0, -1), (1, -1)),
                            ("q0", "q1", "q2", "q3"))
    f = del_pezzo_model(script, mode="surface")
    vs = ("x", "y", "q0", "q1", "q2", "q3")
    # the bottom edge (-1,-1)..(1,-1) and the right edge (1,-1)..(1,1)
    # have lattice length two, so their midpoints pick up the convolved
    # coefficients q0 q2 + q0 q3 and 1 + q0 q1 q2 q3
    assert f == lp(vs, {
        (0, 1, 0, 0, 0, 0): 1,
        (-1, -1, 1, 0, 0, 0): 1,
        (1, 1, 0, 1, 0, 0): 1,
        (0, -1, 1, 0, 1, 0): 1,
        (0, -1, 1, 0, 0, 1): 1,
        (1, -1, 1, 0, 1, 1): 1,
        (1, 0, 0, 0, 0, 0): 1,
        (1, 0, 1, 1, 1, 1): 1,
    })


def test_del_pezzo_periods_at_unit_parameters():
    base = del_pezzo_model(DelPezzoScript("P2", (), ("q0",)))
    once = del_pezzo_model(DelPezzoScript("P2", ((1, 1),), ("q0", "q1")))

    def at_unit_parameters(f):
        # each period coefficient is a polynomial in the parameters; its
        # value at q = 1 is the sum of its coefficients
        return [sum(c for _, c in p.terms())
                for p in phi_coefficients(f, 6, ("x", "y"))]

    assert base.variables == ("x", "y", "q0")
    assert once.variables == ("x", "y", "q0", "q1")
    assert at_unit_parameters(base) == [1, 0, 0, 6, 0, 0]
    assert at_unit_parameters(once) == [1, 0, 2, 6, 6, 60]


def test_del_pezzo_errors():
    with pytest.raises(BadBase):
        del_pezzo_model(DelPezzoScript("P3", (), ("q0",)))
    with pytest.raises(ValueError):
        del_pezzo_model(DelPezzoScript("P2", (), ("q0", "q1")))
    with pytest.raises(PointInsideHull):
        del_pezzo_model(DelPezzoScript("P2", ((0, 0),), ("q0", "q1")))
    with pytest.raises(ValueError):
        # attaching (1,-1) straight away leaves its neighbour (0,-1) bare
        del_pezzo_model(DelPezzoScript("P2", ((1, -1),), ("q0", "q1")))
    with pytest.raises(ValueError):
        del_pezzo_model(DelPezzoScript("P2", (), ("q0",)), mode="affine")


def test_del_pezzo_surface_edges_that_disagree_raise(monkeypatch):
    # the product rule gives every vertex coefficient 1, so two real edges
    # never disagree; a cycle with the chord (-1,2)..(0,-1), which ends
    # where the bottom edge carries C(3, 1) = 3, makes them
    marked = [(-1, -1), (0, -1), (1, -1), (2, -1), (1, 0), (0, 1), (-1, 2)]
    monkeypatch.setattr(delpezzo, "_base_markings",
                        lambda base, n: {pt: (0,) * n for pt in marked})
    monkeypatch.setattr(delpezzo, "polygon_edges",
                        lambda p: [((-1, -1), (1, 0), 3), ((2, -1), (-1, 1), 3),
                                   ((-1, 2), (1, -3), 1), ((0, -1), (-1, 0), 1)])
    with pytest.raises(EdgesDisagree, match=r"\(0, -1, 0\)"):
        del_pezzo_model(DelPezzoScript("P2", (), ("q0",)), mode="surface")


def test_del_pezzo_newton_polytope_matches_steps():
    script = DelPezzoScript("P2", ((1, 1),), ("q0", "q1"))
    f = del_pezzo_model(script)
    proj = {}
    for e, c in f.terms():
        proj[(e[0], e[1])] = proj.get((e[0], e[1]), 0) + c
    hull = Polytope(list(proj))
    assert hull == Polytope([(1, 0), (0, 1), (-1, -1), (1, 1)])
