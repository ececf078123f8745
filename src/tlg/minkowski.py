"""Supplied Minkowski certificates and binomial placement on polytopes.

`tlg.builders` searches a certificate for every entry `catalog verify`
flags Minkowski; this module holds what only the other commands and
library callers run, so a `catalog verify` process compiles none of it:
reading a certificate from JSON (`certificate_from_json_dict`), building
the Laurent polynomial a certificate describes (`minkowski_polynomial`),
A-type polygons given as polytopes, and binomial coefficient placement on
a reflexive polytope (`binomial_principle`, `tlg build binomial`).

A supplied certificate is checked on edge steps by the search's own
`builders._check_facet_decomposition`, on the facet polygons the search
reads off the Newton polytope's hull (`builders._facet_polygons`).
"""

from __future__ import annotations

from math import gcd, prod
from typing import Dict, Optional, Sequence, Tuple

from .builders import (BadCertificate, Edges, FacetDecomposition,
                       MinkowskiCertificate, _a_type_terms,
                       _check_facet_decomposition, _cross, _edge_binomials,
                       _facet_polygons)
from .laurent import LaurentPoly
from .polytope import (Polytope, PolytopeError, _sub, edges, is_reflexive,
                       lattice_points)


class InteriorFacetPoint(ValueError):
    """A facet carries a lattice point away from every edge."""


def _default_names(d: int) -> Tuple[str, ...]:
    if d <= 3:
        return ("x", "y", "z")[:d]
    return tuple(f"x{i}" for i in range(1, d + 1))


def binomial_principle(p: Polytope) -> LaurentPoly:
    """Vertex coefficients 1, edge coefficients C(n, i), nothing else.

    The polytope must be reflexive with every non-origin lattice point on
    an edge; an edge of lattice length n carries C(n, i) at its i-th point.
    """
    if not is_reflexive(p):
        raise ValueError("binomial coefficient placement needs a reflexive polytope")
    terms = _edge_binomials(edges(p))
    for pt in lattice_points(p):
        if any(pt) and pt not in terms:
            raise InteriorFacetPoint(f"lattice point {pt} lies on no edge")
    return LaurentPoly(_default_names(p.ambient_dim), terms)


def _a_type_edges(s: Sequence) -> Optional[Edges]:
    """The edges of s as (primitive step, lattice length), counterclockwise
    from s[0], when s is the sorted vertex tuple of an A-type polygon in
    Z^2; else None.

    A unit segment has one edge each way. A triangle is A-type when its
    edge lengths are (1, 1, n) and twice its area is n: a taller triangle
    with those edge lengths has interior lattice points.
    """
    if len(s) not in (2, 3) or any(
            len(v) != 2 or type(v[0]) is not int or type(v[1]) is not int
            for v in s) or any(a >= b for a, b in zip(s, s[1:])):
        return None
    if len(s) == 3 and _cross(_sub(s[1], s[0]), _sub(s[2], s[0])) < 0:
        s = (s[0], s[2], s[1])
    sides = [_sub(b, a) for a, b in zip(s, (*s[1:], s[0]))]
    lens = [gcd(*d) for d in sides]
    if sorted(lens)[:2] != [1, 1] or \
            len(s) == 3 and _cross(sides[0], sides[1]) != max(lens):
        return None
    return tuple(((d[0] // n, d[1] // n), n) for d, n in zip(sides, lens))


def is_An_polygon(q: Polytope) -> Optional[int]:
    """n when q is an A-type polygon in Z^2: a unit segment gives 0, a
    triangle of height one over an edge of length n gives n, anything else
    None."""
    e = _a_type_edges(q.vertices)
    if e is None:
        return None
    return 0 if len(e) == 2 else max(n for _, n in e)


def a_type_polynomial(q: Polytope, variables: Sequence[str] = ("x", "y")
                      ) -> LaurentPoly:
    """Binomial placement on a single A-type polygon: 1 at the apex and
    the endpoints, C(n, k) along the long edge."""
    if is_An_polygon(q) is None:
        raise BadCertificate(f"summand {q!r} is not an A-type polygon")
    return LaurentPoly(tuple(variables), _a_type_terms(q.vertices))


def certificate_from_json_dict(data) -> MinkowskiCertificate:
    """The certificate of `MinkowskiCertificate.to_json_dict`; a missing
    key, a normal that is not a list of integers, or a summand that is no
    polytope of its declared dimension, such as one with a coordinate that
    is no integer or rational string, or whose hull is no A-type polygon,
    is a BadCertificate naming the facet and summand at fault."""
    def field(obj, key, where):
        if not isinstance(obj, dict) or key not in obj:
            raise BadCertificate(f"{where}missing key {key!r}")
        return obj[key]

    facets = []
    for i, fd in enumerate(field(data, "facets", "")):
        normal = field(fd, "normal", f"facet {i}: ")
        if type(normal) is not list or \
                any(type(x) is not int for x in normal):
            raise BadCertificate(
                f"facet {i}: normal must be a list of integers, "
                f"got {normal!r}")
        summands = []
        for j, s in enumerate(field(fd, "summands", f"facet {i}: ")):
            where = f"facet {i}, summand {j}: "
            for key in ("vertices", "dim"):
                field(s, key, where)
            try:
                q = Polytope.from_json_dict(s)
            except (PolytopeError, TypeError, ValueError,
                    ZeroDivisionError) as exc:
                raise BadCertificate(f"{where}{exc}") from exc
            if _a_type_edges(q.vertices) is None:
                raise BadCertificate(
                    f"{where}summand {q.vertices} is not an A-type polygon")
            summands.append(q.vertices)
        facets.append(FacetDecomposition(tuple(normal), tuple(summands)))
    return MinkowskiCertificate(tuple(facets))


def minkowski_polynomial(p: Polytope, cert: MinkowskiCertificate) -> LaurentPoly:
    """Assemble the Laurent polynomial whose facet restrictions are the
    certified products of A-type binomial polynomials."""
    if p.ambient_dim != 3 or not is_reflexive(p) or not p.is_lattice():
        raise ValueError("Minkowski polynomials live on reflexive 3-polytopes")
    by_normal = {fd.normal: fd.summands for fd in cert.facets}
    if len(by_normal) != len(cert.facets) or \
            set(by_normal) != {n for n, _ in p.facets}:
        raise BadCertificate("certificate facets do not match the polytope")
    terms: Dict[Tuple[int, ...], int] = {}
    for normal, base, basis, _, first, budget in _facet_polygons(p, p.vertices):
        summands = by_normal[normal]
        edged = []
        for s in summands:
            e = _a_type_edges(s)
            if e is None:
                raise BadCertificate(f"summand {s!r} is not an A-type polygon")
            edged.append((s[0], e))
        _check_facet_decomposition(budget, first, edged)
        product = prod((LaurentPoly(("x", "y"), _a_type_terms(s))
                        for s in summands),
                       start=LaurentPoly.constant(1, ("x", "y")))
        for e, c in product.terms():
            ambient = tuple(base[j] + sum(ck * basis[k][j] for k, ck in enumerate(e))
                            for j in range(3))
            if terms.setdefault(ambient, c) != c:
                raise BadCertificate(
                    f"facets disagree on the coefficient at {ambient}")
    return LaurentPoly(_default_names(3), terms)
