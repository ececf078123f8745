"""The commands of `tlg` other than the catalog group.

Series (phi, iseries, verify), builders (build wci|grass|delpezzo|binomial,
minkowski check), mutation, polytope queries, lattice invariants, operator
fitting (pf fit) and Hodge-number bookkeeping, with the readers of their
input files. Each command registers with `tlg.cli._command` when this
module is imported, and `tlg.cli.main` imports it only to run one of these
commands or to print the whole command tree, so a `catalog verify` process
compiles none of it. Each command imports the modules it alone runs
(grassmann, hodge, lattice, minkowski, mutation, picard_fuchs, wci,
delpezzo) inside itself. A command returns its result, as a JSON payload
and as the lines of its text form, and `tlg.cli.main` prints the one
--output asks for.

Malformed input is a ParseError located at the input file, and a request
that parses but cannot be served is a UsageError; `tlg.cli.main` turns
them into exit codes 1 and 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
from fractions import Fraction
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from . import catalog as _catalog
from .builders import check_minkowski
from .cli import UsageError, _command, _opt
from .intlinalg import (_echelon, _IntEchelon, _integral, det_bareiss,
                        inverse_rational)
from .laurent import LaurentPoly
from .polytope import (DimensionMismatch, DimensionTooLarge, EmptyPolytope,
                       NotFullDimensional, Polytope, _dot, dual,
                       is_reflexive, json_point, lattice_points,
                       newton_polytope, normalized_volume)
from .series import (GrassSpec, PowerSeries, WciSpec, iseries_grassmannian,
                     iseries_toric, phi)

if TYPE_CHECKING:
    from .lattice import GramLattice


# -- input files and options ------------------------------------------------

def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _field(data, key: str, path: str):
    """data[key] of the JSON read from path; a missing key is a ParseError
    located at that file."""
    if not isinstance(data, dict) or key not in data:
        raise _catalog.ParseError(path, f"missing key {key!r}")
    return data[key]


def _int_rows(rows, what: str, path: str) -> Tuple[Tuple[int, ...], ...]:
    """rows as a tuple of integer tuples; anything else, a float or a bool
    included, is a ParseError located at path."""
    try:
        return _catalog._int_lists(rows, what)
    except TypeError as exc:
        raise _catalog.ParseError(path, str(exc)) from None


def _laurent_from(data, path: str) -> LaurentPoly:
    """The Laurent polynomial data read from path; malformed input is a
    ParseError located at path, with the index of the term at fault."""
    for key in ("vars", "terms"):
        _field(data, key, path)
    try:
        return LaurentPoly.from_json_dict(data)
    except (TypeError, ValueError) as exc:
        raise _catalog.ParseError(path, str(exc)) from None


def _points(raw, what: str, path: str) -> list:
    """raw as a list of points, each read by `json_point`; a refusal is a
    ParseError located at path."""
    if type(raw) is not list:
        raise _catalog.ParseError(
            path, f"{what} must be a list of points, got {raw!r}")
    out = []
    for i, p in enumerate(raw):
        try:
            out.append(json_point(p, f"{what}[{i}]"))
        except TypeError as exc:
            raise _catalog.ParseError(path, str(exc)) from None
        except (ValueError, ZeroDivisionError) as exc:
            raise _catalog.ParseError(path, f"{what}[{i}]: {exc}") from None
    return out


def _polytope_from(data, path: str) -> Polytope:
    """The polytope of the JSON read from path: a list of points, an object
    with "vertices" (and "dim") or "points", or a Laurent polynomial for
    its Newton polytope; malformed input, points of mixed or undeclared
    dimension or no point included, is a ParseError located at path."""
    if isinstance(data, list):
        data = {"points": data}
    if isinstance(data, dict):
        try:
            if "vertices" in data and "dim" in data:
                if type(data["dim"]) is not int:
                    raise _catalog.ParseError(
                        path, f"dim must be an integer, got {data['dim']!r}")
                _points(data["vertices"], "vertices", path)  # located refusals
                return Polytope.from_json_dict(data)
            for key in ("vertices", "points"):
                if key in data:
                    return Polytope(_points(data[key], key, path))
        except (DimensionMismatch, EmptyPolytope) as exc:
            raise _catalog.ParseError(path, str(exc)) from None
        if "vars" in data and "terms" in data:
            return newton_polytope(_laurent_from(data, path))
    raise _catalog.ParseError(
        path, "expected polytope points or a Laurent polynomial")


def _series_from(data, path: str) -> PowerSeries:
    """The power series of the JSON read from path: a list of coefficients,
    or an object with "coeffs" and optionally "order"; malformed input is a
    ParseError located at path, with the index of the coefficient at
    fault."""
    if isinstance(data, list):
        data = {"coeffs": data}
    if not isinstance(data, dict) or "coeffs" not in data:
        raise _catalog.ParseError(
            path, "expected a power series with 'order' and 'coeffs'")
    try:
        return PowerSeries.from_json_dict(data)
    except ValueError as exc:
        raise _catalog.ParseError(path, str(exc)) from None


def _gram_from(data, path: str) -> GramLattice:
    """The lattice of the JSON read from path, {'gram': rows} or
    {'name': name}, each with an optional integer "twist"; malformed input
    is a ParseError located at path."""
    from .lattice import GramLattice, standard_lattice
    if not isinstance(data, dict) or ("gram" not in data
                                      and "name" not in data):
        raise _catalog.ParseError(
            path, "expected a lattice as {'gram': ...} or {'name': ...}")
    twist = data.get("twist", 1)
    if type(twist) is not int or twist == 0:
        raise _catalog.ParseError(
            path, f"twist must be a nonzero integer, got {twist!r}")
    if "gram" in data:
        rows = _int_rows(data["gram"], "gram", path)
        try:
            base = GramLattice(rows)
        except ValueError as exc:
            raise _catalog.ParseError(path, str(exc)) from None
        return base if twist == 1 else base.twist(twist)
    if type(data["name"]) is not str:
        raise _catalog.ParseError(
            path, f"name must be a string, got {data['name']!r}")
    return standard_lattice(data["name"], twist)


def _int_list(value: str) -> Tuple[int, ...]:
    if value == "":
        return ()
    try:
        return tuple(int(x) for x in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma separated integers") from None


def _existing_file(value: str) -> str:
    if not os.path.isfile(value):
        raise argparse.ArgumentTypeError(f"no such file: {value!r}")
    return value


def _auto_or_existing_file(value: str) -> str:
    return value if value == "auto" else _existing_file(value)


def _name_list(value: Optional[str]) -> Optional[Tuple[str, ...]]:
    if not value:
        return None
    return tuple(s.strip() for s in value.split(","))


def _cstr(value) -> str:
    return str(Fraction(value))


_INPUT = _opt("--input", "-i", dest="input_path", metavar="PATH",
              required=True, type=_existing_file, help="Input JSON file.")
_ORDER = _opt("--order", type=int, required=True)
_DEGREES = _opt("--degrees", type=_int_list, default="",
                help="Hypersurface degrees, comma separated (empty for the "
                     "ambient space).")


def _csv(rows) -> list:
    """Each row as one line of comma separated values."""
    return [",".join(str(x) for x in row) for row in rows]


def _series(series: PowerSeries):
    return series.to_json_dict(), _csv([series.coeffs])


def _laurent(f: LaurentPoly):
    return f.to_json_dict(), [f]


def _polytope(p: Polytope):
    return p.to_json_dict(), _csv(p.vertices)


# -- commands ---------------------------------------------------------------

@_command("phi", _INPUT,
          _opt("--order", type=int, required=True,
               help="Number of series coefficients to compute."))
def phi_cmd(input_path, order):
    """Constant-term period series of a Laurent polynomial."""
    f = _laurent_from(_read_json(input_path), input_path)
    return _series(phi(f, order))


@_command("iseries wci",
          _opt("--weights", type=_int_list, required=True,
               help="Ambient weights, comma separated."),
          _DEGREES, _ORDER)
def iseries_wci_cmd(weights, degrees, order):
    """Weighted complete intersection."""
    return _series(iseries_toric(WciSpec(weights, degrees).toric_data(),
                                 order))


@_command("iseries grass",
          _opt("--k", type=int, required=True, help="Subspace dimension."),
          _opt("--n", type=int, required=True,
               help="Codimension part: the Grassmannian is G(k, n+k)."),
          _DEGREES, _ORDER)
def iseries_grass_cmd(k, n, degrees, order):
    """Complete intersection in a Grassmannian."""
    return _series(iseries_grassmannian(GrassSpec(k, n, degrees), order))


@_command("iseries toric", _INPUT, _ORDER)
def iseries_toric_cmd(input_path, order):
    """Toric complete intersection: {"rows": [[D_j.C_s, ...], ...]} and
    optionally {"degrees": [[L_i.C_s per row], ...]}."""
    spec = _catalog.generator_from_json(_read_json(input_path), input_path,
                                        "toric")
    return _series(iseries_toric(spec, order))


class PeriodReport(NamedTuple):
    """Outcome of comparing a period with a target series."""

    match: bool
    order: int
    first_mismatch: Optional[int] = None
    expected: Optional[str] = None
    found: Optional[str] = None

    def to_json_dict(self) -> dict:
        out = {"match": self.match, "order": self.order}
        if not self.match:
            out.update({"first_mismatch": self.first_mismatch,
                        "expected": self.expected, "found": self.found})
        return out


def verify_period(f: LaurentPoly, target: PowerSeries) -> PeriodReport:
    """Exact comparison of the period of f against a target series."""
    if target.order < 2:
        raise ValueError("target must have order at least 2")
    mine = phi(f, target.order)
    i = mine.first_mismatch(target)
    if i is None:
        return PeriodReport(True, target.order)
    return PeriodReport(False, target.order, i,
                        str(Fraction(target.coeffs[i])),
                        str(Fraction(mine.coeffs[i])))


@_command("verify", _INPUT,
          _opt("--against", required=True, type=_existing_file,
               help="JSON file with the target series."),
          _opt("--order", type=int,
               help="Truncate the target before comparing."))
def verify_cmd(input_path, against, order):
    """Compare the period of a Laurent polynomial with a target series."""
    f = _laurent_from(_read_json(input_path), input_path)
    target = _series_from(_read_json(against), against)
    if order is not None:
        target = target.truncate(order)
    report = verify_period(f, target)
    if report.match:
        line = f"match through order {report.order}"
    else:
        line = (f"mismatch at t^{report.first_mismatch}: expected "
                f"{report.expected}, found {report.found}")
    return report.to_json_dict(), [line], 0 if report.match else 1


@_command("build wci",
          _opt("--weights", type=_int_list, required=True), _DEGREES,
          _opt("--partition", default="auto", type=_auto_or_existing_file,
               help="'auto' (the default) picks the drop-largest "
                    "nef-partition; otherwise a JSON file with "
                    "{'classes': [[...], ...]}."),
          _opt("--var-names",
               help="Comma separated names for the torus coordinates."))
def build_wci_cmd(weights, degrees, partition, var_names):
    """Weighted complete intersection model."""
    from .wci import NefPartition, _quality, wci_laurent
    spec = WciSpec(weights, degrees)
    part = None
    if partition != "auto":
        classes = _int_rows(_field(_read_json(partition), "classes",
                                   partition), "classes", partition)
        if not classes:
            raise _catalog.ParseError(partition, "classes must not be empty")
        part = NefPartition(classes, _quality(classes[0], weights))
    return _laurent(wci_laurent(spec, part=part,
                                var_names=_name_list(var_names)))


@_command("build grass",
          _opt("--k", type=int, required=True),
          _opt("--n", type=int, required=True), _DEGREES,
          _opt("--sort", dest="sort_dir", choices=("asc", "desc"),
               help="Reorder the degrees before building."),
          _opt("--explain", action="store_true",
               help="Include blocks, weight table, weight vertices and the "
                    "block-weight matrix with its inverse."))
def build_grass_cmd(k, n, degrees, sort_dir, explain):
    """Quiver model for a complete intersection in G(k, n+k)."""
    from .grassmann import (bcfks_laurent, consecutive_blocks, weight_table,
                            weight_variables)
    if sort_dir == "asc":
        degrees = tuple(sorted(degrees))
    elif sort_dir == "desc":
        degrees = tuple(sorted(degrees, reverse=True))
    spec = GrassSpec(k, n, degrees)
    f = bcfks_laurent(spec)
    if not explain:
        return _laurent(f)
    model = consecutive_blocks(spec)
    table = weight_table(model)
    vertices = [b.weight_vertex(model.k) for b in model.blocks]
    variables = weight_variables(model)
    m = [[table[p].get(v, 0) for v in vertices]
         for p in range(len(model.blocks))]
    m_inv = [[_cstr(x) for x in row] for row in inverse_rational(m)]
    payload = {
        "laurent": f.to_json_dict(),
        "blocks": [{"kind": b.kind, "r": b.r, "s": b.s}
                   for b in model.blocks],
        "weight_variables": variables,
        "weight_vertices": [list(v) for v in vertices],
        "weight_table": [
            sorted(({"vertex": list(v), "weight": w}
                    for v, w in table[p].items()),
                   key=lambda rec: rec["vertex"])
            for p in range(len(model.blocks))],
        "m_matrix": m,
        "m_inverse": m_inv,
    }
    return payload, [
        f,
        *(f"block {p + 1}: {b.kind}({b.r},{b.s}) weight vertex "
          f"{vertices[p]} variable {variables[p]}"
          for p, b in enumerate(model.blocks)),
        *(f"M[{p + 1}] = {row}" for p, row in enumerate(m)),
        *(f"Minv[{p + 1}] = {row}" for p, row in enumerate(m_inv))]


@_command("build delpezzo", _INPUT,
          _opt("--mode", choices=("toric", "surface"), default="toric",
               help="(default: %(default)s)"))
def build_delpezzo_cmd(input_path, mode):
    """Parametrized del Pezzo model from a blow-up script."""
    from .delpezzo import DelPezzoScript, del_pezzo_model
    data = _read_json(input_path)
    base = _field(data, "base", input_path)
    params = data.get("params", [])
    if type(params) is not list or not all(isinstance(q, str) for q in params):
        raise _catalog.ParseError(
            input_path, f"params must be a list of strings, got {params!r}")
    script = DelPezzoScript(
        base, _int_rows(data.get("steps", []), "steps", input_path),
        tuple(params))
    return _laurent(del_pezzo_model(script, mode=mode))


@_command("build binomial", _INPUT)
def build_binomial_cmd(input_path):
    """Coefficients from the binomial boundary rule on a polytope."""
    from .minkowski import binomial_principle
    p = _polytope_from(_read_json(input_path), input_path)
    return _laurent(binomial_principle(p))


@_command("minkowski check", _INPUT,
          _opt("--max-summands", type=int, default=4,
               help="(default: %(default)s)"))
def minkowski_check_cmd(input_path, max_summands):
    """Certify facet decompositions into A-type polygons."""
    if max_summands < 1:
        raise UsageError(
            f"--max-summands must be at least 1, got {max_summands}")
    f = _laurent_from(_read_json(input_path), input_path)
    cert = check_minkowski(f, max_summands=max_summands)
    return ({"minkowski": cert is not None, "certificate":
             None if cert is None else cert.to_json_dict()},
            [json.dumps(cert is not None)])


@_command("mutate", _INPUT,
          _opt("--pivot", required=True,
               help="Variable the mutation rewrites."),
          _opt("--factor", required=True, type=_existing_file,
               help="JSON file with the mutation factor."))
def mutate_cmd(input_path, pivot, factor):
    """Apply an elementary mutation pivot -> pivot / factor."""
    from .mutation import elementary_mutation
    f = _laurent_from(_read_json(input_path), input_path)
    g = _laurent_from(_read_json(factor), factor)
    return _laurent(elementary_mutation(f, pivot, g))


@_command("polytope hull", _INPUT)
def polytope_hull_cmd(input_path):
    """Vertices of the convex hull of the input points."""
    return _polytope(_polytope_from(_read_json(input_path), input_path))


@_command("polytope dual", _INPUT)
def polytope_dual_cmd(input_path):
    """Polar dual polytope."""
    p = _polytope_from(_read_json(input_path), input_path)
    return _polytope(dual(p))


@_command("polytope reflexive", _INPUT)
def polytope_reflexive_cmd(input_path):
    """Whether the polytope is reflexive."""
    ok = is_reflexive(_polytope_from(_read_json(input_path), input_path))
    return ok, [json.dumps(ok)]


@_command("polytope volume", _INPUT)
def polytope_volume_cmd(input_path):
    """Normalized lattice volume."""
    p = _polytope_from(_read_json(input_path), input_path)
    vol = normalized_volume(p)
    return {"volume": vol}, [vol]


@_command("polytope points", _INPUT,
          _opt("--region", choices=("all", "boundary", "interior"),
               default="all", help="(default: %(default)s)"))
def polytope_points_cmd(input_path, region):
    """Lattice points of the polytope."""
    pts = lattice_points(_polytope_from(_read_json(input_path), input_path),
                         region=region)
    return {"count": len(pts), "points": [list(p) for p in pts]}, _csv(pts)


def unimodular_equivalent(p: Polytope, q: Polytope
                          ) -> Optional[List[List[int]]]:
    """A matrix U in GL(n, Z) with U.vertices(p) = vertices(q), or None.

    Linear maps only; polytopes whose vertex cones are based at the origin
    never need a translation part. Searches assignments of one fixed
    linearly independent vertex tuple of p to ordered vertex tuples of q.
    """
    if p.ambient_dim != q.ambient_dim:
        return None
    n = p.ambient_dim
    if n > 4:
        raise DimensionTooLarge("equivalence search supports ambient dimension <= 4")
    if not (p.is_full_dimensional() and q.is_full_dimensional()):
        raise NotFullDimensional("equivalence search needs full-dimensional polytopes")
    if len(p.vertices) != len(q.vertices):
        return None
    if sorted(h for _, h in p.facets) != sorted(h for _, h in q.facets):
        return None
    if n == 0:
        return []
    # the vertices of a full-dimensional p span Q^n linearly
    ech = _IntEchelon()
    chosen = [v for v in p.vertices if ech.add(_integral(v))]
    for tup in itertools.permutations(q.vertices, n):
        # U v = w for the chosen v and their images w: the reduced echelon
        # of the rows (v | w) is (I | U^T) up to the scale of each row,
        # and a primitive row has integral U entries only at pivot 1
        ech = _echelon(v + w for v, w in zip(chosen, tup))
        if any(row[c] != 1 for row, c in zip(ech.rows, ech.pivots)):
            continue
        column = dict(zip(ech.pivots, ech.rows))
        ui = [[column[c][n + i] for c in range(n)] for i in range(n)]
        if abs(det_bareiss(ui)) != 1:
            continue
        image = {tuple(_dot(row, v) for row in ui) for v in p.vertices}
        if image == set(q.vertices):
            return ui
    return None


@_command("polytope equiv", _INPUT)
def polytope_equiv_cmd(input_path):
    """Search for a lattice-linear isomorphism between two polytopes."""
    data = _read_json(input_path)
    p = _polytope_from(_field(data, "first", input_path), input_path)
    q = _polytope_from(_field(data, "second", input_path), input_path)
    u = unimodular_equivalent(p, q)
    return {"equivalent": u is not None, "map": u}, [json.dumps(u is not None)]


def _lattice_input(name: Optional[str], twist: int,
                   input_path: Optional[str]) -> GramLattice:
    from .lattice import standard_lattice
    if (name is None) == (input_path is None):
        raise UsageError("give exactly one of --name or --input")
    if name is not None:
        return standard_lattice(name, twist)
    l = _gram_from(_read_json(input_path), input_path)
    return l if twist == 1 else l.twist(twist)


_LATTICE_OPTIONS = (
    _opt("--name", help="Named lattice such as A5, D_8, E7, H, M, M_6 or "
                        "<-6>."),
    _opt("--twist", type=int, default=1, help="(default: %(default)s)"),
    _opt("--input", "-i", dest="input_path", metavar="PATH",
         type=_existing_file,
         help="JSON file with {'gram': ...} or {'name': ...}."))


@_command("lattice disc", *_LATTICE_OPTIONS)
def lattice_disc_cmd(name, twist, input_path):
    """Discriminant group and quadratic form values."""
    from .lattice import discriminant
    data = discriminant(_lattice_input(name, twist, input_path))
    group = " x ".join(f"Z/{d}" for d in data.group) or "trivial"
    values = [_cstr(v) for v in data.form_values]
    return ({"group": list(data.group),
             "generators": [[_cstr(x) for x in g] for g in data.generators],
             "form_values": values},
            [f"{group}; q = ({', '.join(values)})"])


@_command("lattice sig", *_LATTICE_OPTIONS)
def lattice_sig_cmd(name, twist, input_path):
    """Signature (positive, negative) of the bilinear form."""
    from .lattice import signature
    pos, neg = signature(_lattice_input(name, twist, input_path))
    return {"signature": [pos, neg]}, [f"{pos},{neg}"]


@_command("lattice index", _INPUT)
def lattice_index_cmd(input_path):
    """Index of a finite-index isometric embedding."""
    from .lattice import index_check
    data = _read_json(input_path)
    idx = index_check(_gram_from(_field(data, "sub", input_path), input_path),
                      _gram_from(_field(data, "sup", input_path), input_path),
                      _int_rows(_field(data, "embedding", input_path),
                                "embedding", input_path))
    return {"index": idx}, [idx]


@_command("lattice duval",
          _opt("--type", dest="sing", metavar="TYPE", required=True,
               help="Singularity type such as A5, D_4 or E7."),
          _opt("--k", type=int, help="Chain position."),
          _opt("--r", type=int,
               help="Second chain position for a transversal pair."),
          _opt("--self", dest="self_int", action="store_true",
               help="Self-intersection correction instead of a pair."),
          _opt("--branch", help="'tail' or 'fork' for D_n."))
def lattice_duval_cmd(sing, k, r, self_int, branch):
    """Intersection corrections for curves through a du Val point."""
    from .lattice import duval_intersection, duval_self_intersection
    if self_int:
        value = _cstr(duval_self_intersection(sing, k=k, branch=branch))
    else:
        value = _cstr(duval_intersection(sing, k=k, r=r))
    return {"value": value}, [value]


@_command("pf fit", _INPUT,
          _opt("--max-order", type=int, required=True,
               help="Logarithmic-derivative order of the ansatz."),
          _opt("--max-degree", type=int, required=True,
               help="Largest t-degree to try."))
def pf_fit_cmd(input_path, max_order, max_degree):
    """Fit an operator to a truncated series and cross-check the tail."""
    from .picard_fuchs import fit
    series = _series_from(_read_json(input_path), input_path)
    op = fit(series, max_order, max_degree)
    if op is None:
        return None, ["no operator found"]
    return op.to_json_dict(), [op]


@_command("hodge surface",
          _opt("--d", type=int, required=True, help="Anticanonical degree."))
def hodge_surface_cmd(d):
    """Surface invariants of the mirror of a degree d del Pezzo."""
    from .hodge import kkp_surface_numbers
    report = kkp_surface_numbers(d)
    diamond = report.diamond
    payload = {
        "degree": report.degree,
        "fano": report.fano_type,
        "diamond": None if diamond is None else {
            "dim": diamond.dim,
            "h": [list(row) for row in diamond.h],
            "middle_row": list(diamond.middle_row())},
        "jordan_blocks": [list(b) for b in report.jordan_blocks]}
    if diamond is None:
        blocks = ", ".join(f"{s}x{m}" for s, m in report.jordan_blocks)
        return payload, [f"not Fano type; Jordan blocks {blocks}"]
    return payload, _csv([diamond.middle_row()])


@_command("hodge threefold",
          _opt("--ky", type=int, required=True,
               help="Total excess of fiber components."),
          _opt("--ph", type=int, required=True,
               help="Rank of the middle primitive part, fiber class "
                    "included."),
          _opt("--h12z", type=int, default=0, help="(default: %(default)s)"),
          _opt("--h21z", type=int, default=0, help="(default: %(default)s)"))
def hodge_threefold_cmd(ky, ph, h12z, h21z):
    """Threefold diamond from fiber bookkeeping."""
    from .hodge import harder_diamond
    diamond = harder_diamond(ky, ph, h12z=h12z, h21z=h21z)
    return ({"dim": diamond.dim,
             "h": [list(row) for row in diamond.h],
             "middle_row": list(diamond.middle_row())}, _csv(diamond.h))


@_command("hodge components", _INPUT)
def hodge_components_cmd(input_path):
    """Components of the fiber over infinity for a reflexive 3-polytope."""
    from .hodge import components_at_infinity
    p = _polytope_from(_read_json(input_path), input_path)
    count = components_at_infinity(p)
    return {"components": count}, [count]


@_command("hodge kmatrix", _DEGREES,
          _opt("--index", dest="fano_index", metavar="INDEX", type=int,
               required=True))
def hodge_kmatrix_cmd(degrees, fano_index):
    """Ray matrix of the fiber over infinity and its component count."""
    from .hodge import k_components, k_matrix
    matrix = k_matrix(degrees, fano_index)
    count = k_components(degrees, fano_index)
    return ({"matrix": matrix, "components": count},
            [*_csv(matrix), f"components: {count}"])
