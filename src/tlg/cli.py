"""Command line front end.

Subcommands mirror the library: series (phi, iseries, verify), builders
(build wci|grass|delpezzo|binomial, minkowski check), mutation, polytope
queries, lattice invariants, operator fitting (pf fit), Hodge-number
bookkeeping and the bundled catalog. Output defaults to a compact text
form; --output json switches to JSON with rational numbers rendered as
strings, never floats. Identical inputs and flags produce byte-identical
JSON across runs and across --jobs settings.

Exit codes: 0 success, 1 computation failure (with a structured JSON
error on stderr) or a failed verification, 2 usage error.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import click

from . import catalog as _catalog
from .builders import (DelPezzoScript, NefPartition, _quality,
                       binomial_principle, check_minkowski, del_pezzo_model,
                       wci_laurent)
from .grassmann import (bcfks_laurent, closed_formula_laurent,
                        consecutive_blocks, weight_table, weight_variables)
from .hodge import (components_at_infinity, harder_diamond, k_components,
                    k_matrix, kkp_surface_numbers)
from .intlinalg import inverse_rational
from .lattice import (GramLattice, discriminant, duval_intersection,
                      duval_self_intersection, index_check, signature,
                      standard_lattice)
from .laurent import LaurentPoly
from .mutation import elementary_mutation
from .picard_fuchs import fit as pf_fit
from .polytope import (Polytope, dual, is_reflexive, lattice_points,
                       newton_polytope, normalized_volume,
                       unimodular_equivalent)
from .series import (GrassSpec, PowerSeries, WciSpec, iseries_grassmannian,
                     iseries_toric, phi, verify_period)


# -- shared plumbing --------------------------------------------------------

def _echo_json(payload) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _field(data, key: str, path: str):
    """data[key] of the JSON read from path; a missing key is a ParseError
    located at that file."""
    if not isinstance(data, dict) or key not in data:
        raise _catalog.ParseError(path, f"missing key {key!r}")
    return data[key]


def _laurent_from(data) -> LaurentPoly:
    if isinstance(data, dict) and "vars" in data and "terms" in data:
        return LaurentPoly.from_json_dict(data)
    raise ValueError("expected a Laurent polynomial with 'vars' and 'terms'")


def _polytope_from(data) -> Polytope:
    if isinstance(data, list):
        return Polytope(data)
    if isinstance(data, dict):
        if "vertices" in data and "dim" in data:
            return Polytope.from_json_dict(data)
        if "vertices" in data:
            return Polytope(data["vertices"])
        if "points" in data:
            return Polytope(data["points"])
        if "vars" in data and "terms" in data:
            return newton_polytope(LaurentPoly.from_json_dict(data))
    raise ValueError("expected polytope points or a Laurent polynomial")


def _series_from(data) -> PowerSeries:
    if isinstance(data, list):
        return PowerSeries.from_json_dict(
            {"order": len(data), "coeffs": data})
    if isinstance(data, dict) and "coeffs" in data:
        if "order" not in data:
            data = {"order": len(data["coeffs"]), "coeffs": data["coeffs"]}
        return PowerSeries.from_json_dict(data)
    raise ValueError("expected a power series with 'order' and 'coeffs'")


def _gram_from(data) -> GramLattice:
    if isinstance(data, dict) and "gram" in data:
        base = GramLattice(tuple(tuple(row) for row in data["gram"]))
        twist = data.get("twist", 1)
        return base if twist == 1 else base.twist(twist)
    if isinstance(data, dict) and "name" in data:
        return standard_lattice(data["name"], data.get("twist", 1))
    raise ValueError("expected a lattice as {'gram': ...} or {'name': ...}")


def _int_list(ctx, param, value) -> Tuple[int, ...]:
    if value is None or value == "":
        return ()
    try:
        return tuple(int(x) for x in value.split(","))
    except ValueError:
        raise click.BadParameter("expected comma separated integers")


def _name_list(value: Optional[str]) -> Optional[Tuple[str, ...]]:
    if not value:
        return None
    return tuple(s.strip() for s in value.split(","))


def _cstr(value) -> str:
    return str(Fraction(value))


_input_option = click.option(
    "--input", "-i", "input_path", required=True,
    type=click.Path(exists=True, dir_okay=False), help="Input JSON file.")
_output_option = click.option(
    "--output", type=click.Choice(["json", "text"]), default="text",
    show_default=True, help="Output format.")


def _emit_series(series: PowerSeries, output: str) -> None:
    if output == "json":
        _echo_json(series.to_json_dict())
    else:
        click.echo(",".join(str(c) for c in series.coeffs))


def _emit_laurent(f: LaurentPoly, output: str) -> None:
    if output == "json":
        _echo_json(f.to_json_dict())
    else:
        click.echo(str(f))


def _emit_polytope(p: Polytope, output: str) -> None:
    if output == "json":
        _echo_json(p.to_json_dict())
    else:
        for v in p.vertices:
            click.echo(",".join(str(x) for x in v))


def _emit_bool(value: bool, output: str) -> None:
    if output == "json":
        _echo_json(value)
    else:
        click.echo("true" if value else "false")


# -- command tree -----------------------------------------------------------

@click.group()
def cli():
    """Exact arithmetic tools for Laurent polynomial mirror models."""


@cli.command("phi")
@_input_option
@click.option("--order", type=int, required=True,
              help="Number of series coefficients to compute.")
@click.option("--period-vars", default=None,
              help="Comma separated variables to fold; the rest are "
                   "carried as parameters.")
@_output_option
def phi_cmd(input_path, order, period_vars, output):
    """Constant-term period series of a Laurent polynomial."""
    f = _laurent_from(_read_json(input_path))
    series = phi(f, order, period_vars=_name_list(period_vars))
    _emit_series(series, output)


@cli.group("iseries")
def iseries_group():
    """Regularized I-series from geometric input."""


@iseries_group.command("wci")
@click.option("--weights", required=True, callback=_int_list,
              help="Ambient weights, comma separated.")
@click.option("--degrees", default="", callback=_int_list,
              help="Hypersurface degrees, comma separated (empty for "
                   "projective space).")
@click.option("--order", type=int, required=True)
@_output_option
def iseries_wci_cmd(weights, degrees, order, output):
    """Weighted complete intersection."""
    _emit_series(iseries_toric(WciSpec(weights, degrees).toric_data(), order),
                 output)


@iseries_group.command("grass")
@click.option("--k", type=int, required=True, help="Subspace dimension.")
@click.option("--n", type=int, required=True,
              help="Codimension part: the Grassmannian is G(k, n+k).")
@click.option("--degrees", default="", callback=_int_list)
@click.option("--order", type=int, required=True)
@_output_option
def iseries_grass_cmd(k, n, degrees, order, output):
    """Complete intersection in a Grassmannian."""
    _emit_series(iseries_grassmannian(GrassSpec(k, n, degrees), order),
                 output)


@iseries_group.command("toric")
@_input_option
@click.option("--order", type=int, required=True)
@_output_option
def iseries_toric_cmd(input_path, order, output):
    """Toric complete intersection: {"rows": [[D_j.C_s, ...], ...]} and
    optionally {"degrees": [[L_i.C_s per row], ...]}."""
    spec = _catalog.generator_from_json(_read_json(input_path), input_path,
                                        "toric")
    _emit_series(iseries_toric(spec, order), output)


@cli.command("verify")
@_input_option
@click.option("--against", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON file with the target series.")
@click.option("--order", type=int, default=None,
              help="Truncate the target before comparing.")
@click.option("--period-vars", default=None)
@_output_option
def verify_cmd(input_path, against, order, period_vars, output):
    """Compare the period of a Laurent polynomial with a target series."""
    f = _laurent_from(_read_json(input_path))
    target = _series_from(_read_json(against))
    if order is not None:
        target = target.truncate(order)
    report = verify_period(f, target, period_vars=_name_list(period_vars))
    if output == "json":
        _echo_json(report.to_json_dict())
    elif report.match:
        click.echo(f"match through order {report.order}")
    else:
        click.echo(f"mismatch at t^{report.first_mismatch}: expected "
                   f"{report.expected}, found {report.found}")
    return 0 if report.match else 1


@cli.group("build")
def build_group():
    """Construct Laurent polynomial models."""


@build_group.command("wci")
@click.option("--weights", required=True, callback=_int_list)
@click.option("--degrees", default="", callback=_int_list)
@click.option("--partition", default="auto", show_default=True,
              help="'auto' picks the drop-largest nef-partition; otherwise "
                   "a JSON file with {'classes': [[...], ...]}.")
@click.option("--var-names", default=None,
              help="Comma separated names for the torus coordinates.")
@_output_option
def build_wci_cmd(weights, degrees, partition, var_names, output):
    """Weighted complete intersection model."""
    spec = WciSpec(weights, degrees)
    part = None
    if partition != "auto":
        classes = tuple(tuple(int(i) for i in cls) for cls in
                        _field(_read_json(partition), "classes", partition))
        part = NefPartition(classes, _quality(classes[0], weights))
    f = wci_laurent(spec, part=part, var_names=_name_list(var_names))
    _emit_laurent(f, output)


@build_group.command("grass")
@click.option("--k", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--degrees", default="", callback=_int_list)
@click.option("--method", type=click.Choice(["eliminate", "closed"]),
              default="eliminate", show_default=True)
@click.option("--sort", "sort_dir", type=click.Choice(["asc", "desc"]),
              default=None, help="Reorder the degrees before building.")
@click.option("--explain", is_flag=True,
              help="Include blocks, weight table, weight vertices and the "
                   "block-weight matrix with its inverse.")
@_output_option
def build_grass_cmd(k, n, degrees, method, sort_dir, explain, output):
    """Quiver model for a complete intersection in G(k, n+k)."""
    if sort_dir == "asc":
        degrees = tuple(sorted(degrees))
    elif sort_dir == "desc":
        degrees = tuple(sorted(degrees, reverse=True))
    spec = GrassSpec(k, n, degrees)
    builder = bcfks_laurent if method == "eliminate" else closed_formula_laurent
    f = builder(spec)
    if not explain:
        _emit_laurent(f, output)
        return
    model = consecutive_blocks(spec)
    table = weight_table(model)
    vertices = [b.weight_vertex(model.k) for b in model.blocks]
    m = [[table[p].get(v, 0) for v in vertices]
         for p in range(len(model.blocks))]
    m_inv = [[_cstr(x) for x in row] for row in inverse_rational(m)]
    payload = {
        "laurent": f.to_json_dict(),
        "blocks": [{"kind": b.kind, "r": b.r, "s": b.s}
                   for b in model.blocks],
        "weight_variables": weight_variables(model),
        "weight_vertices": [list(v) for v in vertices],
        "weight_table": [
            sorted(({"vertex": list(v), "weight": w}
                    for v, w in table[p].items()),
                   key=lambda rec: rec["vertex"])
            for p in range(len(model.blocks))],
        "m_matrix": m,
        "m_inverse": m_inv,
    }
    if output == "json":
        _echo_json(payload)
        return
    click.echo(str(f))
    for p, b in enumerate(model.blocks):
        click.echo(f"block {p + 1}: {b.kind}({b.r},{b.s}) weight vertex "
                   f"{vertices[p]} variable {payload['weight_variables'][p]}")
    for p, row in enumerate(m):
        click.echo(f"M[{p + 1}] = {row}")
    for p, row in enumerate(m_inv):
        click.echo(f"Minv[{p + 1}] = {row}")


@build_group.command("delpezzo")
@_input_option
@click.option("--mode", type=click.Choice(["toric", "surface"]),
              default="toric", show_default=True)
@_output_option
def build_delpezzo_cmd(input_path, mode, output):
    """Parametrized del Pezzo model from a blow-up script."""
    data = _read_json(input_path)
    script = DelPezzoScript(
        _field(data, "base", input_path),
        tuple(tuple(int(x) for x in step) for step in data.get("steps", ())),
        tuple(data.get("params", ())))
    _emit_laurent(del_pezzo_model(script, mode=mode), output)


@build_group.command("binomial")
@_input_option
@_output_option
def build_binomial_cmd(input_path, output):
    """Coefficients from the binomial boundary rule on a polytope."""
    p = _polytope_from(_read_json(input_path))
    _emit_laurent(binomial_principle(p), output)


@cli.group("minkowski")
def minkowski_group():
    """Minkowski decompositions of Newton polytope facets."""


@minkowski_group.command("check")
@_input_option
@click.option("--max-summands", type=int, default=4, show_default=True)
@_output_option
def minkowski_check_cmd(input_path, max_summands, output):
    """Certify facet decompositions into A-type polygons."""
    f = _laurent_from(_read_json(input_path))
    cert = check_minkowski(f, max_summands=max_summands)
    if output == "json":
        _echo_json({"minkowski": cert is not None,
                    "certificate": None if cert is None
                    else cert.to_json_dict()})
    else:
        _emit_bool(cert is not None, "text")


@cli.command("mutate")
@_input_option
@click.option("--pivot", required=True, help="Variable the mutation rewrites.")
@click.option("--factor", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON file with the mutation factor.")
@_output_option
def mutate_cmd(input_path, pivot, factor, output):
    """Apply an elementary mutation pivot -> pivot / factor."""
    f = _laurent_from(_read_json(input_path))
    g = _laurent_from(_read_json(factor))
    _emit_laurent(elementary_mutation(f, pivot, g), output)


@cli.group("polytope")
def polytope_group():
    """Lattice polytope queries."""


@polytope_group.command("hull")
@_input_option
@_output_option
def polytope_hull_cmd(input_path, output):
    """Vertices of the convex hull of the input points."""
    _emit_polytope(_polytope_from(_read_json(input_path)), output)


@polytope_group.command("dual")
@_input_option
@_output_option
def polytope_dual_cmd(input_path, output):
    """Polar dual polytope."""
    _emit_polytope(dual(_polytope_from(_read_json(input_path))), output)


@polytope_group.command("reflexive")
@_input_option
@_output_option
def polytope_reflexive_cmd(input_path, output):
    """Whether the polytope is reflexive."""
    _emit_bool(is_reflexive(_polytope_from(_read_json(input_path))), output)


@polytope_group.command("volume")
@_input_option
@_output_option
def polytope_volume_cmd(input_path, output):
    """Normalized lattice volume."""
    vol = normalized_volume(_polytope_from(_read_json(input_path)))
    if output == "json":
        _echo_json({"volume": vol})
    else:
        click.echo(str(vol))


@polytope_group.command("points")
@_input_option
@click.option("--region", type=click.Choice(["all", "boundary", "interior"]),
              default="all", show_default=True)
@_output_option
def polytope_points_cmd(input_path, region, output):
    """Lattice points of the polytope."""
    pts = lattice_points(_polytope_from(_read_json(input_path)),
                         region=region)
    if output == "json":
        _echo_json({"count": len(pts), "points": [list(p) for p in pts]})
    else:
        for p in pts:
            click.echo(",".join(str(x) for x in p))


@polytope_group.command("equiv")
@_input_option
@_output_option
def polytope_equiv_cmd(input_path, output):
    """Search for a lattice-linear isomorphism between two polytopes."""
    data = _read_json(input_path)
    p = _polytope_from(_field(data, "first", input_path))
    q = _polytope_from(_field(data, "second", input_path))
    u = unimodular_equivalent(p, q)
    if output == "json":
        _echo_json({"equivalent": u is not None, "map": u})
    else:
        _emit_bool(u is not None, "text")


@cli.group("lattice")
def lattice_group():
    """Even lattice invariants."""


def _lattice_input(name: Optional[str], twist: int,
                   input_path: Optional[str]) -> GramLattice:
    if (name is None) == (input_path is None):
        raise click.UsageError("give exactly one of --name or --input")
    if name is not None:
        return standard_lattice(name, twist)
    l = _gram_from(_read_json(input_path))
    return l if twist == 1 else l.twist(twist)


@lattice_group.command("disc")
@click.option("--name", default=None,
              help="Named lattice such as A5, D_8, E7, H, M, M_6 or <-6>.")
@click.option("--twist", type=int, default=1, show_default=True)
@click.option("--input", "-i", "input_path", default=None,
              type=click.Path(exists=True, dir_okay=False))
@_output_option
def lattice_disc_cmd(name, twist, input_path, output):
    """Discriminant group and quadratic form values."""
    data = discriminant(_lattice_input(name, twist, input_path))
    if output == "json":
        _echo_json({"group": list(data.group),
                    "generators": [[_cstr(x) for x in g]
                                   for g in data.generators],
                    "form_values": [_cstr(v) for v in data.form_values]})
    else:
        group = " x ".join(f"Z/{d}" for d in data.group) or "trivial"
        values = ", ".join(_cstr(v) for v in data.form_values)
        click.echo(f"{group}; q = ({values})")


@lattice_group.command("sig")
@click.option("--name", default=None)
@click.option("--twist", type=int, default=1, show_default=True)
@click.option("--input", "-i", "input_path", default=None,
              type=click.Path(exists=True, dir_okay=False))
@_output_option
def lattice_sig_cmd(name, twist, input_path, output):
    """Signature (positive, negative) of the bilinear form."""
    pos, neg = signature(_lattice_input(name, twist, input_path))
    if output == "json":
        _echo_json({"signature": [pos, neg]})
    else:
        click.echo(f"{pos},{neg}")


@lattice_group.command("index")
@_input_option
@_output_option
def lattice_index_cmd(input_path, output):
    """Index of a finite-index isometric embedding."""
    data = _read_json(input_path)
    idx = index_check(_gram_from(_field(data, "sub", input_path)),
                      _gram_from(_field(data, "sup", input_path)),
                      _field(data, "embedding", input_path))
    if output == "json":
        _echo_json({"index": idx})
    else:
        click.echo(str(idx))


@lattice_group.command("duval")
@click.option("--type", "sing", required=True,
              help="Singularity type such as A5, D_4 or E7.")
@click.option("--k", type=int, default=None, help="Chain position.")
@click.option("--r", type=int, default=None,
              help="Second chain position for a transversal pair.")
@click.option("--self", "self_int", is_flag=True,
              help="Self-intersection correction instead of a pair.")
@click.option("--branch", default=None, help="'tail' or 'fork' for D_n.")
@_output_option
def lattice_duval_cmd(sing, k, r, self_int, branch, output):
    """Intersection corrections for curves through a du Val point."""
    if self_int:
        value = duval_self_intersection(sing, k=k, branch=branch)
    else:
        value = duval_intersection(sing, k=k, r=r)
    if output == "json":
        _echo_json({"value": _cstr(value)})
    else:
        click.echo(_cstr(value))


@cli.group("pf")
def pf_group():
    """Differential operators annihilating period series."""


@pf_group.command("fit")
@_input_option
@click.option("--max-order", type=int, required=True,
              help="Logarithmic-derivative order of the ansatz.")
@click.option("--max-degree", type=int, required=True,
              help="Largest t-degree to try.")
@_output_option
def pf_fit_cmd(input_path, max_order, max_degree, output):
    """Fit an operator to a truncated series and cross-check the tail."""
    series = _series_from(_read_json(input_path))
    op = pf_fit(series, max_order, max_degree)
    if output == "json":
        _echo_json(None if op is None else op.to_json_dict())
    elif op is None:
        click.echo("no operator found")
    else:
        click.echo(str(op))


@cli.group("hodge")
def hodge_group():
    """Hodge number bookkeeping for mirror models."""


@hodge_group.command("surface")
@click.option("--d", type=int, required=True, help="Anticanonical degree.")
@_output_option
def hodge_surface_cmd(d, output):
    """Surface invariants of the mirror of a degree d del Pezzo."""
    report = kkp_surface_numbers(d)
    if output == "json":
        _echo_json({
            "degree": report.degree,
            "fano": report.fano_type,
            "diamond": None if report.diamond is None else {
                "dim": report.diamond.dim,
                "h": [list(row) for row in report.diamond.h],
                "middle_row": list(report.diamond.middle_row())},
            "jordan_blocks": [list(b) for b in report.jordan_blocks]})
    elif report.diamond is None:
        blocks = ", ".join(f"{s}x{m}" for s, m in report.jordan_blocks)
        click.echo(f"not Fano type; Jordan blocks {blocks}")
    else:
        click.echo(",".join(str(x) for x in report.diamond.middle_row()))


@hodge_group.command("threefold")
@click.option("--ky", type=int, required=True,
              help="Total excess of fiber components.")
@click.option("--ph", type=int, required=True,
              help="Rank of the middle primitive part, fiber class included.")
@click.option("--h12z", type=int, default=0, show_default=True)
@click.option("--h21z", type=int, default=0, show_default=True)
@_output_option
def hodge_threefold_cmd(ky, ph, h12z, h21z, output):
    """Threefold diamond from fiber bookkeeping."""
    diamond = harder_diamond(ky, ph, h12z=h12z, h21z=h21z)
    if output == "json":
        _echo_json({"dim": diamond.dim,
                    "h": [list(row) for row in diamond.h],
                    "middle_row": list(diamond.middle_row())})
    else:
        for row in diamond.h:
            click.echo(",".join(str(x) for x in row))


@hodge_group.command("components")
@_input_option
@_output_option
def hodge_components_cmd(input_path, output):
    """Components of the fiber over infinity for a reflexive 3-polytope."""
    count = components_at_infinity(_polytope_from(_read_json(input_path)))
    if output == "json":
        _echo_json({"components": count})
    else:
        click.echo(str(count))


@hodge_group.command("kmatrix")
@click.option("--degrees", default="", callback=_int_list,
              help="Hypersurface degrees (empty for projective space).")
@click.option("--index", "fano_index", type=int, required=True)
@_output_option
def hodge_kmatrix_cmd(degrees, fano_index, output):
    """Ray matrix of the fiber over infinity and its component count."""
    matrix = k_matrix(degrees, fano_index)
    count = k_components(degrees, fano_index)
    if output == "json":
        _echo_json({"matrix": matrix, "components": count})
    else:
        for row in matrix:
            click.echo(",".join(str(x) for x in row))
        click.echo(f"components: {count}")


@cli.group("catalog")
def catalog_group():
    """Bundled model catalog."""


@catalog_group.command("verify")
@click.option("--order", type=int, default=4, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes; the report is identical either way.")
@click.option("--id", "ids", multiple=True,
              help="Restrict to these entry ids (repeatable).")
@_output_option
def catalog_verify_cmd(order, jobs, ids, output):
    """Re-derive and check every catalog entry."""
    entries = _catalog.load()
    if ids:
        known = {e.id for e in entries}
        missing = [i for i in ids if i not in known]
        if missing:
            raise click.UsageError(
                "unknown catalog ids: " + ", ".join(sorted(missing)))
        entries = [e for e in entries if e.id in set(ids)]
    summary = _catalog.verify_all(entries, order, jobs=jobs)
    if output == "json":
        _echo_json(summary.to_json_dict())
    else:
        for report in summary.reports:
            status = "PASS" if report.passed else "FAIL"
            line = f"{status} {report.id} [{report.anchored}]"
            if report.messages:
                line += " " + "; ".join(report.messages)
            click.echo(line)
        passed = sum(1 for r in summary.reports if r.passed)
        click.echo(f"{passed}/{len(summary.reports)} passed")
    return 0 if summary.all_passed else 1


@catalog_group.command("list")
@_output_option
def catalog_list_cmd(output):
    """Show catalog entries and their anchoring."""
    entries = sorted(_catalog.load(), key=lambda e: e.id)
    if output == "json":
        _echo_json([{
            "id": e.id,
            "description": e.description,
            "anchored": e.anchored,
            "degree": e.degree,
            "index": e.index,
            "rho": e.rho,
            "minkowski": e.minkowski_flag,
            "variables": list(e.laurent.variables)}
            for e in entries])
    else:
        for e in entries:
            click.echo(f"{e.id}\t[{e.anchored}]\t{e.description}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        result = cli.main(args=argv, prog_name="tlg", standalone_mode=False)
        return int(result or 0)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        exc.show()
        return 2
    except click.ClickException as exc:
        exc.show()
        return 1
    except (KeyboardInterrupt, click.exceptions.Abort):
        return 130
    except Exception as exc:
        click.echo(json.dumps(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            sort_keys=True), err=True)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
