"""Exit-code contract of ``tlg.cli.main``: 0 success, 1 domain error with
a JSON error object on stderr, 2 usage error, 130 interrupted."""

import hashlib
import json
from pathlib import Path

import pytest

import tlg.commands
from tlg import catalog
from tlg.cli import main
from tlg.laurent import LaurentPoly

X = LaurentPoly.variable("x", ("x",))


@pytest.fixture
def model(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps((X + X ** -1).to_json_dict()))
    return str(path)


def _error(capsys):
    return json.loads(capsys.readouterr().err)["error"]


def test_success_exits_zero(model, capsys):
    assert main(["phi", "--input", model, "--order", "5",
                 "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["coeffs"] == \
        ["1", "0", "2", "0", "6"]


@pytest.mark.parametrize("argv", [
    ["phi", "--input", "MODEL"],                     # --order missing
    ["phi", "--input", "MODEL", "--order", "three"],  # not an int
    ["no-such-command"],
    ["--seed", "1", "catalog", "list"],              # the option is gone
    ["phi", "--input", "MODEL", "--order", "3", "--period-vars", "x"],  # gone
    ["verify", "--input", "MODEL", "--against", "MODEL",
     "--period-vars", "x"],                          # gone too
])
def test_usage_errors_exit_two(model, capsys, argv):
    argv = [model if a == "MODEL" else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err


def test_unreadable_input_exits_one_with_json_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["phi", "--input", str(path), "--order", "3"]) == 1
    assert _error(capsys)["type"] == "JSONDecodeError"


def test_catalog_parse_error_exits_one_with_located_json_error(
        tmp_path, monkeypatch, capsys):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{"description": "no id"}]))
    monkeypatch.setattr(catalog, "bundled_path", lambda: path)
    assert main(["catalog", "verify"]) == 1
    error = _error(capsys)
    assert error["type"] == "ParseError"
    assert f"{path} entry 0" in error["message"]


def test_domain_error_exits_one_with_json_error(model, capsys):
    assert main(["phi", "--input", model, "--order", "0"]) == 1
    assert _error(capsys) == {"type": "ValueError",
                              "message": "order must be at least 1"}


def test_volume_of_a_rational_polytope_exits_one(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text(json.dumps([[0, 0], ["1/2", 0], [0, 1]]))
    assert main(["polytope", "volume", "--input", str(path)]) == 1
    assert _error(capsys) == {
        "type": "NotLatticePolytope",
        "message": "normalized volume requires integer vertices"}


def test_keyboard_interrupt_exits_130(model, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(tlg.commands, "phi", interrupted)
    assert main(["phi", "--input", model, "--order", "3"]) == 130


# A reflexive 3-polytope with six vertices and simplicial facets, given with
# a repeated vertex and the repeated interior origin; its dual has three
# triangles and three quadrilaterals among its facets.
REFLEXIVE_POINTS = [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1],
                    [-1, -1, -1], [0, 0, 0], [1, 0, 0], [0, 0, 0]]
VERTICES = [[-1, -1, -1], [-1, 0, 0], [0, -1, 0], [0, 0, 1], [0, 1, 0],
            [1, 0, 0]]
DUAL_VERTICES = [[-1, -1, -1], [-1, -1, 3], [-1, 1, -1], [-1, 1, 1],
                 [1, -1, -1], [1, -1, 1], [1, 1, -1]]
DUAL_BOUNDARY = [
    [-1, -1, -1], [-1, -1, 0], [-1, -1, 1], [-1, -1, 2], [-1, -1, 3],
    [-1, 0, -1], [-1, 0, 0], [-1, 0, 1], [-1, 0, 2], [-1, 1, -1], [-1, 1, 0],
    [-1, 1, 1], [0, -1, -1], [0, -1, 0], [0, -1, 1], [0, -1, 2], [0, 0, -1],
    [0, 0, 1], [0, 1, -1], [0, 1, 0], [1, -1, -1], [1, -1, 0], [1, -1, 1],
    [1, 0, -1], [1, 0, 0], [1, 1, -1]]

# A triangle in the plane z = x + y of Z^3: its lattice points are the
# (x, y, x + y) with x, y >= 0 and x + y <= 3.
PLANE_TRIANGLE = [[0, 0, 0], [3, 0, 3], [0, 3, 3]]
PLANE_TRIANGLE_POINTS = [[x, y, x + y] for x in range(4)
                         for y in range(4 - x)]

# The point of Z^0: no facets, so it is its own dual and reflexive.
Z0_POINT = {"dim": 0, "vertices": [[]]}


@pytest.mark.parametrize("argv, points, expected", [
    (["hull"], REFLEXIVE_POINTS, {"dim": 3, "vertices": VERTICES}),
    (["dual"], REFLEXIVE_POINTS, {"dim": 3, "vertices": DUAL_VERTICES}),
    (["reflexive"], REFLEXIVE_POINTS, True),
    (["reflexive"], DUAL_VERTICES, True),
    (["dual"], Z0_POINT, Z0_POINT),
    (["reflexive"], Z0_POINT, True),
    (["volume"], REFLEXIVE_POINTS, {"volume": 8}),
    (["volume"], DUAL_VERTICES, {"volume": 48}),
    (["points"], REFLEXIVE_POINTS,
     {"count": 7, "points": sorted(VERTICES + [[0, 0, 0]])}),
    (["points", "--region", "interior"], DUAL_VERTICES,
     {"count": 1, "points": [[0, 0, 0]]}),
    (["points", "--region", "boundary"], DUAL_VERTICES,
     {"count": 26, "points": DUAL_BOUNDARY}),
    (["points", "--region", "all"], PLANE_TRIANGLE,
     {"count": 10, "points": PLANE_TRIANGLE_POINTS}),
    (["points", "--region", "interior"], PLANE_TRIANGLE,
     {"count": 1, "points": [[1, 1, 2]]}),
    (["points", "--region", "boundary"], PLANE_TRIANGLE,
     {"count": 9, "points": [x for x in PLANE_TRIANGLE_POINTS
                             if x != [1, 1, 2]]}),
], ids=["hull", "dual", "reflexive", "reflexive-dual", "dual-z0",
        "reflexive-z0", "volume",
        "volume-dual", "points", "points-interior-dual",
        "points-boundary-dual", "points-plane", "points-interior-plane",
        "points-boundary-plane"])
def test_polytope_commands_print_golden_json(tmp_path, capsys, argv, points,
                                             expected):
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    assert main(["polytope", *argv, "--input", str(path),
                 "--output", "json"]) == 0
    assert capsys.readouterr().out == \
        json.dumps(expected, indent=2, sort_keys=True) + "\n"


S7_ROWS = [[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 1, 0, 0, 1]]


@pytest.mark.parametrize("argv, coeffs", [
    (["wci", "--weights", "1,1,1,1", "--order", "9"],
     [1, 0, 0, 0, 24, 0, 0, 0, 2520]),
    (["wci", "--weights", "1,1,1,1,1", "--degrees", "4", "--order", "6"],
     [1, 24, 2520, 369600, 63063000, 11732745024]),
    (["grass", "--k", "2", "--n", "3", "--degrees", "1,1,1", "--order", "9"],
     [1, 0, 6, 0, 114, 0, 2940, 0, 87570]),
    (["toric", "--input", "ROWS", "--order", "9"],
     [1, 0, 4, 6, 36, 120, 490, 2100, 8260]),
], ids=["wci-p3", "wci-quartic", "grass-g25-111", "toric-s7"])
def test_iseries_commands_print_golden_json(tmp_path, capsys, argv, coeffs):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"rows": S7_ROWS}))
    argv = [str(path) if a == "ROWS" else a for a in argv]
    assert main(["iseries", *argv, "--output", "json"]) == 0
    expected = {"coeffs": [str(c) for c in coeffs], "order": len(coeffs)}
    assert capsys.readouterr().out == \
        json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("data", [
    {}, {"rows": 5}, {"rows": [[1, "x"]]}, {"rows": [[1, 1]], "degrees": [[1, 2]]},
    {"rows": [[1, 1.9]]}, {"rows": [[1, True]]}, {"rows": [[1, 1]], "degrees": [[0.5]]},
], ids=["missing", "not-a-list", "not-an-int", "degree-length", "float-row",
        "bool-row", "float-degree"])
def test_iseries_toric_bad_input_is_a_located_parse_error(tmp_path, capsys,
                                                          data):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(data))
    assert main(["iseries", "toric", "--input", str(path),
                 "--order", "3"]) == 1
    error = _error(capsys)
    assert error["type"] == "ParseError"
    assert error["message"].startswith(f"{path}: ")


XY = ("x", "y")
S7 = ("x", "y", "q0", "q1", "q2")


def _terms(*pairs):
    return [{"c": c, "e": e} for e, c in pairs]


# the default rule sends the slice y^k to y^k (1 + x)^(-k); in S7 the
# factor 1 + q2 x carries a parameter
@pytest.mark.parametrize("f, factor, expected", [
    ({"vars": XY, "terms": _terms(
        ([0, 1], "1"), ([1, 1], "2"), ([2, 1], "1"), ([1, 0], "1"),
        ([-1, 0], "3/2"), ([0, -1], "2"))},
     {"vars": XY, "terms": _terms(([0, 0], "1"), ([1, 0], "1"))},
     {"vars": XY, "terms": _terms(
         ([-1, 0], "3/2"), ([0, -1], "2"), ([0, 1], "1"), ([1, -1], "2"),
         ([1, 0], "1"), ([1, 1], "1"))}),
    ({"vars": S7, "terms": _terms(
        ([1, 0, 0, 0, 0], "1"), ([0, 1, 0, 0, 0], "1"),
        ([-1, -1, 1, 0, 0], "1"), ([0, -1, 1, 1, 0], "1"),
        ([1, 1, 0, 0, 1], "1"))},
     {"vars": S7, "terms": _terms(([0, 0, 0, 0, 0], "1"),
                                  ([1, 0, 0, 0, 1], "1"))},
     {"vars": S7, "terms": _terms(
         ([-1, -1, 1, 0, 0], "1"), ([0, -1, 1, 0, 1], "1"),
         ([0, -1, 1, 1, 0], "1"), ([0, 1, 0, 0, 0], "1"),
         ([1, -1, 1, 1, 1], "1"), ([1, 0, 0, 0, 0], "1"))}),
], ids=["two-variables", "s7-parameters"])
def test_mutate_prints_golden_json(tmp_path, capsys, f, factor, expected):
    paths = []
    for name, data in (("f.json", f), ("factor.json", factor)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(data))
    assert main(["mutate", "--input", str(paths[0]), "--pivot", "y",
                 "--factor", str(paths[1]), "--output", "json"]) == 0
    assert capsys.readouterr().out == \
        json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("exponent", [1.7, True], ids=["float", "bool"])
def test_phi_rejects_a_non_integer_exponent(tmp_path, capsys, exponent):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"vars": ["x"], "terms": [
        {"e": [exponent], "c": "1"}, {"e": [-1], "c": "1"}]}))
    assert main(["phi", "--input", str(path), "--order", "5"]) == 1
    assert _error(capsys) == {
        "type": "ParseError",
        "message": f"{path}: terms[0]: exponents must be lists of integers"}


@pytest.mark.parametrize("data, message", [
    ({"vars": ["x"], "terms": [{"e": [1], "c": "1"}, {"e": [-1]}]},
     "terms[1]: missing key 'c'"),
    ({"vars": ["x"], "terms": [{"c": "1"}]}, "terms[0]: missing key 'e'"),
    ({"vars": ["x"], "terms": [[1, "1"]]},
     "terms[0]: a term must be an object, got [1, '1']"),
    ({"vars": ["x"], "terms": 5}, "terms must be a list, got 5"),
    ({"vars": ["x"], "terms": [{"e": [1], "c": "1"}, {"e": [2], "c": "1/0"}]},
     "terms[1]: bad coefficient '1/0': Fraction(1, 0)"),
    ({"vars": ["x"], "terms": [{"e": [1], "c": True}]},
     "terms[0]: bad coefficient True: coefficient must be int, Fraction or "
     "string, got bool"),
    ({"vars": "xy", "terms": [{"e": [1, 0], "c": "1"}]},
     "vars must be a list of names, got 'xy'"),
    ({"vars": ["x", 7], "terms": [{"e": [1, 0], "c": "1"}]},
     "vars must be a list of names, got ['x', 7]"),
    ({"vars": ["x"], "terms": [{"e": [1], "c": "1"}, {"e": [1], "c": "2"}]},
     "terms[1]: exponent [1] repeats"),
    ({"terms": [{"e": [1], "c": "1"}]}, "missing key 'vars'"),
    ({"vars": ["x", "y"], "terms": [{"e": [1], "c": "1"}]},
     "terms[0]: exponent [1] has length 1, expected 2"),
], ids=["missing-c", "missing-e", "term-not-object", "terms-not-list",
        "zero-denominator", "bool-coefficient", "vars-string", "vars-not-names",
        "repeated-exponent", "missing-vars", "exponent-length"])
def test_malformed_laurent_input_is_a_located_parse_error(tmp_path, capsys,
                                                          data, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    commands = [["phi", "--order", "5"], ["minkowski", "check"]]
    if "vars" in data:  # else polytope hull reads no Laurent polynomial
        commands.append(["polytope", "hull"])
    for argv in commands:
        assert main(argv + ["--input", str(path)]) == 1
        assert _error(capsys) == {"type": "ParseError",
                                  "message": f"{path}: {message}"}


@pytest.mark.parametrize("argv, data, key", [
    (["build", "wci", "--weights", "1,1,1,1", "--partition", "IN"],
     {"class": [[0, 1, 2, 3]]}, "classes"),
    (["build", "delpezzo", "--input", "IN"], {"steps": []}, "base"),
    (["polytope", "equiv", "--input", "IN"],
     {"first": [[1, 0], [0, 1], [-1, -1]]}, "second"),
    (["lattice", "index", "--input", "IN"],
     {"sub": {"name": "A2"}, "sup": {"name": "A2"}}, "embedding"),
], ids=["build-wci-partition", "build-delpezzo", "polytope-equiv",
        "lattice-index"])
def test_missing_key_is_a_parse_error_at_the_input_file(tmp_path, capsys,
                                                       argv, data, key):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert main([str(path) if a == "IN" else a for a in argv]) == 1
    assert _error(capsys) == {"type": "ParseError",
                              "message": f"{path}: missing key {key!r}"}


VERIFY = ["verify", "--input", "MODEL", "--order", "2", "--against", "IN"]
HULL = ["polytope", "hull", "--input", "IN"]
SIG = ["lattice", "sig", "--input", "IN"]
NOT_A_NUMBER = "coefficient must be int, Fraction or string, got"


@pytest.mark.parametrize("argv, data, message", [
    (VERIFY, {"coeffs": ["1", "1/0"], "order": 2},
     "coeffs[1]: bad coefficient '1/0': Fraction(1, 0)"),
    (VERIFY, [1, "x"],
     "coeffs[1]: bad coefficient 'x': Invalid literal for Fraction: 'x'"),
    (VERIFY, [1, 0.5], f"coeffs[1]: bad coefficient 0.5: {NOT_A_NUMBER} float"),
    (VERIFY, {"coeffs": 5}, "coeffs must be a list, got 5"),
    (VERIFY, {"coeffs": [1, 2], "order": 3},
     "declared order does not match coefficient count"),
    (VERIFY, {"order": 2}, "expected a power series with 'order' and 'coeffs'"),
    (["pf", "fit", "--input", "IN", "--max-order", "1", "--max-degree", "1"],
     [1, True], f"coeffs[1]: bad coefficient True: {NOT_A_NUMBER} bool"),
    (HULL, {"points": 5}, "points must be a list of points, got 5"),
    (HULL, [[1, 0], [0, True], [-1, -1]],
     "points[1]: coordinates must be integers or rational strings, "
     "got [0, True]"),
    (HULL, {"vertices": [[0.5, 0]]},
     "vertices[0]: coordinates must be integers or rational strings, "
     "got [0.5, 0]"),
    (HULL, {"dim": 2, "vertices": [[1, 0], [0, "1/0"]]},
     "vertices[1]: Fraction(1, 0)"),
    (HULL, {"dim": "2", "vertices": [[1, 0], [0, 1], [-1, -1]]},
     "dim must be an integer, got '2'"),
    (HULL, {"dim": 2}, "expected polytope points or a Laurent polynomial"),
    # Polytope's own refusals, located at the file too
    (HULL, {"dim": 3, "vertices": [[1, 0], [0, 1], [-1, -1]]},
     "declared dim 3 but points live in 2"),
    (HULL, [[1, 0], [0, 1, 2]], "mixed point lengths [2, 3]"),
    (HULL, {"points": []}, "need at least one point"),
    (SIG, {"gram": [[1.5]]}, "gram must be a list of integers, got [1.5]"),
    (SIG, {"gram": [[1, 2], [3, 1]]}, "gram matrix must be symmetric"),
    (SIG, {"name": 5}, "name must be a string, got 5"),
    (SIG, {"name": "A2", "twist": 0}, "twist must be a nonzero integer, got 0"),
    (SIG, {"rank": 2},
     "expected a lattice as {'gram': ...} or {'name': ...}"),
    (["lattice", "index", "--input", "IN"],
     {"sub": {"gram": "x"}, "sup": {"name": "H"}, "embedding": [[1]]},
     "gram must be a list of integer lists, got 'x'"),
    (["lattice", "index", "--input", "IN"],
     {"sub": {"gram": [[1]]}, "sup": {"gram": [[1]]}, "embedding": [[1.5]]},
     "embedding must be a list of integers, got [1.5]"),
    (["lattice", "index", "--input", "IN"],
     {"sub": {"gram": [[1]]}, "sup": {"gram": [[1]]}, "embedding": [[True]]},
     "embedding must be a list of integers, got [True]"),
    (["lattice", "index", "--input", "IN"],
     {"sub": {"gram": [[1]]}, "sup": {"gram": [[1]]}, "embedding": "x"},
     "embedding must be a list of integer lists, got 'x'"),
], ids=["series-zero-denominator", "series-not-a-number", "series-float",
        "series-coeffs-not-list", "series-wrong-order", "series-no-coeffs",
        "pf-fit-bool", "points-not-list", "points-bool", "vertices-float",
        "vertices-zero-denominator", "dim-string", "polytope-unknown-object",
        "dim-mismatch", "points-mixed-lengths", "points-empty",
        "gram-float", "gram-not-symmetric", "lattice-name-not-string",
        "twist-zero", "lattice-unknown-object", "lattice-index-sub",
        "lattice-index-float", "lattice-index-bool", "lattice-index-string"])
def test_malformed_input_is_a_parse_error_at_the_input_file(
        tmp_path, capsys, model, argv, data, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    argv = [{"IN": str(path), "MODEL": model}.get(a, a) for a in argv]
    assert main(argv) == 1
    assert _error(capsys) == {"type": "ParseError",
                              "message": f"{path}: {message}"}


def test_polytope_and_series_input_keep_their_accepted_forms(tmp_path, capsys,
                                                             model):
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [["1/2", 0], [0, 1], [-1, -1]]}))
    assert main(["polytope", "hull", "--input", str(points),
                 "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "dim": 2, "vertices": [[-1, -1], [0, 1], ["1/2", 0]]}
    series = tmp_path / "series.json"
    series.write_text(json.dumps({"coeffs": [1, "0", 2]}))
    assert main(["verify", "--input", model, "--order", "3",
                 "--against", str(series)]) == 0


# -- golden output of every other command ------------------------------------

SERIES_P1 = [1, 0, 2, 0, 6, 0, 20, 0, 70, 0, 252, 0, 924, 0, 3432, 0, 12870,
             0, 48620, 0]
INPUTS = {
    "part.json": {"classes": [[0, 1], [2, 3]]},
    "dp.json": {"base": "P2", "steps": [[1, 1], [0, -1], [1, -1]],
                "params": ["q0", "q1", "q2", "q3"]},
    "tri.json": [[1, 0], [0, 1], [-1, -1]],
    "p3-model.json": {"vars": ["x", "y", "z"], "terms": _terms(
        ([1, 0, 0], "1"), ([0, 1, 0], "1"), ([0, 0, 1], "1"),
        ([-1, -1, -1], "1"))},
    "equiv.json": {"first": [[1, 0], [0, 1], [-1, -1]],
                   "second": [[1, 0], [1, 1], [-2, -1]]},
    "index.json": {"sub": {"gram": [[0, 2], [2, 0]]}, "sup": {"name": "H"},
                   "embedding": [[2, 0], [0, 1]]},
    "series.json": SERIES_P1,
    "p3.json": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    "p1-model.json": {"vars": ["x"], "terms": _terms(([-1], "1"),
                                                     ([1], "1"))},
    "toric.json": {"rows": [[1, 1, 1]], "degrees": [[2]]},
    "mutate-f.json": {"vars": ["x", "y"], "terms": _terms(
        ([-1, -1], "1"), ([-1, 0], "1"), ([1, 0], "1"), ([1, 1], "1"))},
    "mutate-factor.json": {"vars": ["x", "y"], "terms": _terms(
        ([0, 0], "1"), ([0, 1], "1"))},
    "no-points.json": [["1/3", 0], ["2/3", 0]],
}

CATALOG_LIST = """\
1-1\t[paper]\tsextic hypersurface in P(1,1,1,1,3)
1-10\t[derived-regression]\tsection of a sum of three bundles of alternating forms on G(3,7)
1-11\t[paper]\tsextic hypersurface in P(1,1,1,2,3)
1-12\t[paper]\tquartic hypersurface in P(1,1,1,1,2)
1-13\t[paper]\tcubic threefold
1-14\t[paper]\tintersection of two quadrics in P^5
1-15\t[paper]\tsection of G(2,5) by three hyperplanes
1-16\t[paper]\tquadric threefold
1-17\t[paper]\tprojective 3-space
1-2\t[paper]\tquartic threefold
1-3\t[paper]\tcomplete intersection of a quadric and a cubic in P^5
1-4\t[paper]\tcomplete intersection of three quadrics in P^6
1-5\t[paper]\tsection of G(2,5) by two hyperplanes and a quadric
1-6\t[derived-regression]\tcodimension 7 linear section of OG(5,10)
1-7\t[paper]\tsection of G(2,6) by five hyperplanes
1-8\t[derived-regression]\tcodimension 3 linear section of the symplectic Grassmannian SGr(3,6)
1-9\t[derived-regression]\tcodimension 2 linear section of the G2 Grassmannian
10-1\t[derived-regression]\tproduct of P^1 with the degree 1 del Pezzo surface
2-1\t[derived-regression]\tcomplete intersection of types (1,1) and (0,6) in P^1 x P(1,1,1,2,3)
2-2\t[derived-regression]\tdouble cover of P^1 x P^2 branched in a bidegree (2,4) divisor
2-3\t[derived-regression]\tcomplete intersection of types (1,1) and (0,4) in P^1 x P(1,1,1,1,2)
9-1\t[derived-regression]\tproduct of P^1 with the degree 2 del Pezzo surface
G36-1112\t[paper]\tcomplete intersection in G(3,6) of degrees 1+1+1+2, blocks in that order
G36-2111\t[paper]\tcomplete intersection in G(3,6) of degrees 2+1+1+1, blocks in that order
S7-d1\t[paper]\tdegree 7 del Pezzo surface, divisor parameters one
"""


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Every command has a golden in --output text and in --output json, here or
# in the golden JSON tests above (CATALOG_O4_SHA256 for catalog verify and
# CATALOG_LIST_SHA256 for catalog list); the cases from phi-text on, like
# those before them, were computed at b326d66, before the commands returned
# their results for main to print.
@pytest.mark.parametrize("argv, expected", [
    ("build wci --weights 1,1,1,1 --degrees 2",
     "x1^-1*x2^-1 + 2*x1^-1 + x1^-1*x2 + x1\n"),
    ("build wci --weights 1,1,1,1 --degrees 2 --partition part.json "
     "--var-names a,b --output json",
     _json_text({"vars": ["a", "b"], "terms": _terms(
         ([-1, -1], "1"), ([-1, 0], "2"), ([-1, 1], "1"), ([1, 0], "1"))})),
    ("build grass --k 2 --n 3 --degrees 1 --explain",
     "a1_1^-1*a2_1 + a1_1^-1*a1_2 + a1_2^-1*a2_2 + a1_2^-1*a1_3 + a1_3^-1 + "
     "a2_1^-1*a2_2 + a2_2^-1 + a1_1\n"
     "block 1: HB(0,1) weight vertex (0, 1) variable a\n"
     "M[1] = [1]\nMinv[1] = ['1']\n"),
    ("build grass --k 2 --n 3 --degrees 1,2 --sort desc",
     "a^-1*a2_2 + a^-1*a1_2 + 2*a1_2^-1*a2_2^2 + a1_2^-1*a1_3 + "
     "2*a1_3^-1*a2_2 + a2_2^-1 + 4*a2_2 + 2*a1_2*a1_3^-1 + 2*a1_2 + "
     "a*a1_2^-2*a2_2^3 + 2*a*a1_2^-1*a1_3^-1*a2_2^2 + 3*a*a1_2^-1*a2_2^2 + "
     "a*a1_3^-2*a2_2 + 4*a*a1_3^-1*a2_2 + 3*a*a2_2 + a*a1_2*a1_3^-2 + "
     "2*a*a1_2*a1_3^-1 + a*a1_2\n"),
    ("build delpezzo --input dp.json",
     "x^-1*y^-1*q0 + y^-1*q0*q2 + y + x*y^-1*q0*q2*q3 + x + x*y*q1\n"),
    ("build delpezzo --input dp.json --mode surface",
     "x^-1*y^-1*q0 + y^-1*q0*q3 + y^-1*q0*q2 + y + x*y^-1*q0*q2*q3 + x + "
     "x*q0*q1*q2*q3 + x*y*q1\n"),
    ("build binomial --input tri.json --output json",
     _json_text({"vars": ["x", "y"], "terms": _terms(
         ([-1, -1], "1"), ([0, 1], "1"), ([1, 0], "1"))})),
    ("minkowski check --input p3-model.json", "true\n"),
    ("minkowski check --input p3-model.json --output json", _json_text({
        "minkowski": True, "certificate": {"facets": [
            {"normal": [-1, -1, -1], "summands": [
                {"dim": 2, "vertices": [[0, -1], [0, 0], [1, -1]]}]},
            {"normal": [-1, -1, 3], "summands": [
                {"dim": 2, "vertices": [[0, 0], [1, 1], [2, 1]]}]},
            {"normal": [-1, 3, -1], "summands": [
                {"dim": 2, "vertices": [[0, 0], [1, 1], [1, 2]]}]},
            {"normal": [3, -1, -1], "summands": [
                {"dim": 2, "vertices": [[0, 0], [1, 1], [1, 2]]}]}]}})),
    ("polytope equiv --input equiv.json", "true\n"),
    ("polytope equiv --input equiv.json --output json",
     _json_text({"equivalent": True, "map": [[1, 1], [1, 0]]})),
    ("lattice disc --name A2", "Z/3; q = (2/3)\n"),
    ("lattice disc --name M_2 --output json",
     _json_text({"form_values": ["7/4"], "generators": [["0"] * 18 + ["1/4"]],
                 "group": [4]})),
    ("lattice sig --name E8 --twist 2", "8,0\n"),
    ("lattice index --input index.json", "2\n"),
    ("lattice duval --type A5 --k 2 --r 4", "2/3\n"),
    ("lattice duval --type D_5 --k 1 --self --branch tail --output json",
     _json_text({"value": "1"})),
    ("pf fit --input series.json --max-order 1 --max-degree 2",
     "theta + (-4)*t^2 + (-4)*t^2*theta\n"),
    ("pf fit --input series.json --max-order 1 --max-degree 2 --output json",
     _json_text({"terms": [{"c": "1", "t": 0, "theta": 1},
                           {"c": "-4", "t": 2, "theta": 0},
                           {"c": "-4", "t": 2, "theta": 1}]})),
    ("hodge surface --d 3", "1,7,1\n"),
    ("hodge surface --d 0", "not Fano type; Jordan blocks 2x2, 1x8\n"),
    ("hodge threefold --ky 1 --ph 3 --h12z 1",
     "0,0,0,1\n0,1,1,0\n0,2,1,0\n1,0,0,0\n"),
    ("hodge components --input p3.json --output json",
     _json_text({"components": 34})),
    ("hodge kmatrix --degrees 2 --index 2",
     "2,-1\n-2,-1\n0,1\n0,-1\ncomponents: 8\n"),
    ("catalog list", CATALOG_LIST),
    ("catalog verify --order 4 --id G36-2111 --id 1-1",
     "PASS 1-1 [paper]\nPASS G36-2111 [paper]\n2/2 passed\n"),
    ("phi --input p1-model.json --order 7", "1,0,2,0,6,0,20\n"),
    ("phi --input p1-model.json --order 7 --output json",
     _json_text({"coeffs": ["1", "0", "2", "0", "6", "0", "20"],
                 "order": 7})),
    ("iseries wci --weights 1,1,1,1 --degrees 3 --order 5",
     "1,6,90,1680,34650\n"),
    ("iseries grass --k 2 --n 3 --degrees 1,1 --order 5", "1,0,0,18,0\n"),
    ("iseries toric --input toric.json --order 6", "1,2,6,20,70,252\n"),
    ("verify --input p1-model.json --against series.json",
     "match through order 20\n"),
    ("verify --input p1-model.json --against series.json --order 6 "
     "--output json", _json_text({"match": True, "order": 6})),
    ("build delpezzo --input dp.json --output json",
     _json_text({"vars": ["x", "y", "q0", "q1", "q2", "q3"], "terms": _terms(
         ([-1, -1, 1, 0, 0, 0], "1"), ([0, -1, 1, 0, 1, 0], "1"),
         ([0, 1, 0, 0, 0, 0], "1"), ([1, -1, 1, 0, 1, 1], "1"),
         ([1, 0, 0, 0, 0, 0], "1"), ([1, 1, 0, 1, 0, 0], "1"))})),
    ("build binomial --input tri.json", "x^-1*y^-1 + y + x\n"),
    ("mutate --input mutate-f.json --pivot x --factor mutate-factor.json",
     "x^-1*y^-1 + 2*x^-1 + x^-1*y + x\n"),
    ("polytope hull --input p3.json", "-1,-1,-1\n0,0,1\n0,1,0\n1,0,0\n"),
    ("polytope dual --input tri.json", "-1,-1\n-1,2\n2,-1\n"),
    ("polytope reflexive --input tri.json", "true\n"),
    ("polytope volume --input p3.json", "4\n"),
    ("polytope points --input tri.json", "-1,-1\n0,0\n0,1\n1,0\n"),
    ("polytope points --input no-points.json", ""),
    ("polytope points --input no-points.json --output json",
     _json_text({"count": 0, "points": []})),
    ("lattice sig --name H --output json", _json_text({"signature": [1, 1]})),
    ("lattice index --input index.json --output json",
     _json_text({"index": 2})),
    ("pf fit --input series.json --max-order 1 --max-degree 0",
     "no operator found\n"),
    ("pf fit --input series.json --max-order 1 --max-degree 0 --output json",
     "null\n"),
    ("hodge surface --d 3 --output json", _json_text({
        "degree": 3, "fano": True,
        "diamond": {"dim": 2, "h": [[0, 0, 1], [0, 7, 0], [1, 0, 0]],
                    "middle_row": [1, 7, 1]},
        "jordan_blocks": [[3, 1], [1, 6]]})),
    ("hodge surface --d 0 --output json", _json_text({
        "degree": 0, "fano": False, "diamond": None,
        "jordan_blocks": [[2, 2], [1, 8]]})),
    ("hodge threefold --ky 1 --ph 3 --h12z 1 --output json", _json_text({
        "dim": 3, "h": [[0, 0, 0, 1], [0, 1, 1, 0], [0, 2, 1, 0],
                        [1, 0, 0, 0]],
        "middle_row": [1, 2, 1, 1]})),
    ("hodge components --input p3.json", "34\n"),
    ("hodge kmatrix --degrees 2 --index 2 --output json", _json_text({
        "components": 8, "matrix": [[2, -1], [-2, -1], [0, 1], [0, -1]]})),
], ids=["build-wci", "build-wci-partition", "build-grass-explain",
        "build-grass-sort-desc", "build-delpezzo", "build-delpezzo-surface",
        "build-binomial", "minkowski-check", "minkowski-check-json",
        "polytope-equiv", "polytope-equiv-json", "lattice-disc",
        "lattice-disc-json", "lattice-sig", "lattice-index", "lattice-duval",
        "lattice-duval-self", "pf-fit", "pf-fit-json", "hodge-surface",
        "hodge-surface-d0", "hodge-threefold", "hodge-components",
        "hodge-kmatrix", "catalog-list", "catalog-verify-text", "phi-text",
        "phi-json", "iseries-wci-text", "iseries-grass-text",
        "iseries-toric-text", "verify-text", "verify-json",
        "build-delpezzo-json", "build-binomial-text", "mutate-text",
        "polytope-hull-text", "polytope-dual-text", "polytope-reflexive-text",
        "polytope-volume-text", "polytope-points-text",
        "polytope-points-none-text", "polytope-points-none-json",
        "lattice-sig-json", "lattice-index-json", "pf-fit-none-text",
        "pf-fit-none-json", "hodge-surface-json", "hodge-surface-d0-json",
        "hodge-threefold-json", "hodge-components-text",
        "hodge-kmatrix-json"])
def test_commands_print_golden_output(tmp_path, monkeypatch, capsys, argv,
                                      expected):
    for name, data in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


# the two commands that check something exit 1 when the check fails, and
# print their report in either format; computed at b326d66
@pytest.mark.parametrize("argv, catalog_entries, expected", [
    ("verify --input MODEL --against SERIES", None,
     "mismatch at t^3: expected 1, found 0\n"),
    ("verify --input MODEL --against SERIES --output json", None,
     _json_text({"expected": "1", "first_mismatch": 3, "found": "0",
                 "match": False, "order": 5})),
    ("catalog verify --order 5", ["1-17", "bad-1"],
     "PASS 1-17 [paper]\nFAIL bad-1 [paper] period coefficient 3: "
     "expected 12, found 0\n1/2 passed\n"),
], ids=["verify-text", "verify-json", "catalog-verify-text"])
def test_failed_checks_print_their_report_and_exit_one(
        model, tmp_path, monkeypatch, capsys, argv, catalog_entries,
        expected):
    series = tmp_path / "series.json"
    series.write_text(json.dumps({"coeffs": ["1", "0", "2", "1", "6"]}))
    if catalog_entries:
        p3 = next(e for e in json.loads(catalog.bundled_path().read_text())
                  if e["id"] == "1-17")
        # the period of P^3 checked against the I-series of a quadric
        wrong = dict(p3, id="bad-1", generator={
            "kind": "wci", "weights": [1, 1, 1, 1, 1], "degrees": [2]})
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([p3, wrong]))
        monkeypatch.setenv("TLG_CATALOG", str(path))
    argv = [{"MODEL": model, "SERIES": str(series)}.get(a, a)
            for a in argv.split()]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


def test_an_empty_catalog_lists_nothing(tmp_path, monkeypatch, capsys):
    # a text result of no lines prints nothing at all
    path = tmp_path / "catalog.json"
    path.write_text("[]")
    monkeypatch.setenv("TLG_CATALOG", str(path))
    assert main(["catalog", "list"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["catalog", "list", "--output", "json"]) == 0
    assert capsys.readouterr().out == "[]\n"
    assert main(["catalog", "verify", "--output", "text"]) == 0
    assert capsys.readouterr().out == "0/0 passed\n"


# sha256 of `catalog list --output json`, computed at b326d66
CATALOG_LIST_SHA256 = \
    "9c59f34bf56de1376c1a69c162d9fc5deb7eeb726447aa18d9889c33b5fac837"


def test_catalog_list_json_is_byte_identical(capsys):
    assert main(["catalog", "list", "--output", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == \
        CATALOG_LIST_SHA256


# sha256 of the full JSON report; any change to a model, a check or the
# report format shows here, so a change that means to keep the report
# byte-identical must keep this value
CATALOG_O4_SHA256 = \
    "46e5c4ed22d68c85c2de4fbd4c7cddbb87fb166f50528d9787242a5c44fb4afa"


def test_catalog_report_is_byte_identical(capsys):
    assert main(["catalog", "verify", "--order", "4", "--output", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == \
        CATALOG_O4_SHA256


# sha256 of the same report at order 8
CATALOG_O8_SHA256 = \
    "a194922f6d3268237fcc0706eed6bdd51fc0dfa7c6d4fc7a0329d667bfc14bd2"


def test_catalog_report_at_order_8_is_byte_identical(capsys):
    assert main(["catalog", "verify", "--order", "8", "--output", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == \
        CATALOG_O8_SHA256


# sha256 of `build grass --explain --output json` for a mixed block and
# for horizontal then vertical blocks, with the layout spelled out
@pytest.mark.parametrize("argv, blocks, variables, sha256", [
    ("--k 2 --n 3 --degrees 3", [("MB", 0, 2)], ["a2_1"],
     "fca699a258a8451b8e7db5293c4c4e4d9486ded2858a44e3fa937f34a5561112"),
    ("--k 3 --n 3 --degrees 2,1,1,1",
     [("HB", 0, 2), ("HB", 2, 3), ("VB", 1, 2), ("VB", 2, 3)],
     ["a1_1", "a2_1", "a3_1", "a3_2"],
     "0ea53adb7816e7556df78e96ae4686bafaddb976d5a044f2825e8b40184556b5"),
], ids=["mixed", "horizontal-vertical"])
def test_build_grass_explain_json_is_byte_identical(capsys, argv, blocks,
                                                    variables, sha256):
    assert main(["build", "grass", *argv.split(), "--explain",
                 "--output", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert [(b["kind"], b["r"], b["s"]) for b in payload["blocks"]] == blocks
    assert payload["weight_variables"] == variables
    assert hashlib.sha256(captured.out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv", [
    ["phi", "--input", "no-such-file.json", "--order", "3"],
    ["phi", "--input", "MODEL", "--order", "3", "--output", "yaml"],
    ["catalog", "verify", "--id", "1-1", "--id", "no-such-id"],
    ["lattice", "sig"],                                 # neither input
    ["build", "grass", "--k", "2", "--n", "3", "--degrees", "1,x"],
    ["build"],                                          # no subcommand
    ["build", "grass", "--k", "2", "--n", "3", "--method", "closed"],
    ["catalog", "verify", "--id", "1-1", "--jobs", "0"],
    ["catalog", "verify", "--id", "1-1", "--jobs", "-3"],
    ["minkowski", "check", "--input", "MODEL", "--max-summands", "0"],
    ["minkowski", "check", "--input", "MODEL", "--max-summands", "-1"],
    # a missing partition file exited 1 with a FileNotFoundError
    ["build", "wci", "--weights", "1,1,1,1", "--degrees", "1",
     "--partition", "no-such-file.json"],
], ids=["missing-input-file", "bad-output-choice", "unknown-id",
        "lattice-without-input", "bad-int-list", "group-only",
        "removed-method-option", "zero-jobs", "negative-jobs",
        "zero-max-summands", "negative-max-summands",
        "missing-partition-file"])
def test_more_usage_errors_exit_two(model, tmp_path, monkeypatch, capsys,
                                    argv):
    monkeypatch.chdir(tmp_path)
    assert main([model if a == "MODEL" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err


@pytest.mark.parametrize("argv", [["--help"], ["build", "--help"],
                                  ["catalog", "verify", "--help"]])
def test_help_exits_zero(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "--help" in captured.out and captured.err == ""


# every leaf's --help at 80 columns, by command, computed at b326d66; phi
# and verify without the --period-vars option deleted since
LEAF_HELP = json.loads(
    (Path(__file__).parent / "leaf_help_80.json").read_text())


@pytest.mark.parametrize("leaf", list(LEAF_HELP))
def test_every_leaf_prints_golden_help(monkeypatch, capsys, leaf):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*leaf.split(), "--help"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (LEAF_HELP[leaf], "")


@pytest.mark.parametrize("argv, data", [
    (["build", "wci", "--weights", "1,1,1,1", "--degrees", "1",
      "--partition", "IN"], {"classes": [[0.9, 1, 2], [3.7]]}),
    (["build", "wci", "--weights", "1,1,1,1", "--degrees", "1",
      "--partition", "IN"], {"classes": [[True, 1, 2], [3]]}),
    (["build", "wci", "--weights", "1,1,1,1", "--degrees", "1",
      "--partition", "IN"], {"classes": [0, 1, 2, 3]}),
    (["build", "wci", "--weights", "1,1,1,1", "--degrees", "1",
      "--partition", "IN"], {"classes": []}),
    (["build", "delpezzo", "--input", "IN"],
     {"base": "P2", "steps": [[1.9, 1.2]], "params": ["q0", "q1"]}),
    (["build", "delpezzo", "--input", "IN"],
     {"base": "P2", "steps": [[1, "1"]], "params": ["q0", "q1"]}),
    (["build", "delpezzo", "--input", "IN"],
     {"base": "P2", "steps": {"1": 1}, "params": ["q0", "q1"]}),
    (["build", "delpezzo", "--input", "IN"], {"base": "P2", "params": [7]}),
    (["build", "delpezzo", "--input", "IN"], {"base": "P2", "params": "qr"}),
], ids=["float-class", "bool-class", "flat-classes", "no-classes",
        "float-step", "string-step", "steps-not-a-list", "number-param",
        "string-params"])
def test_build_rejects_bad_classes_and_steps(tmp_path, capsys, argv, data):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert main([str(path) if a == "IN" else a for a in argv]) == 1
    error = _error(capsys)
    assert error["type"] == "ParseError"
    assert error["message"].startswith(f"{path}: ")
