"""Exit-code contract of ``tlg.cli.main``: 0 success, 1 domain error with
a JSON error object on stderr, 2 usage error, 130 interrupted."""

import hashlib
import json

import pytest

import tlg.cli
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
    monkeypatch.setattr(tlg.cli, "phi", interrupted)
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
    assert _error(capsys) == {"type": "TypeError",
                              "message": "exponents must be lists of integers"}


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
], ids=["missing-c", "missing-e", "term-not-object", "terms-not-list",
        "zero-denominator", "bool-coefficient", "vars-string", "vars-not-names",
        "repeated-exponent", "missing-vars"])
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
    (SIG, {"gram": [[1.5]]}, "gram must be a list of integers, got [1.5]"),
    (SIG, {"gram": [[1, 2], [3, 1]]}, "gram matrix must be symmetric"),
    (SIG, {"name": 5}, "name must be a string, got 5"),
    (SIG, {"name": "A2", "twist": 0}, "twist must be a nonzero integer, got 0"),
    (SIG, {"rank": 2},
     "expected a lattice as {'gram': ...} or {'name': ...}"),
    (["lattice", "index", "--input", "IN"],
     {"sub": {"gram": "x"}, "sup": {"name": "H"}, "embedding": [[1]]},
     "gram must be a list of integer lists, got 'x'"),
], ids=["series-zero-denominator", "series-not-a-number", "series-float",
        "series-coeffs-not-list", "series-wrong-order", "series-no-coeffs",
        "pf-fit-bool", "points-not-list", "points-bool", "vertices-float",
        "vertices-zero-denominator", "dim-string", "polytope-unknown-object",
        "gram-float", "gram-not-symmetric", "lattice-name-not-string",
        "twist-zero", "lattice-unknown-object", "lattice-index-sub"])
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
], ids=["build-wci", "build-wci-partition", "build-grass-explain",
        "build-grass-sort-desc", "build-delpezzo", "build-delpezzo-surface",
        "build-binomial", "minkowski-check", "minkowski-check-json",
        "polytope-equiv", "polytope-equiv-json", "lattice-disc",
        "lattice-disc-json", "lattice-sig", "lattice-index", "lattice-duval",
        "lattice-duval-self", "pf-fit", "pf-fit-json", "hodge-surface",
        "hodge-surface-d0", "hodge-threefold", "hodge-components",
        "hodge-kmatrix", "catalog-list", "catalog-verify-text"])
def test_commands_print_golden_output(tmp_path, monkeypatch, capsys, argv,
                                      expected):
    for name, data in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


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
], ids=["missing-input-file", "bad-output-choice", "unknown-id",
        "lattice-without-input", "bad-int-list", "group-only",
        "removed-method-option", "zero-jobs", "negative-jobs"])
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
