"""Exit-code contract of ``tlg.cli.main``: 0 success, 1 domain error with
a JSON error object on stderr, 2 usage error, 130 interrupted."""

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


@pytest.mark.parametrize("argv, points, expected", [
    (["hull"], REFLEXIVE_POINTS, {"dim": 3, "vertices": VERTICES}),
    (["dual"], REFLEXIVE_POINTS, {"dim": 3, "vertices": DUAL_VERTICES}),
    (["reflexive"], REFLEXIVE_POINTS, True),
    (["reflexive"], DUAL_VERTICES, True),
    (["volume"], REFLEXIVE_POINTS, {"volume": 8}),
    (["volume"], DUAL_VERTICES, {"volume": 48}),
    (["points"], REFLEXIVE_POINTS,
     {"count": 7, "points": sorted(VERTICES + [[0, 0, 0]])}),
    (["points", "--region", "interior"], DUAL_VERTICES,
     {"count": 1, "points": [[0, 0, 0]]}),
    (["points", "--region", "boundary"], DUAL_VERTICES,
     {"count": 26, "points": DUAL_BOUNDARY}),
], ids=["hull", "dual", "reflexive", "reflexive-dual", "volume",
        "volume-dual", "points", "points-interior-dual",
        "points-boundary-dual"])
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
