import json

import pytest

from tlg import catalog, catalog_writer, polytope, series
from tlg.catalog import (CatalogEntry, ParseError, entry_from_json_dict,
                         verify_all, verify_entry)
from tlg.catalog_writer import entry_to_json_dict
from tlg.cli import main
from tlg.laurent import LaurentPoly
from tlg.polytope import newton_polytope
from tlg.series import PowerSeries, ToricCurveClassData, factored

GENERATORS = {
    "wci": {"kind": "wci", "weights": [1, 1, 1, 1], "degrees": [3]},
    "grass": {"kind": "grass", "k": 2, "n": 3, "degrees": [1]},
    "toric": {"kind": "toric", "rows": [[1, 1, 1]]},
}


def _entry_json():
    return entry_to_json_dict(catalog.load()[0])


def test_all_entries_pass_at_order_4_with_cached_newton_polytopes():
    entries = catalog.load()
    assert len(entries) == 25
    # the worker processes receive LaurentPolys that already carry their
    # Newton polytope, so pickling the cache is exercised too
    for e in entries:
        newton_polytope(e.laurent)
    summary = verify_all(entries, 4, jobs=2)
    assert [r.id for r in summary.reports] == sorted(e.id for e in entries)
    assert summary.all_passed, summary.failed_ids


def _verify_json(capsys, jobs: str):
    code = main(["catalog", "verify", "--order", "4", "--output", "json",
                 "--jobs", jobs])
    return code, capsys.readouterr().out


def test_cli_verify_exits_zero_with_identical_json_across_jobs(capsys):
    code1, out1 = _verify_json(capsys, "1")
    code2, out2 = _verify_json(capsys, "2")
    assert code1 == 0 and code2 == 0
    assert out1.encode() == out2.encode()
    payload = json.loads(out1)
    assert payload["passed"] is True and payload["failed"] == []
    assert len(payload["reports"]) == 25


def test_missing_id_is_a_located_parse_error():
    data = _entry_json()
    del data["id"]
    with pytest.raises(ParseError) as info:
        entry_from_json_dict(data, "cat.json entry 7")
    assert info.value.location == "cat.json entry 7 field id"


def test_load_locates_a_missing_id_by_path_and_index(tmp_path):
    good = _entry_json()
    bad = _entry_json()
    del bad["id"]
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([good, bad]))
    with pytest.raises(ParseError) as info:
        catalog.load(path)
    assert info.value.location == f"{path} entry 1 field id"


@pytest.mark.parametrize("kind,key", [
    ("wci", "weights"), ("wci", "degrees"),
    ("grass", "k"), ("grass", "n"), ("grass", "degrees"),
    ("toric", "rows"),
])
def test_generator_missing_key_is_a_located_parse_error(kind, key):
    data = _entry_json()
    generator = dict(GENERATORS[kind])
    entry_from_json_dict(dict(data, generator=generator), "ok")
    del generator[key]
    with pytest.raises(ParseError) as info:
        entry_from_json_dict(dict(data, generator=generator), "cat.json entry 3")
    assert info.value.location == "cat.json entry 3 field generator"
    assert repr(key) in str(info.value)


def test_toric_degrees_are_written_only_when_present():
    data = _entry_json()
    for generator in (GENERATORS["toric"],
                      dict(GENERATORS["toric"], degrees=[[2]])):
        entry = entry_from_json_dict(dict(data, generator=generator), "ok")
        assert entry_to_json_dict(entry)["generator"] == generator


def test_invalid_generator_values_are_located():
    data = dict(_entry_json(),
                generator={"kind": "wci", "weights": [0, 1], "degrees": []})
    with pytest.raises(ParseError) as info:
        entry_from_json_dict(data, "cat.json entry 2")
    assert info.value.location == "cat.json entry 2 field generator"


def test_series_warnings_reach_the_report():
    # the constant 1 has period 1, 1, 1, ...; so has the toric data with a
    # single curve class of anticanonical degree one, which warns
    entry = CatalogEntry(
        id="kappa-one", description="", laurent=LaurentPoly.constant(1, ("x",)),
        generator=ToricCurveClassData(((1, 0),)))
    target = entry.generator_series(5)
    assert target.warnings
    report = verify_entry(entry, 5)
    assert report.passed and report.period_ok
    assert report.messages == target.warnings


def test_bundled_generators_emit_no_series_warnings():
    for e in catalog.load():
        series = e.generator_series(4)
        assert series is None or series.warnings == ()


def test_save_then_load_round_trips_every_entry(tmp_path):
    entries = catalog.load()
    path = tmp_path / "catalog.json"
    catalog_writer.save(entries, path)
    again = catalog.load(path)
    assert len(again) == 25
    assert [entry_to_json_dict(e) for e in again] == \
        [entry_to_json_dict(e) for e in entries]


@pytest.mark.parametrize("generator", [
    {"kind": "wci", "weights": [1, 1, 1, 1.9], "degrees": []},
    {"kind": "wci", "weights": [1, 1, 1, True], "degrees": []},
    {"kind": "wci", "weights": [1, 1, 1, 1], "degrees": [3.0]},
    {"kind": "grass", "k": 2.0, "n": 3, "degrees": [1]},
    {"kind": "grass", "k": 2, "n": 3, "degrees": "1"},
    {"kind": "toric", "rows": [[1.5, 1]]},
    {"kind": "toric", "rows": [[1, 1, 1]], "degrees": [[False]]},
], ids=["float-weight", "bool-weight", "float-degree", "float-k",
        "string-degrees", "float-row", "bool-degree"])
def test_non_integer_generator_values_are_located(generator):
    data = dict(_entry_json(), generator=generator)
    with pytest.raises(ParseError) as info:
        entry_from_json_dict(data, "cat.json entry 4")
    assert info.value.location == "cat.json entry 4 field generator"
    assert "integer" in str(info.value)


@pytest.mark.parametrize("key, value, message", [
    ("id", 7, "id must be a string, got 7"),
    ("polytope_notes", [[1.5, 0, 0]],
     "polytope_notes must be a list of integers, got [1.5, 0, 0]"),
    ("polytope_notes", [["a"]],
     "polytope_notes must be a list of integers, got ['a']"),
    ("polytope_notes", 5, "polytope_notes must be a list of integer lists, "
                          "got 5"),
    ("degree", "12", "degree must be an integer, got '12'"),
    ("index", True, "index must be an integer, got True"),
    ("rho", 1.0, "rho must be an integer, got 1.0"),
    ("minkowski", "no", "minkowski must be true or false, got 'no'"),
    ("minkowski", None, "minkowski must be true or false, got None"),
], ids=["id-int", "notes-float", "notes-string", "notes-int",
        "degree-string", "index-bool", "rho-float", "minkowski-string",
        "minkowski-null"])
def test_bad_entry_fields_are_located_parse_errors(key, value, message):
    data = dict(_entry_json(), **{key: value})
    with pytest.raises(ParseError) as info:
        entry_from_json_dict(data, "cat.json entry 0")
    assert info.value.location == f"cat.json entry 0 field {key}"
    assert str(info.value) == f"cat.json entry 0 field {key}: {message}"


def test_entry_fields_keep_their_null_and_absent_forms():
    data = dict(_entry_json(), polytope_notes=[[1, 0, 0]], degree=None,
                index=None, rho=None)
    del data["minkowski"]
    entry = entry_from_json_dict(data, "ok")
    assert entry.polytope_notes == ((1, 0, 0),)
    assert (entry.degree, entry.index, entry.rho) == (None, None, None)
    assert entry.minkowski_flag is False


def test_verify_reports_a_newton_polytope_without_the_origin_inside(
        tmp_path, monkeypatch, capsys):
    # x + y + xy: every exponent has a positive coordinate, so the origin
    # lies outside its triangle and reflexivity cannot be asked
    outside = CatalogEntry(
        id="0-outside", description="",
        laurent=LaurentPoly(("x", "y"), {(1, 0): 1, (0, 1): 1, (1, 1): 1}),
        expected_series_prefix=PowerSeries((1, 0, 0, 0)))
    path = tmp_path / "catalog.json"
    catalog_writer.save([outside, catalog.load()[0]], path)
    monkeypatch.setenv("TLG_CATALOG", str(path))
    assert main(["catalog", "verify", "--output", "json"]) == 0
    first, second = json.loads(capsys.readouterr().out)["reports"]
    assert first["id"] == "0-outside" and first["passed"] is True
    assert first["reflexive"] is False
    assert first["messages"] == [
        "Newton polytope is not reflexive: origin is not strictly inside"]
    assert second["passed"] is True


@pytest.mark.parametrize("terms, cause", [
    # x + y + z + xyz: the origin lies outside the tetrahedron
    ({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (1, 1, 1): 1},
     "Newton polytope is not reflexive: origin is not strictly inside"),
    # x^2 + y + z + their inverses: the facet x/2 + y + z = 1 lies at
    # height 2 from the origin
    ({(2, 0, 0): 1, (-2, 0, 0): 1, (0, 1, 0): 1, (0, -1, 0): 1,
      (0, 0, 1): 1, (0, 0, -1): 1}, None),
], ids=["origin-outside", "height-two"])
def test_verify_reports_a_minkowski_flag_on_a_non_reflexive_polytope(terms,
                                                                     cause):
    # check_minkowski needs a reflexive 3-polytope; it used to be called
    # anyway and abort the whole run
    entry = CatalogEntry(
        id="0-flagged", description="",
        laurent=LaurentPoly(("x", "y", "z"), terms),
        expected_series_prefix=PowerSeries((1, 0)), minkowski_flag=True)
    report = catalog.verify_entry(entry, 2)
    assert report.reflexive is False
    assert report.minkowski_ok is False and report.passed is False
    assert report.messages == tuple(m for m in (
        cause, "Minkowski flag needs a reflexive Newton 3-polytope") if m)


def _factored():
    return next(e for e in catalog.load() if e.id == "1-1")


def test_bundled_factors_multiply_out_to_the_laurent_polynomials():
    products = {e.id: e.laurent for e in catalog.load()
                if e.laurent.factors is not None}
    assert sorted(products) == sorted(
        ["1-1", "1-2", "1-3", "1-4", "1-5", "1-6", "1-7", "1-8", "1-9",
         "2-2", "2-3", "G36-2111", "G36-1112"])
    for f in products.values():
        product = LaurentPoly.constant(1, f.variables)
        for factor, power in f.factors:
            product = product * factor ** power
        assert product == f
    # (x + y + z + 1)^6 / (xyz): one monomial and one 4-term factor
    assert [(len(f), m) for f, m in products["1-1"].factors] == [(1, 1), (4, 6)]


def _with_factor(data, index, **changes):
    factors = [dict(f) for f in data["factors"]]
    factors[index].update(changes)
    return dict(data, factors=factors)


F_LAURENT = {"vars": ["x", "y", "z"], "terms": [{"e": [-1, -1, -1], "c": "1"}]}


# 1-1 is (x + y + z + 1)^6 / (xyz): factor 0 is the monomial, factor 1 the
# linear form to the 6th power
@pytest.mark.parametrize("index, change", [
    (1, {"power": 5}), (1, {"power": 0}), (1, {"power": 6.0}),
    (0, {"power": True}),
    (0, {"laurent": {**F_LAURENT, "terms": [{"e": [-1, -1, -1.0], "c": "1"}]}}),
    (0, {"laurent": {"vars": ["x", "y"], "terms": [{"e": [-1, -1], "c": "1"}]}}),
    (0, {"laurent": {**F_LAURENT, "terms": [{"e": [-1, -1, -1], "c": "2"}]}}),
], ids=["wrong-power", "zero-power", "float-power", "bool-power",
        "float-exponent", "other-variables", "wrong-constant"])
def test_bad_factors_are_a_located_parse_error(tmp_path, index, change):
    good = entry_to_json_dict(_factored())
    assert good["factors"][0]["laurent"] == F_LAURENT
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([good, _with_factor(good, index, **change)]))
    with pytest.raises(ParseError) as info:
        catalog.load(path)
    assert info.value.location == f"{path} entry 1 field factors"


def test_factors_missing_a_power_or_empty_are_located():
    good = entry_to_json_dict(_factored())
    for factors in ([{"laurent": good["factors"][0]["laurent"]}], [], 3):
        with pytest.raises(ParseError) as info:
            entry_from_json_dict(dict(good, factors=factors), "cat.json entry 0")
        assert info.value.location == "cat.json entry 0 field factors"


def test_factors_round_trip_and_are_written_only_when_present(tmp_path):
    entries = catalog.load()
    path = tmp_path / "catalog.json"
    catalog_writer.save(entries, path)
    assert path.read_bytes() == catalog.bundled_path().read_bytes()
    again = {e.id: e for e in catalog.load(path)}
    for e in entries:
        assert again[e.id].laurent.factors == e.laurent.factors
        assert ("factors" in entry_to_json_dict(e)) == \
            (e.laurent.factors is not None)


def test_verify_entry_multiplies_by_the_factors():
    e = _factored()
    plain = LaurentPoly(e.laurent.variables, dict(e.laurent.terms()))
    assert plain.factors is None
    assert verify_entry(e, 9) == verify_entry(e._replace(laurent=plain), 9)
    # factors are checked where they are attached: a list that does not
    # multiply out to the model never reaches verify_entry
    monomial, linear = e.laurent.factors
    with pytest.raises(ValueError):
        factored(plain, (monomial, (linear[0], 5)))


def _counted_hulls(monkeypatch) -> list:
    """The number of points of each full-dimensional hull built from now."""
    hulls = []
    full_hull = polytope._full_hull

    def counting_hull(pts, simplex):
        hulls.append(len(pts))
        return full_hull(pts, simplex)
    monkeypatch.setattr(polytope, "_full_hull", counting_hull)
    return hulls


def test_g36_verify_hulls_the_factor_sums_once_and_not_the_dual(monkeypatch):
    # Newton(f) is the hull of the 84 sums of factor exponents, in place of
    # the 149 exponents of f, and the dual is read off it by polarity
    hulls = _counted_hulls(monkeypatch)
    entry = next(e for e in catalog.load() if e.id == "G36-2111")
    assert len(entry.laurent) == 149
    assert verify_entry(entry, 4).passed
    assert hulls == [84]


def test_g36_newton_polytope_hulls_the_factor_sums_before_any_phi(
        monkeypatch):
    # the factors travel with the polynomial, so the hull does not depend
    # on phi having run first
    hulls = _counted_hulls(monkeypatch)
    entry = next(e for e in catalog.load() if e.id == "G36-2111")
    assert newton_polytope(entry.laurent).is_full_dimensional()
    assert hulls == [84]


def test_a_verify_process_checks_each_factor_list_once_in_load(monkeypatch,
                                                               capsys):
    # a product check multiplies the packed factors out from the packed 1;
    # phi and newton_polytope read the factors the load checked
    phase, checks = [None], []
    for name in ("load", "verify_all"):
        def within(*args, _name=name, _fn=getattr(catalog, name), **kwargs):
            phase.append(_name)
            try:
                return _fn(*args, **kwargs)
            finally:
                phase.pop()
        monkeypatch.setattr(catalog, name, within)

    def times(power, factor, _times=series._times):
        if power == {0: 1}:
            checks.append(phase[-1])
        return _times(power, factor)
    monkeypatch.setattr(series, "_times", times)
    assert main(["catalog", "verify", "--order", "4"]) == 0
    assert "25/25" in capsys.readouterr().out
    assert checks == ["load"] * 13


def test_load_checks_the_factors_with_no_laurent_arithmetic(monkeypatch):
    # the factors are multiplied out on packed keys; LaurentPoly products
    # made 103 __mul__, 44 __pow__ and 13 __eq__ calls per load
    calls = []
    for name in ("__mul__", "__pow__", "__eq__"):
        def counting(*args, _name=name, _method=getattr(LaurentPoly, name)):
            calls.append(_name)
            return _method(*args)
        monkeypatch.setattr(LaurentPoly, name, counting)
    entries = catalog.load()
    assert sum(e.laurent.factors is not None for e in entries) == 13
    assert calls == []


def test_malformed_laurent_term_is_located_by_index():
    data = _entry_json()
    del data["laurent"]["terms"][1]["c"]
    with pytest.raises(ParseError) as info:
        entry_from_json_dict(data, "cat.json entry 5")
    assert info.value.location == "cat.json entry 5 field laurent"
    assert str(info.value).endswith("terms[1]: missing key 'c'")


def test_non_integer_laurent_exponent_is_located():
    for bad in (-1.0, True):
        data = _entry_json()
        data["laurent"]["terms"][0]["e"] = [-1, -1, bad]
        with pytest.raises(ParseError) as info:
            entry_from_json_dict(data, "cat.json entry 5")
        assert info.value.location == "cat.json entry 5 field laurent"
        assert str(info.value).endswith("exponents must be lists of integers")
