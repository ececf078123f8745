import json

import pytest

from tlg import catalog
from tlg.catalog import (CatalogEntry, ParseError, entry_from_json_dict,
                         entry_to_json_dict, verify_all, verify_entry)
from tlg.cli import main
from tlg.laurent import LaurentPoly
from tlg.polytope import newton_polytope
from tlg.series import ToricCurveClassData

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
    catalog.save(entries, path)
    again = catalog.load(path)
    assert len(again) == 25
    assert [entry_to_json_dict(e) for e in again] == \
        [entry_to_json_dict(e) for e in entries]
