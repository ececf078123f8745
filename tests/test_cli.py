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
