"""Bundled Laurent models with a batch verification harness.

Each entry stores an explicit Laurent polynomial, optionally also as a
product of factors: loading checks them once, with `series.factored`, on
packed keys and with no Laurent arithmetic, and the polynomial carries
them, so the period engine multiplies by them one at a time and the
Newton polytope is the hull of their sums. An entry has optional
anchors: a generator (weighted complete intersection, Grassmannian or toric
curve-class data) whose closed-form series the period must reproduce, or a
frozen series prefix for entries with no generating formula. An entry with
a generator is anchored by the paper and one without is a regression
baseline, so reports can separate genuine cross-checks from baselines.
"""

from __future__ import annotations

import json
import os
from functools import partial
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .builders import check_minkowski
from .laurent import LaurentPoly
from .polytope import (OriginNotInterior, dual, is_reflexive, newton_polytope,
                       normalized_volume)
from .series import (GrassSpec, PowerSeries, ToricCurveClassData, WciSpec,
                     factored, iseries_grassmannian, iseries_toric, phi)


class ParseError(ValueError):
    """Malformed catalog data; the message carries the location."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


Generator = Union[WciSpec, GrassSpec, ToricCurveClassData]


class CatalogEntry(NamedTuple):
    id: str
    description: str
    laurent: LaurentPoly
    generator: Optional[Generator] = None
    expected_series_prefix: Optional[PowerSeries] = None
    polytope_notes: Optional[Tuple[Tuple[int, ...], ...]] = None
    minkowski_flag: bool = False
    degree: Optional[int] = None
    index: Optional[int] = None
    rho: Optional[int] = None

    @property
    def anchored(self) -> str:
        return "paper" if self.generator is not None else "derived-regression"

    def generator_series(self, order: int) -> Optional[PowerSeries]:
        g = self.generator
        if isinstance(g, GrassSpec):
            return iseries_grassmannian(g, order)
        if isinstance(g, WciSpec):
            g = g.toric_data()
        return None if g is None else iseries_toric(g, order)


def _generator_to_json(g: Optional[Generator]) -> Optional[dict]:
    if g is None:
        return None
    if isinstance(g, WciSpec):
        return {"kind": "wci", "weights": list(g.weights),
                "degrees": list(g.degrees)}
    if isinstance(g, GrassSpec):
        return {"kind": "grass", "k": g.k, "n": g.n,
                "degrees": list(g.degrees)}
    if isinstance(g, ToricCurveClassData):
        out = {"kind": "toric", "rows": [list(r) for r in g.rows]}
        if g.degrees:
            out["degrees"] = [list(v) for v in g.degrees]
        return out
    raise TypeError(f"unknown generator {g!r}")


def _exactly(kind: type, name: str):
    """A check that a JSON value has exactly the type kind: a number with a
    fraction part is a float and true/false is a bool, so neither is an
    int."""
    def check(x, what: str):
        if type(x) is not kind:
            raise TypeError(f"{what} must be {name}, got {x!r}")
        return x
    return check


_int = _exactly(int, "an integer")
_str = _exactly(str, "a string")
_bool = _exactly(bool, "true or false")


def _ints(xs, what: str) -> Tuple[int, ...]:
    if type(xs) is not list or any(type(x) is not int for x in xs):
        raise TypeError(f"{what} must be a list of integers, got {xs!r}")
    return tuple(xs)


def _int_lists(xs, what: str) -> Tuple[Tuple[int, ...], ...]:
    if type(xs) is not list:
        raise TypeError(f"{what} must be a list of integer lists, got {xs!r}")
    return tuple(_ints(x, what) for x in xs)


def generator_from_json(data, location: str,
                        kind: Optional[str] = None) -> Generator:
    """The generator a JSON object describes, of the given kind or else of
    the kind its "kind" field names; bad input raises a ParseError at
    location."""
    if not isinstance(data, dict):
        raise ParseError(location, "generator must be a JSON object")
    kind = kind or data.get("kind")
    try:
        if kind == "wci":
            return WciSpec(_ints(data["weights"], "weights"),
                           _ints(data["degrees"], "degrees"))
        if kind == "grass":
            return GrassSpec(_int(data["k"], "k"), _int(data["n"], "n"),
                             _ints(data["degrees"], "degrees"))
        if kind == "toric":
            return ToricCurveClassData(
                tuple(_ints(r, "rows") for r in data["rows"]),
                tuple(_ints(v, "degrees") for v in data.get("degrees", ())))
    except KeyError as exc:
        raise ParseError(location, f"{kind} generator is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(location, str(exc)) from exc
    raise ParseError(location, f"unknown generator kind {kind!r}")


def entry_to_json_dict(e: CatalogEntry) -> dict:
    out = {
        "id": e.id,
        "description": e.description,
        "laurent": e.laurent.to_json_dict(),
    }
    if e.laurent.factors is not None:
        out["factors"] = [{"laurent": f.to_json_dict(), "power": m}
                          for f, m in e.laurent.factors]
    out |= {
        "generator": _generator_to_json(e.generator),
        "expected_series_prefix": (None if e.expected_series_prefix is None
                                   else e.expected_series_prefix.to_json_dict()),
        "polytope_notes": (None if e.polytope_notes is None
                           else [list(v) for v in e.polytope_notes]),
        "minkowski": e.minkowski_flag,
        "degree": e.degree,
        "index": e.index,
        "rho": e.rho,
    }
    return out


def entry_from_json_dict(data, location: str) -> CatalogEntry:
    if not isinstance(data, dict):
        raise ParseError(location, "entry must be a JSON object")
    if "id" not in data:
        raise ParseError(f"{location} field id", "missing")

    # data[key] (default when absent, None passing when optional) through
    # check, whose refusal is a ParseError at the field
    def field(key, check, default=None, optional=False):
        value = data.get(key, default)
        if optional and value is None:
            return None
        try:
            return check(value, key)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{location} field {key}", str(exc)) from exc

    try:
        laurent = LaurentPoly.from_json_dict(data["laurent"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{location} field laurent", str(exc)) from exc
    if data.get("factors") is not None:
        try:
            laurent = factored(laurent, [
                (LaurentPoly.from_json_dict(item["laurent"]), item["power"])
                for item in data["factors"]])
        except KeyError as exc:
            raise ParseError(f"{location} field factors",
                             f"a factor is missing {exc}") from exc
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{location} field factors", str(exc)) from exc
    return CatalogEntry(
        id=field("id", _str),
        description=str(data.get("description", "")),
        laurent=laurent,
        generator=(None if data.get("generator") is None else
                   generator_from_json(data["generator"],
                                       f"{location} field generator")),
        expected_series_prefix=field(
            "expected_series_prefix",
            lambda x, _: PowerSeries.from_json_dict(x), optional=True),
        polytope_notes=field("polytope_notes", _int_lists, optional=True),
        minkowski_flag=field("minkowski", _bool, False),
        degree=field("degree", _int, optional=True),
        index=field("index", _int, optional=True),
        rho=field("rho", _int, optional=True),
    )


def bundled_path() -> Path:
    override = os.environ.get("TLG_CATALOG")
    if override:
        return Path(override)
    return Path(__file__).parent / "data" / "catalog.json"


def load(path=None) -> List[CatalogEntry]:
    path = bundled_path() if path is None else Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ParseError(str(path), "top level must be a JSON array")
    entries = []
    seen = set()
    for ix, item in enumerate(raw):
        loc = f"{path} entry {ix}"
        entry = entry_from_json_dict(item, loc)
        if entry.id in seen:
            raise ParseError(loc, f"duplicate id {entry.id!r}")
        seen.add(entry.id)
        entries.append(entry)
    return entries


def save(entries: Sequence[CatalogEntry], path) -> None:
    data = [entry_to_json_dict(e) for e in entries]
    Path(path).write_text(json.dumps(data, indent=1) + "\n")


class EntryReport(NamedTuple):
    id: str
    anchored: str
    passed: bool
    period_ok: Optional[bool] = None
    compared_order: Optional[int] = None
    first_mismatch: Optional[int] = None
    reflexive: Optional[bool] = None
    degree_ok: Optional[bool] = None
    polytope_ok: Optional[bool] = None
    minkowski_ok: Optional[bool] = None
    messages: Tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return self._asdict() | {"messages": list(self.messages)}


def verify_entry(entry: CatalogEntry, order: int) -> EntryReport:
    """Period, polytope and decomposition checks for one entry."""
    if order < 2:
        raise ValueError("verification order must be at least 2")
    messages: List[str] = []
    period = phi(entry.laurent, order)
    target = entry.generator_series(order)
    compared = order
    if target is not None:
        messages.extend(target.warnings)
    else:
        stored = entry.expected_series_prefix
        if stored is None:
            messages.append("no generator and no stored series prefix")
        else:
            compared = min(order, stored.order)
            if compared < order:
                messages.append(
                    f"stored prefix has only {stored.order} coefficients")
            target = stored.truncate(compared)

    period_ok: Optional[bool] = None
    first_mismatch = None
    if target is not None:
        i = first_mismatch = period.first_mismatch(target)
        period_ok = i is None
        if not period_ok:
            messages.append(
                f"period coefficient {i}: expected {target.coeffs[i]}, "
                f"found {period.coeffs[i]}")

    delta = newton_polytope(entry.laurent)
    try:
        reflexive = delta.dim == delta.ambient_dim and is_reflexive(delta)
    except OriginNotInterior as exc:
        reflexive = False
        messages.append(f"Newton polytope is not reflexive: {exc}")
    degree_ok: Optional[bool] = None
    polytope_ok: Optional[bool] = None
    if reflexive:
        nabla = dual(delta)
        if entry.degree is not None:
            volume = normalized_volume(nabla)
            degree_ok = volume == entry.degree
            if not degree_ok:
                messages.append(
                    f"degree {entry.degree} but dual volume {volume}")
        if entry.polytope_notes is not None:
            expected = {tuple(v) for v in entry.polytope_notes}
            polytope_ok = {tuple(v) for v in nabla.vertices} == expected
            if not polytope_ok:
                messages.append("dual vertex set differs from the note")
    elif entry.polytope_notes is not None:
        polytope_ok = False
        messages.append("polytope note present but Newton polytope "
                        "is not reflexive")

    minkowski_ok: Optional[bool] = None
    if entry.minkowski_flag and not (reflexive and delta.ambient_dim == 3):
        minkowski_ok = False
        messages.append("Minkowski flag needs a reflexive Newton 3-polytope")
    elif entry.minkowski_flag:
        minkowski_ok = check_minkowski(entry.laurent) is not None
        if not minkowski_ok:
            messages.append("no facet decomposition certificate found")

    passed = all(x is not False for x in
                 (period_ok, degree_ok, polytope_ok, minkowski_ok)) \
        and period_ok is not None
    return EntryReport(
        id=entry.id, anchored=entry.anchored, passed=passed,
        period_ok=period_ok, compared_order=compared,
        first_mismatch=first_mismatch, reflexive=reflexive,
        degree_ok=degree_ok, polytope_ok=polytope_ok,
        minkowski_ok=minkowski_ok, messages=tuple(messages))


class CatalogSummary(NamedTuple):
    reports: Tuple[EntryReport, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def failed_ids(self) -> Tuple[str, ...]:
        return tuple(r.id for r in self.reports if not r.passed)

    def to_json_dict(self) -> dict:
        return {"passed": self.all_passed,
                "failed": list(self.failed_ids),
                "reports": [r.to_json_dict() for r in self.reports]}


def verify_all(entries: Sequence[CatalogEntry], order: int,
               jobs: int = 1) -> CatalogSummary:
    """Reports for every entry, ordered by id regardless of worker count."""
    ordered = sorted(entries, key=lambda e: e.id)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(partial(verify_entry, order=order), ordered))
    else:
        reports = [verify_entry(e, order) for e in ordered]
    return CatalogSummary(tuple(reports))
