"""The three workloads: set-up, one timed pass, and the check of its values.

A pass returns, for every item (a catalog entry, an I-series, a fit or a
lattice), its time and its mathematical values in a canonical JSON form:
integers stay integers, other rationals become ``"p/q"`` strings.  The
check compares those values with ``reference.json``, never report bytes.

No ``tlg`` module is imported at module level: importing the program is
part of the timed set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from tracing import Patches, Recorder

WORKLOADS = ("catalog-o4", "periods-o12", "closed-forms")
REFERENCE = Path(__file__).resolve().parent / "reference.json"

ISERIES_ORDER = 24
FIT_SERIES_ORDER = 40
FIT_MAX_ORDER = 3
FIT_MAX_DEGREE = 4
LATTICES = tuple(f"M_{n}" for n in range(1, 11))


def canon(x):
    """JSON form of a mathematical value; equal values give equal forms."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 \
            else f"{x.numerator}/{x.denominator}"
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    raise TypeError(f"no canonical form for {type(x).__name__}")


@dataclass
class CatalogInputs:
    """``tlg catalog verify`` run in-process through ``tlg.cli.main``."""
    workload: str
    order: int
    ids: Tuple[str, ...]
    argv: Tuple[str, ...]


@dataclass
class ClosedFormInputs:
    """Closed forms computed without a period or a hull; ``items`` maps an
    item key to the call that computes its values."""
    workload: str
    items: List[Tuple[str, Callable[[], object]]]


@dataclass
class PassResult:
    wall_s: float
    item_s: Dict[str, float] = field(default_factory=dict)
    values: Dict[str, object] = field(default_factory=dict)
    problems: Dict[str, str] = field(default_factory=dict)
    cli_sha256: Optional[str] = None


def import_program():
    """Import the package through its command-line module, which imports
    every module a workload touches."""
    import tlg.cli  # noqa: F401
    import tlg.catalog
    return tlg.catalog


def setup(workload: str, seed: int):
    """Import the program, load the catalog and build the inputs.

    The seed fixes the order of the items where the program keeps it (the
    ``--id`` flags, the closed-form items); the set of items is fixed, so
    every seed does the same work.
    """
    catalog = import_program()
    return build_inputs(workload, seed, catalog.load())


def build_inputs(workload: str, seed: int, entries):
    rng = random.Random(seed)
    by_id = {e.id: e for e in entries}
    if workload == "catalog-o4":
        argv = ("catalog", "verify", "--order", "4", "--output", "json")
        return CatalogInputs(workload, 4, tuple(sorted(by_id)), argv)
    if workload == "periods-o12":
        ids = sorted(i for i, e in by_id.items()
                     if len(e.laurent.variables) <= 3)
        rng.shuffle(ids)
        argv = ("catalog", "verify", "--order", "12", "--output", "json")
        for i in ids:
            argv += ("--id", i)
        return CatalogInputs(workload, 12, tuple(ids), argv)
    if workload == "closed-forms":
        return ClosedFormInputs(workload, _closed_form_items(by_id, rng))
    raise ValueError(f"unknown workload {workload!r}")


def _closed_form_items(by_id, rng):
    # The calls look their functions up on the module each time, so that a
    # tracer installed after set-up sees them.
    import tlg.lattice
    import tlg.picard_fuchs

    def series(entry):
        return lambda: entry.generator_series(ISERIES_ORDER).coeffs

    def fitted(entry):
        def run():
            op = tlg.picard_fuchs.fit(entry.generator_series(FIT_SERIES_ORDER),
                                      FIT_MAX_ORDER, FIT_MAX_DEGREE)
            return None if op is None else op.to_json_dict()
        return run

    def disc(lattice):
        def run():
            d = tlg.lattice.discriminant(lattice)
            return {"group": d.group, "form_values": d.form_values}
        return run

    anchored = sorted(i for i, e in by_id.items() if e.generator is not None)
    items = [(f"series:{i}", series(by_id[i])) for i in anchored]
    items += [(f"fit:{i}", fitted(by_id[i])) for i in anchored
              if i.startswith("1-")]
    items += [(f"discriminant:{n}", disc(tlg.lattice.standard_lattice(n)))
              for n in LATTICES]
    rng.shuffle(items)
    return items


# -- one pass -------------------------------------------------------------

def _capture_catalog(patches: Patches, recorder: Recorder, result: PassResult,
                     clock: Callable[[], float]):
    """Time every ``verify_entry`` call and keep the period, dual vertices
    and volume it computes.  Only the names ``verify_entry`` and
    ``verify_all`` look up in ``tlg.catalog`` are wrapped, so a call made
    elsewhere (a dual inside another check) is not mistaken for them."""
    import tlg.catalog as cat

    def entry_wrapper(fn):
        def verify_entry(entry, order):
            recorder.item = entry.id
            result.values[entry.id] = {"period": None, "dual": None,
                                       "volume": None}
            t0 = clock()
            try:
                report = fn(entry, order)
            finally:
                result.item_s[entry.id] = clock() - t0
                recorder.item = None
            if not report.passed:
                result.problems[entry.id] = "; ".join(report.messages) \
                    or "did not pass"
            return report
        return verify_entry

    def keep(key, convert):
        def make(fn):
            def wrapper(*args, **kwargs):
                value = fn(*args, **kwargs)
                result.values[recorder.item][key] = convert(value)
                return value
            return wrapper
        return make

    for name, make in (
            ("verify_entry", entry_wrapper),
            ("phi", keep("period", lambda s: canon(s.coeffs))),
            ("dual", keep("dual", lambda p: sorted(canon(p.vertices)))),
            ("normalized_volume", keep("volume", canon))):
        patches.set(cat, name, make(getattr(cat, name)))


def run_pass(inputs, recorder: Recorder,
             clock: Callable[[], float] = time.perf_counter) -> PassResult:
    """One pass over every item; times are read from ``clock``."""
    if isinstance(inputs, CatalogInputs):
        return _catalog_pass(inputs, recorder, clock)
    return _closed_form_pass(inputs, recorder, clock)


def _catalog_pass(inputs: CatalogInputs, recorder: Recorder,
                  clock: Callable[[], float]) -> PassResult:
    import tlg.cli
    result = PassResult(wall_s=0.0)
    patches = Patches()
    _capture_catalog(patches, recorder, result, clock)
    out = io.StringIO()
    try:
        t0 = clock()
        with contextlib.redirect_stdout(out):
            code = tlg.cli.main(list(inputs.argv))
        result.wall_s = clock() - t0
    finally:
        patches.undo()
    text = out.getvalue()
    result.cli_sha256 = hashlib.sha256(text.encode()).hexdigest()
    try:
        reports = {r["id"]: r for r in json.loads(text)["reports"]}
    except (ValueError, KeyError, TypeError):
        reports = {}
    for i in inputs.ids:
        if i not in reports:
            result.problems.setdefault(
                i, f"no report (exit code {code})")
        elif code != 0 and reports[i]["passed"]:
            result.problems.setdefault(i, f"exit code {code}")
    return result


def _closed_form_pass(inputs: ClosedFormInputs, recorder: Recorder,
                      clock: Callable[[], float]) -> PassResult:
    result = PassResult(wall_s=0.0)
    t_start = clock()
    for key, compute in inputs.items:
        recorder.item = key
        t0 = clock()
        try:
            value = compute()
        except Exception as exc:  # an item that raises counts as failed
            result.problems[key] = f"{type(exc).__name__}: {exc}"
        else:
            result.values[key] = canon(value)
        finally:
            result.item_s[key] = clock() - t0
            recorder.item = None
    result.wall_s = clock() - t_start
    return result


def item_keys(inputs) -> Tuple[str, ...]:
    if isinstance(inputs, CatalogInputs):
        return inputs.ids
    return tuple(key for key, _ in inputs.items)


def failed_items(inputs, result: PassResult, reference: dict) -> Dict[str, str]:
    """Items that raised, did not pass, or whose values differ from the
    reference, with the reason."""
    ref = reference[inputs.workload]
    failed = dict(result.problems)
    for key in item_keys(inputs):
        if key in failed:
            continue
        if key not in result.values:
            failed[key] = "no value computed"
        elif key not in ref:
            failed[key] = "no reference value"
        elif result.values[key] != ref[key]:
            failed[key] = "value differs from the reference"
    return failed


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
