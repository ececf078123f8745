"""Self-tests of the benchmark: its checker, its tracer and its exit code.

    python3 -m pytest -q perfbench/selftest.py

Each test uses a few cheap items, so the file runs in seconds.
"""

import copy
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _catalog_inputs(*ids):
    argv = ("catalog", "verify", "--order", "4", "--output", "json")
    for i in ids:
        argv += ("--id", i)
    return workloads.CatalogInputs("catalog-o4", 4, ids, argv)


def _closed_form_inputs(*keys):
    workloads.import_program()
    import tlg.catalog
    full = workloads.build_inputs("closed-forms", 0, tlg.catalog.load())
    return workloads.ClosedFormInputs(
        "closed-forms", [(k, run) for k, run in full.items if k in keys])


def test_seed_values_match_the_reference():
    reference = workloads.load_reference()
    for inputs in (_catalog_inputs("1-17", "1-13"),
                   _closed_form_inputs("series:1-1", "fit:1-1",
                                       "discriminant:M_1")):
        result = workloads.run_pass(inputs, tracing.Recorder())
        assert workloads.failed_items(inputs, result, reference) == {}


def test_corrupted_catalog_reference_is_a_failed_item():
    reference = copy.deepcopy(workloads.load_reference())
    reference["catalog-o4"]["1-17"]["period"][2] += 1
    reference["catalog-o4"]["1-13"]["volume"] += 1
    inputs = _catalog_inputs("1-17", "1-13", "1-16")
    result = workloads.run_pass(inputs, tracing.Recorder())
    failed = workloads.failed_items(inputs, result, reference)
    assert sorted(failed) == ["1-13", "1-17"]
    assert len(failed) / len(inputs.ids) > 0


def test_corrupted_closed_form_reference_is_a_failed_item():
    reference = copy.deepcopy(workloads.load_reference())
    closed = reference["closed-forms"]
    closed["series:1-1"][3] += 1
    closed["discriminant:M_1"]["form_values"][0] = "1/3"
    inputs = _closed_form_inputs("series:1-1", "fit:1-1", "discriminant:M_1")
    result = workloads.run_pass(inputs, tracing.Recorder())
    failed = workloads.failed_items(inputs, result, reference)
    assert sorted(failed) == ["discriminant:M_1", "series:1-1"]


def test_item_that_raises_is_a_failed_item():
    def broken():
        raise ZeroDivisionError("boom")
    inputs = workloads.ClosedFormInputs("closed-forms", [("series:1-1", broken)])
    result = workloads.run_pass(inputs, tracing.Recorder())
    failed = workloads.failed_items(inputs, result,
                                    workloads.load_reference())
    assert failed == {"series:1-1": "ZeroDivisionError: boom"}


def _traced_catalog_pass(stale_phi: bool):
    import tlg.catalog
    import tlg.series
    recorder = tracing.Recorder()
    tracer = tracing.Tracer(recorder)
    original_phi = tlg.series.phi
    tracer.install()
    stale = tracing.Patches()
    try:
        if stale_phi:
            # what a `from .series import phi` bound after the patch (or
            # out of its reach) looks like: the catalog keeps the original
            stale.set(tlg.catalog, "phi", original_phi)
        workloads.run_pass(_catalog_inputs("1-17"), recorder)
    finally:
        stale.undo()
        tracer.uninstall()
    assert tlg.catalog.phi is original_phi
    return tracer


def test_layer_with_zero_calls_is_reported_as_an_error():
    tracer = _traced_catalog_pass(stale_phi=False)
    stats = tracer.layer_stats()
    assert stats["series.phi"]["calls"] == 1
    errors = tracing.missing_calls("catalog-o4", stats, tracer.absent)
    assert not any(e.startswith("series.phi.") for e in errors)

    tracer = _traced_catalog_pass(stale_phi=True)
    stats = tracer.layer_stats()
    assert stats["series.phi"]["calls"] == 0
    errors = tracing.missing_calls("catalog-o4", stats, tracer.absent)
    assert any(e.startswith("series.phi.calls is 0") for e in errors)


def test_absent_layer_is_not_an_error():
    stats = {layer: {"calls": 0} for layer in tracing.LAYERS}
    absent = list(tracing.EXPECTED_CALLS["closed-forms"])
    assert tracing.missing_calls("closed-forms", stats, absent) == []


def test_self_time_subtracts_children_and_total_skips_recursion():
    tracer = tracing.Tracer(tracing.Recorder())
    # layer, start, end, parent, item, outermost
    tracer.spans = [
        ["polytope.lattice_points", 0.0, 10.0, -1, None, True],
        ["polytope.lattice_points", 1.0, 4.0, 0, None, False],
        ["polytope.hull", 5.0, 7.0, 0, None, True],
        ["polytope.hull", 1.5, 2.0, 1, None, True],
    ]
    stats = tracer.layer_stats()
    points = stats["polytope.lattice_points"]
    assert points["calls"] == 2
    assert points["total_s"] == 10.0
    assert points["self_s"] == (10.0 - 3.0 - 2.0) + (3.0 - 0.5)
    assert stats["polytope.hull"]["self_s"] == 2.5


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-o4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_clock_is_monotonic_and_restores_the_signal_handler():
    import signal
    import time

    from speedclock import SpeedClock
    before = signal.getsignal(signal.SIGALRM)
    readings = []
    with SpeedClock() as clock:
        t_end = time.perf_counter() + 0.35
        while time.perf_counter() < t_end:
            readings.append(clock.now())
    assert len(clock.samples) >= 3  # one on entry, then a tick per 0.1 s
    assert all(b >= a for a, b in zip(readings, readings[1:]))
    assert readings[-1] > 0
    assert signal.getsignal(signal.SIGALRM) is before
