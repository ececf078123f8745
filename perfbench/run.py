"""Benchmark of ``tlg``: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload catalog-o4 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
every metric by name with its unit, and an ``info`` object with the
environment, the CLI output digests and the failed items.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import tracing
import workloads
from speedclock import REFERENCE_CHUNK_S, SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
TRACED_SETUPS = 3
OUT_DIR = HERE / "out"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("max_item_s", "s"),
              ("peak_rss_mib", "MiB"))

# The layer each workload was chosen for; info.focus_share is its share of
# the traced wall time.
FOCUS = {
    "catalog-o4": ("polytope.hull.self_s",),
    "periods-o12": ("laurent.mul.self_s", "laurent.filter_terms.self_s"),
    "closed-forms": ("series.iseries_grassmannian.total_s",
                     "lattice.discriminant.total_s"),
}


def _run_git(*args: str):
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, timeout=30, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    catalog = ROOT / "src" / "tlg" / "data" / "catalog.json"
    commit = dirty = None
    if (ROOT / ".git").exists():
        commit = _run_git("rev-parse", "HEAD")
        status = _run_git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "git_commit": commit,
        "git_dirty": dirty,
        "catalog_sha256": hashlib.sha256(catalog.read_bytes()).hexdigest(),
    }


def setup_times(workload: str, seed: int) -> List[float]:
    """Set-up time of fresh interpreters, one sample each, in reference
    seconds."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class Pass:
    traced: bool
    result: object                  # workloads.PassResult
    failed: Dict[str, str]          # item -> reason
    tracer: Optional[object]        # tracing.Tracer of a traced pass
    raw_wall_s: float
    slowdown: float                 # median calibration loop / reference

    def info(self) -> dict:
        return {"traced": self.traced, "wall_s": self.result.wall_s,
                "raw_wall_s": self.raw_wall_s, "slowdown": self.slowdown,
                "failed": len(self.failed),
                "cli_sha256": self.result.cli_sha256}


def measure(inputs, reference, seconds: float, trace: bool) -> List[Pass]:
    """Passes until the next one would end after ``seconds`` of wall time;
    with tracing, untraced and traced passes alternate and each kind runs
    at least once.  Times inside a pass are read from a SpeedClock."""
    recorder = tracing.Recorder()
    passes: List[Pass] = []
    last: Dict[bool, float] = {}
    kinds = 2 if trace else 1
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if len(passes) >= kinds and \
                time.perf_counter() - start + last[traced] > seconds:
            break
        gc.collect()
        tracer = None
        t0 = time.perf_counter()
        with SpeedClock() as clock:
            if traced:
                tracer = tracing.Tracer(recorder, clock.now)
                tracer.install()
            try:
                result = workloads.run_pass(inputs, recorder, clock.now)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        last[traced] = time.perf_counter() - t0
        passes.append(Pass(
            traced, result, workloads.failed_items(inputs, result, reference),
            tracer, last[traced],
            statistics.median(clock.samples) / REFERENCE_CHUNK_S))
    return passes


def traced_setups(workload: str, seed: int):
    """Tracers of in-process set-ups (catalog load and inputs; the imports
    are done by then)."""
    import tlg.catalog
    recorder = tracing.Recorder()
    recorder.item = "setup"
    out = []
    for _ in range(TRACED_SETUPS):
        with SpeedClock() as clock:
            tracer = tracing.Tracer(recorder, clock.now)
            tracer.install()
            try:
                workloads.build_inputs(workload, seed, tlg.catalog.load())
            finally:
                tracer.uninstall()
        out.append(tracer)
    return out


def end_to_end_metrics(passes: List[Pass], setup_samples) -> Dict[str, float]:
    plain = [p.result for p in passes if not p.traced]
    return {
        "wall_s": statistics.median(r.wall_s for r in plain),
        "setup_s": statistics.median(setup_samples),
        "max_item_s": statistics.median(max(r.item_s.values()) for r in plain),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(workload, passes: List[Pass], setups):
    """Lower medians (observed values; counts repeat exactly) over the
    traced passes, plus the set-up load time and the tracing overhead; the
    errors for layers that recorded no call."""
    traced = [p for p in passes if p.traced]
    per_pass = [p.tracer.pass_metrics() for p in traced]
    setup_load = [t.layer_stats()["catalog.load"] for t in setups]
    plain_wall = statistics.median(p.result.wall_s for p in passes
                                   if not p.traced)
    traced_wall = statistics.median(p.result.wall_s for p in traced)
    once = {"catalog.load.total_s":
            statistics.median_low(s["total_s"] for s in setup_load),
            "trace.overhead_frac": traced_wall / plain_wall - 1.0}
    metrics = {name: once[name] if name in once
               else statistics.median_low(m[name] for m in per_pass)
               for name, _unit in tracing.PER_LAYER_METRICS}
    errors = set()
    for p in traced:
        stats = p.tracer.layer_stats()
        stats["catalog.load"]["calls"] += setup_load[0]["calls"]
        errors.update(tracing.missing_calls(workload, stats, p.tracer.absent))
    focus = sum(metrics[name] for name in FOCUS[workload]) / traced_wall
    return metrics, sorted(errors), traced_wall, focus


def write_spans(path: Path, setups, passes: List[Pass]) -> None:
    phases = [("setup", t) for t in setups]
    phases += [(f"pass{i}", p.tracer) for i, p in enumerate(passes)
               if p.traced]
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "fields": ["layer", "start", "end", "parent", "item", "outermost"],
        "phases": [{"phase": name, "spans": t.spans} for name, t in phases],
    }
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tlg" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'tlg'}; run "
              "the benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    trace = bool(args.trace)
    setup_samples = [] if trace else setup_times(args.workload, args.seed)
    inputs = workloads.setup(args.workload, args.seed)
    import tlg
    if Path(tlg.__file__).resolve().parent != ROOT / "src" / "tlg":
        print(f"error: imported tlg from {tlg.__file__}, not from src/",
              file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    setups = traced_setups(args.workload, args.seed) if trace else []
    passes = measure(inputs, reference, args.seconds, trace)

    attempted = len(passes) * len(workloads.item_keys(inputs))
    failed = {key: reason for p in passes for key, reason in p.failed.items()}
    n_failed = sum(len(p.failed) for p in passes)
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": [p.info() for p in passes],
        "failed_frac": {"failed": n_failed, "attempted": attempted,
                        "value": n_failed / attempted},
        "failed_items": failed,
        "environment": environment(),
    }
    if trace:
        metrics, errors, traced_wall, focus = per_layer_metrics(
            args.workload, passes, setups)
        units = dict(tracing.PER_LAYER_METRICS)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(spans_path, setups, passes)
        info.update({"traced_wall_s": traced_wall,
                     "focus": list(FOCUS[args.workload]),
                     "focus_share": focus,
                     "trace_errors": errors,
                     "absent_layers": sorted({layer for p in passes if p.traced
                                              for layer in p.tracer.absent}),
                     "spans_file": str(spans_path.relative_to(ROOT))})
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
    else:
        metrics = end_to_end_metrics(passes, setup_samples)
        info["setup_s_samples"] = setup_samples
        units = dict(END_TO_END)

    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_frac {n_failed}/{attempted} ratio (items failed / "
          "items attempted)")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
