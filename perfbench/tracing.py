"""Spans around the public functions of the ``tlg`` modules, from outside.

Nothing under ``src/`` is changed.  A layer is a function or method named by
its module; :meth:`Patches.replace` points every binding of the original
object, in every loaded ``tlg`` module and on the owning class, at a
wrapper.  That
covers names bound with ``from .x import y`` (``tlg.catalog.phi``,
``tlg.polytope.solve_rational``), aliases such as ``__rmul__ = __mul__``,
and calls a module makes to its own functions.

Spans are kept in memory as ``[layer, start, end, parent, item, outermost]``
and written out once, by the caller, when the benchmark ends.  Self time is
a span's duration minus the durations of its direct children; total time
counts only spans with no enclosing span of the same layer, so recursion
(``lattice_points`` calls itself) is not counted twice.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Layer name -> (module, attribute path).  The layer name is the module name
# plus the function; a method gets a short name (``laurent.mul``).
LAYERS: Dict[str, Tuple[str, str]] = {
    "cli.main": ("tlg.cli", "main"),
    "catalog.load": ("tlg.catalog", "load"),
    "catalog.verify_entry": ("tlg.catalog", "verify_entry"),
    "series.phi": ("tlg.series", "phi"),
    "series.iseries_wci": ("tlg.series", "iseries_wci"),
    "series.iseries_grassmannian": ("tlg.series", "iseries_grassmannian"),
    "series.iseries_toric": ("tlg.series", "iseries_toric"),
    "laurent.mul": ("tlg.laurent", "LaurentPoly.__mul__"),
    "laurent.filter_terms": ("tlg.laurent", "LaurentPoly.filter_terms"),
    "polytope.hull": ("tlg.polytope", "Polytope.__init__"),
    "polytope.dual": ("tlg.polytope", "dual"),
    "polytope.normalized_volume": ("tlg.polytope", "normalized_volume"),
    "polytope.is_reflexive": ("tlg.polytope", "is_reflexive"),
    "polytope.lattice_points": ("tlg.polytope", "lattice_points"),
    "builders.check_minkowski": ("tlg.builders", "check_minkowski"),
    "intlinalg.solve_rational": ("tlg.intlinalg", "solve_rational"),
    "intlinalg.snf_with_transforms": ("tlg.intlinalg", "snf_with_transforms"),
    "intlinalg.inverse_rational": ("tlg.intlinalg", "inverse_rational"),
    "intlinalg.det_bareiss": ("tlg.intlinalg", "det_bareiss"),
    "intlinalg.in_lattice": ("tlg.intlinalg", "in_lattice"),
    "picard_fuchs.fit": ("tlg.picard_fuchs", "fit"),
    "lattice.discriminant": ("tlg.lattice", "discriminant"),
}

# Every per-layer metric with its unit, in the order of BENCHMARK.json.
# ``calls``, ``self_s``, ``total_s`` and ``max_s`` come from the spans, the
# rest from counts taken in the wrappers.
PER_LAYER_METRICS: List[Tuple[str, str]] = [
    ("cli.main.self_s", "s"),
    ("catalog.load.total_s", "s"),
    ("catalog.verify_entry.calls", "count"),
    ("catalog.verify_entry.self_s", "s"),
    ("catalog.verify_entry.max_s", "s"),
    ("series.phi.calls", "count"),
    ("series.phi.self_s", "s"),
    ("series.phi.total_s", "s"),
    ("series.iseries_wci.total_s", "s"),
    ("series.iseries_grassmannian.total_s", "s"),
    ("series.iseries_toric.total_s", "s"),
    ("laurent.mul.calls", "count"),
    ("laurent.mul.self_s", "s"),
    ("laurent.mul.terms_out", "count"),
    ("laurent.filter_terms.self_s", "s"),
    ("laurent.filter_terms.kept_ratio", "ratio"),
    ("polytope.hull.calls", "count"),
    ("polytope.hull.self_s", "s"),
    ("polytope.hull.points_in", "count"),
    ("polytope.hull.distinct_ratio", "ratio"),
    ("polytope.dual.total_s", "s"),
    ("polytope.normalized_volume.total_s", "s"),
    ("polytope.is_reflexive.total_s", "s"),
    ("polytope.lattice_points.total_s", "s"),
    ("builders.check_minkowski.calls", "count"),
    ("builders.check_minkowski.self_s", "s"),
    ("builders.check_minkowski.total_s", "s"),
] + [(f"intlinalg.{fn}.{m}", unit)
     for fn in ("solve_rational", "snf_with_transforms", "inverse_rational",
                "det_bareiss", "in_lattice")
     for m, unit in (("calls", "count"), ("self_s", "s"))] + [
    ("picard_fuchs.fit.calls", "count"),
    ("picard_fuchs.fit.total_s", "s"),
    ("picard_fuchs.fit.found_ratio", "ratio"),
    ("lattice.discriminant.calls", "count"),
    ("lattice.discriminant.self_s", "s"),
    ("lattice.discriminant.total_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# Layers that must record calls on a workload (the "on" column of the
# layer table in README.md, restricted to what the seed really calls).  A
# layer that exists but records no call there is reported as an error: the
# usual cause is a binding the patch did not reach, which would make every
# number of that layer read zero.
EXPECTED_CALLS: Dict[str, Tuple[str, ...]] = {
    "catalog-o4": (
        "cli.main", "catalog.load", "catalog.verify_entry", "series.phi",
        "polytope.hull", "polytope.dual", "polytope.normalized_volume",
        "polytope.is_reflexive", "polytope.lattice_points",
        "builders.check_minkowski", "intlinalg.solve_rational",
        "intlinalg.snf_with_transforms", "intlinalg.inverse_rational",
        "intlinalg.in_lattice"),
    "periods-o12": (
        "cli.main", "catalog.load", "catalog.verify_entry", "series.phi",
        "laurent.mul", "laurent.filter_terms", "polytope.hull"),
    "closed-forms": (
        "catalog.load", "series.iseries_wci", "series.iseries_grassmannian",
        "series.iseries_toric", "intlinalg.solve_rational",
        "intlinalg.snf_with_transforms", "intlinalg.det_bareiss",
        "picard_fuchs.fit", "lattice.discriminant"),
}


class Recorder:
    """The item being worked on; set by the workload, read by the tracer."""

    def __init__(self) -> None:
        self.item: Optional[str] = None


def _resolve(module: str, path: str):
    """(owner, object) for a layer, or None when it is gone."""
    owner = sys.modules.get(module)
    if owner is None:
        return None
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if obj is None:
        return None
    return owner, obj


class Patches:
    """Replaced bindings, restored in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, original, wrapper, owner) -> None:
        """Point every binding of ``original`` in the ``tlg`` modules and on
        ``owner`` (when it is a class) at ``wrapper``."""
        spaces = [m for name, m in sorted(sys.modules.items())
                  if name == "tlg" or name.startswith("tlg.")]
        if isinstance(owner, type):
            spaces.append(owner)
        for space in spaces:
            for key, value in list(vars(space).items()):
                if value is original:
                    self.set(space, key, wrapper)

    def set(self, space, key: str, value) -> None:
        self._undo.append((space, key, vars(space)[key]))
        setattr(space, key, value)

    def undo(self) -> None:
        while self._undo:
            space, key, value = self._undo.pop()
            setattr(space, key, value)


class Tracer:
    """Records one span per call of every layer in :data:`LAYERS`."""

    def __init__(self, recorder: Recorder,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.recorder = recorder
        self.clock = clock
        self.spans: List[list] = []
        self.counters: Dict[str, int] = {}
        self.hull_inputs: set = set()
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._depth: Dict[str, int] = {}
        self._patches = Patches()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer, (module, path) in LAYERS.items():
            found = _resolve(module, path)
            if found is None:
                self.absent.append(layer)
                continue
            owner, original = found
            self._patches.replace(original, self._wrap(layer, original), owner)

    def uninstall(self) -> None:
        self._patches.undo()

    def _count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack, depth, clock = \
            self.spans, self._stack, self._depth, self.clock

        def traced(*args, **kwargs):
            if layer == "polytope.hull":
                # materialise the points (they may be a generator) to count
                # them and to see whether this exact set was hulled before
                polytope, points = args
                points = [tuple(p) for p in points]
                self._count("polytope.hull.points_in", len(points))
                self.hull_inputs.add(frozenset(points))
                args = (polytope, points)
            elif layer == "laurent.filter_terms":
                self._count("laurent.filter_terms.tested", len(args[0]))
            idx = len(spans)
            outer = depth.get(layer, 0) == 0
            depth[layer] = depth.get(layer, 0) + 1
            span = [layer, clock(), 0.0, stack[-1] if stack else -1,
                    self.recorder.item, outer]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                depth[layer] -= 1
            if layer == "laurent.mul" and result is not NotImplemented:
                self._count("laurent.mul.terms_out", len(result))
            elif layer == "laurent.filter_terms":
                self._count("laurent.filter_terms.kept", len(result))
            elif layer == "picard_fuchs.fit" and result is not None:
                self._count("picard_fuchs.fit.found", 1)
            return result
        return traced

    # -- aggregation ------------------------------------------------------

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        """calls, total_s, self_s and max_s of every layer over the spans
        recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        stats: Dict[str, Dict[str, float]] = {
            layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}
            for layer in LAYERS}
        for i, s in enumerate(spans):
            st = stats[s[0]]
            dur = s[2] - s[1]
            st["calls"] += 1
            st["self_s"] += dur - child_time[i]
            st["max_s"] = max(st["max_s"], dur)
            if s[5]:
                st["total_s"] += dur
        return stats

    def pass_metrics(self) -> Dict[str, float]:
        """Every per-layer metric of :data:`PER_LAYER_METRICS` that one
        traced pass defines (all but the load time and the overhead)."""
        stats = self.layer_stats()
        c = self.counters
        out: Dict[str, float] = {}
        for name, _unit in PER_LAYER_METRICS:
            layer, _, field = name.rpartition(".")
            if layer in stats and field in stats[layer]:
                out[name] = stats[layer][field]
        out["laurent.mul.terms_out"] = c.get("laurent.mul.terms_out", 0)
        tested = c.get("laurent.filter_terms.tested", 0)
        out["laurent.filter_terms.kept_ratio"] = (
            c.get("laurent.filter_terms.kept", 0) / tested if tested else 0.0)
        hulls = stats["polytope.hull"]["calls"]
        out["polytope.hull.points_in"] = c.get("polytope.hull.points_in", 0)
        out["polytope.hull.distinct_ratio"] = (
            len(self.hull_inputs) / hulls if hulls else 0.0)
        fits = stats["picard_fuchs.fit"]["calls"]
        out["picard_fuchs.fit.found_ratio"] = (
            c.get("picard_fuchs.fit.found", 0) / fits if fits else 0.0)
        return out


def missing_calls(workload: str, stats: Dict[str, Dict[str, float]],
                  absent: Sequence[str]) -> List[str]:
    """Errors for layers the workload must call that recorded no call.

    A layer that no longer exists in the program is not an error here; it
    is listed separately as absent."""
    return [f"{layer}.calls is 0 on {workload}; a binding was not patched "
            f"or the layer is no longer called"
            for layer in EXPECTED_CALLS[workload]
            if layer not in absent and stats[layer]["calls"] == 0]
