"""Writing catalog entries in the JSON format `tlg.catalog` reads.

`save` writes a list of entries as `catalog.load` reads them back, each
entry as `entry_to_json_dict` gives it; a product model keeps its factors.
Only the tools that write catalog data use this module, so `import
tlg.cli` does not compile it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence

from .catalog import CatalogEntry, Generator
from .series import GrassSpec, ToricCurveClassData, WciSpec


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


def save(entries: Sequence[CatalogEntry], path) -> None:
    """Write the entries to path, one JSON array of entry objects."""
    data = [entry_to_json_dict(e) for e in entries]
    Path(path).write_text(json.dumps(data, indent=1) + "\n")
