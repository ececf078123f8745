"""Write reference.json: the values one pass of each workload computes.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right (the values in
the repository were made at the commit that added the benchmark, where every
catalog entry passes).  Later commits are checked against these values; a
change that alters one is a failed item, not a new reference.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        inputs = workloads.setup(name, 0)
        result = workloads.run_pass(inputs, tracing.Recorder())
        if result.problems:
            print(f"error: {name}: {result.problems}", file=sys.stderr)
            return 1
        reference[name] = {key: result.values[key]
                           for key in sorted(workloads.item_keys(inputs))}
        print(f"{name}: {len(reference[name])} items, {result.wall_s:.1f} s")
    workloads.REFERENCE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
