"""Time one set-up of a workload in a fresh interpreter; print reference
seconds (see speedclock.py).

    python3 perfbench/setup_probe.py <workload> <seed>

run.py starts several of these: ``import tlg`` can be timed only once per
interpreter, and the set-up time must include it.  The modules the clock
itself needs (``fractions``, ``signal``) are imported before it starts.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from speedclock import SpeedClock  # noqa: E402

# A set-up takes about 0.1 s: sample the machine's speed ten times in it,
# not once (median-of-5 spread over eight groups: 0.02-0.08 at 0.01 s,
# 0.05-0.16 at the default 0.1 s).
PERIOD_S = 0.01

if __name__ == "__main__":
    with SpeedClock(PERIOD_S) as clock:
        workloads.setup(sys.argv[1], int(sys.argv[2]))
        print(repr(clock.now()))
