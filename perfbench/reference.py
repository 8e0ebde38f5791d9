"""A fixed, standard-library-only program that gauges the host's speed.

    python3 perfbench/reference.py

The benchmark's host shares its cores, and how fast a process runs drifts by
up to 2x over seconds to minutes.  The harness runs this program after every
CLI call of a run, for a set share of the call's time; the mean sample says
how fast the host ran processes like the CLI's during that run, and the
end-to-end times are scaled by ``NOMINAL_S / mean``.  Two runs on a fast and
a slow stretch of the same host then read alike, while a change to topocert,
which this program never imports, moves only the CLI times.

Like a CLI call it starts a fresh interpreter and imports the standard
modules topocert uses; its work resembles topocert's inner loops:
``Fraction`` arithmetic and comparison, tuple permutations and hashing of
frozensets.  A process started afresh tracked the CLI's speed better than
the same work timed inside the long-lived harness.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, permutations

# About the fastest sample on a 2-vCPU Intel Xeon virtual machine running
# CPython 3.11, so scaled times read about as that host's unloaded seconds.
NOMINAL_S = 0.1


def work() -> int:
    """The fixed work; returns a count so nothing can be skipped."""
    import argparse, dataclasses, json, typing  # noqa: E401,F401  (start-up cost)

    seen = set()
    for combo in combinations(range(1, 15), 4):
        vals = sorted(Fraction(a, b) for a, b in zip(combo, combo[1:] + combo[:1]))
        key = min(tuple(vals[i] for i in p) for p in permutations(range(4)))
        seen.add(frozenset(enumerate(key)))
    return len(seen)


def sample() -> float:
    """Wall time of one run of this program in a fresh interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(work())
