"""Times at reference speed.

On a shared machine the CPU speed drifts by tens of percent within minutes,
on the same input.  Next to every timed op, outside its timed window and in
the same process, the benchmark times a fixed piece of pure-Python Fraction
arithmetic that does not use so32cr.  ``scaled`` multiplies each op time by
REF_SECONDS over the median reference time measured around it, so the
reported times are those of a machine that runs the reference in
REF_SECONDS: the program's own cost moves them, the machine's drift largely
does not.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_SECONDS = 0.002    # nominal time of reference_work()
REF_WINDOW = 5         # an op is scaled by the references within 5 places


def reference_work():
    x, y, total = Fraction(1, 3), Fraction(2, 7), Fraction(0)
    for i in range(150):
        total += x * y
        x += Fraction(1, i + 2)
    return total


def time_reference(repeats=1):
    """Median seconds of ``repeats`` runs of reference_work()."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(times, refs):
    """``times`` at reference speed; ``refs[i]`` was measured next to
    ``times[i]``."""
    out = []
    for i, t in enumerate(times):
        window = refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1]
        out.append(t * REF_SECONDS / statistics.median(window))
    return out
