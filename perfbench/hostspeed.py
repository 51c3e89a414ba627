"""A fixed reference computation that tracks the host's current speed.

The machines this benchmark runs on share their cores: the same operation
takes up to 1.75 times longer for tens of seconds at a time, and CPU time
slows down with wall time.  run.py and measure.py time this reference
between operations and scale each operation's time by
NOMINAL_S / (reference time around it).

The reference is benchmark code that no change to gridfreq touches.  Its
mix resembles the program's hot paths: a Python loop over floats with
math.sin (the line terms of the right-hand side), list building, and
small numpy linear algebra (the certificate search and the equilibrium).
It lasts about 0.2-0.4 s: shorter runs of it varied by 10 % back to back.
"""

from __future__ import annotations

import math
import multiprocessing
import time

import numpy as np

#: The reference's time on the machine the bounds were set on (2-CPU
#: Xeon VM, python 3.11, numpy 2.4) in its fast spells; it takes up to
#: twice as long in slow ones.  Scaled times read as seconds at that speed.
NOMINAL_S = 0.2

_XS = [0.001 * i for i in range(64)]
_SYM = np.array([[4.0, 1.0, 0.5, 0.2], [1.0, 3.0, 0.3, 0.1],
                 [0.5, 0.3, 2.0, 0.4], [0.2, 0.1, 0.4, 1.0]])


def reference() -> float:
    """Run the reference once; return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    xs = _XS
    for _ in range(12000):
        nxt = [x + 1e-4 * math.sin(x) for x in xs]
        for i in range(len(xs) - 1):
            acc += math.sin(nxt[i] - xs[i + 1])
        xs = nxt
    for _ in range(8000):
        acc += float(np.linalg.eigvalsh(_SYM + acc * 1e-12)[-1])
    if not math.isfinite(acc):
        raise ArithmeticError("reference computation went non-finite")
    return time.perf_counter() - start


def reference_on(cpus: int) -> float:
    """Mean time of the reference run at once in ``cpus`` processes (this
    one and cpus - 1 forked ones): the speed of as many CPUs as a pooled
    operation keeps busy."""
    if cpus < 2:
        return reference()
    with multiprocessing.get_context("fork").Pool(cpus - 1) as pool:
        others = pool.map_async(_reference, range(cpus - 1))
        own = reference()
        return (own + sum(others.get())) / cpus


def _reference(_):
    return reference()


def factors(refs) -> list:
    """Scale factor for the i-th timed interval, which lies between the
    reference runs refs[i] and refs[i + 1]."""
    return [NOMINAL_S / ((a + b) / 2.0) for a, b in zip(refs, refs[1:])]


def median_index(values) -> int:
    """Index of the lower median of values."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(values) - 1) // 2]
