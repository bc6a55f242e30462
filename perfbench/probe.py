"""Host speed probe: a fixed pure-Python loop timed next to every measurement.

The host this benchmark was tuned on shares its cores with other
tenants and runs the program up to 1.8x slower in phases that last from
under a second to minutes, so one 55 s run can fall wholly into a slow
phase.  The probe slows down with the program: it does what the program
does most (float arithmetic, small-object allocation, attribute access,
dict stores, str conversion) and nothing the program defines, so a change
to the program cannot change it.

A time t measured while the probe took p seconds is reported as
t * PROBE_REF_S / p: the time the measurement would take on a host where
the probe takes PROBE_REF_S (its time on a quiet phase of the 2-vCPU VM
in record.json).  record.json, steadiness, gives the evidence.
"""

from __future__ import annotations

import gc
import time

PROBE_REF_S = 0.021


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


def _step(x: float, y: float) -> _Pair:
    return _Pair(x * 0.5 + y, y * 1.0001 - x)


def probe() -> float:
    """Seconds for the fixed loop, with the collector off so the heap left
    by the program does not change the loop's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table, x, y = {}, 0.1, 0.2
        for i in range(40_000):
            p = _step(x, y)
            x, y = p.b % 7.0, p.a % 5.0
            table[i & 1023] = (x, y)
            str(i)
            if table.get(i & 511) is None:
                x += 1.0
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """seconds at the reference host speed, given the probe times around it."""
    return seconds * PROBE_REF_S / ((before + after) / 2.0)
