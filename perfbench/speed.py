"""A clock that reads wall time at a fixed host speed.

The host's processor speed drifts with the load of other tenants: the
same pure-Python loop takes anywhere from about 1x to 2x its fastest
time, in regimes that last from under a second to minutes. Wall time
alone then measures the host as much as the program.

SpeedClock removes most of that drift. Every INTERVAL_S of wall time an
interval timer interrupts the program between two bytecodes and runs a
short, fixed probe of pure-Python work (see _work). The clock then
advances by the wall time since the previous probe, scaled by
PROBE_REFERENCE_S over the median of the last three probe times, and
not at all during the probes. The median keeps one probe hit by an
interrupt from skewing its interval. A phase that took 120 ms while
probes took twice PROBE_REFERENCE_S reads 60 ms. So a reading is the
wall time the host would take at the speed where a probe takes
PROBE_REFERENCE_S.
"""

from __future__ import annotations

import difflib
import gc
import hashlib
import json
import signal
import statistics
import textwrap
import time
from collections import deque
from fractions import Fraction

perf = time.perf_counter

INTERVAL_S = 0.1  # wall time between probes
PROBE_REFERENCE_S = 0.0025  # fixed scale: a reading is wall time when a probe takes this long


def probe() -> float:
    """Wall seconds of a fixed piece of work, run once to warm the caches
    and timed the second time, with the cyclic garbage collector off so
    that the program's heap does not add a collection to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = perf()
        _work()
        return perf() - start
    finally:
        if enabled:
            gc.enable()


_LINES = [f"line {i} of record {'abc' * (i % 5)}" for i in range(40)]
_EDITED = _LINES[::2] + [f"changed {i}" for i in range(10)]


def _work():
    """Dict, string, hashing and JSON work like the program's, then a
    spread of pure-Python library code (difflib, fractions, textwrap, the
    JSON encoder's Python path). The spread has a large code footprint,
    as the program has; a probe without it slows less than the program
    when the host slows."""
    table = {}
    for i in range(120):
        key = f"reading-{i:04d}"
        table[key] = {"value": i * 0.5, "digest": hashlib.sha256(key.encode()).hexdigest()}
    text = json.dumps(table, sort_keys=True)
    total = 0
    for key, entry in sorted(table.items()):
        total += len(key) + int(entry["value"]) + (entry["digest"] in text)
    for _ in range(2):
        difflib.SequenceMatcher(None, _LINES, _EDITED).ratio()
        sum((Fraction(i, i + 3) for i in range(1, 25)), Fraction(0))
        textwrap.fill(" ".join(_LINES[:10]), width=37)
        json.dumps({f"k{i}": [i, str(i), {"v": i * 0.5}] for i in range(20)}, indent=1)
    return total


class SpeedClock:
    """Call it for the current reading. Use as a context manager: the
    probes run only while it is entered, from the main thread."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.value = 0.0  # reading at the end of the last probe
        self.since = perf()  # wall time at the end of the last probe
        self.factor = 1.0  # reference speed / host speed, from the last probes
        self.generation = 0
        self.probes: list[float] = []
        self.probing_s = 0.0  # wall time spent in probes
        self._recent = deque(maxlen=3)
        self._previous = None

    def __call__(self) -> float:
        while True:
            generation = self.generation
            reading = self.value + (perf() - self.since) * self.factor
            if generation == self.generation:  # no probe ran while reading
                return reading

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _probe(self, signum=None, frame=None):
        now = perf()
        value = self.value + (now - self.since) * self.factor
        seconds = probe()
        self.probes.append(seconds)
        self._recent.append(seconds)
        factor = PROBE_REFERENCE_S / statistics.median(self._recent)
        self.value, self.factor, self.since = value, factor, perf()
        self.probing_s += self.since - now
        self.generation += 1
        # one-shot and re-armed here, so a slow probe never overlaps the next
        signal.setitimer(signal.ITIMER_REAL, self.interval)
