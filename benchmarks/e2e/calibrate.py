"""How fast the machine is right now, measured with a fixed piece of work.

The benchmark runs on a few cores of a shared host.  A neighbour on the
same physical core makes the interpreter 1.3 to 2 times slower for 10 to
60 seconds at a stretch (measured: the README has the series), which is as
long as a whole run, so neither a longer run nor a median removes it: ten
runs of identical code spread 15-30% in every time metric.

So every timed section is accompanied by a probe — a fixed amount of the
kind of work the program does (integer arithmetic, tuples, dicts, sorting)
— and its CPU-bound time metrics are divided by how much slower than the
reference the probe ran.  What is reported is the time the section would
take on a machine on which the probe takes its reference time; the
unscaled values and the factor itself are kept in ``out/`` next to the
scaled ones.

How a neighbour slows a thread down depends on how the thread runs, so
there are two probes.  One thread that computes without pause (the four
single-client workloads, and every set-up) is bracketed by the same:
``Bracket``.  Threads that wake, compute for milliseconds and sleep in the
market again (``serve_*``) are served ahead of a busy neighbour and slow
down less, and at other times; they are sampled, while they run, by a
thread that wakes and computes as they do: ``Sampler``.  Each was checked
against the other on the workloads: the bracket follows a serve
repetition's CPU time with a correlation of 0.26, the sampler with 0.89.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time

#: Seconds the bracket's probe takes, and CPU seconds one burst of the
#: sampler takes, on the reference machine: the box the baseline was
#: measured on (2 cores of a Xeon at 2.1 GHz, Python 3.11), undisturbed.
#: They are units, not tuning knobs: changing one rescales time metrics.
REFERENCE_S = 0.012
BURST_REFERENCE_S = 0.0009

_ROWS = [((i * 2654435761) % 1000003 / 1000003.0, i, str(i)) for i in range(24000)]
_BURST_ROWS = _ROWS[:1500]


def _work(rows: list, loops: int) -> int:
    total = 0
    for i in range(loops):
        total += i * i % 7
    groups: dict[int, list] = {}
    for value, key, text in rows:
        groups.setdefault(key % 97, []).append((value, text))
    smallest = [sorted(group)[:3] for group in groups.values()]
    kept = [(value * 2.0, key + 1, text) for value, key, text in rows if key % 3]
    return total + len(smallest) + len(kept)


def probe() -> float:
    """Seconds the fixed work takes now.  The collector is held off so the
    probe costs the same whatever the size of the program's heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work(_ROWS, 150000)
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class Bracket:
    """The slowdown of a section that computes without pause: the probe
    before it and the probe after it, against the reference."""

    def start(self) -> None:
        self.lead = probe()

    def stop(self) -> float:
        return (self.lead + probe()) / (2.0 * REFERENCE_S)


class Sampler:
    """The slowdown of a section whose threads mostly sleep: a thread that
    wakes every 50 ms while it runs, computes a millisecond's burst and
    reads what CPU time that took (2% of one core)."""

    PERIOD_S = 0.05

    def start(self) -> None:
        self.bursts: list[float] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample)
        self._thread.start()

    def _burst(self) -> None:
        started = time.thread_time()
        _work(_BURST_ROWS, 9000)
        self.bursts.append(time.thread_time() - started)

    def _sample(self) -> None:
        while not self._done.wait(self.PERIOD_S):
            self._burst()

    def stop(self) -> float:
        self._done.set()
        self._thread.join()
        if not self.bursts:  # a section shorter than one period
            self._burst()
        return statistics.mean(self.bursts) / BURST_REFERENCE_S
