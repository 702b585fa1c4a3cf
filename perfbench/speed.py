"""Core-speed sampling, to take a shared host's speed changes out of timings.

On a shared host the same code can run up to twice as slow from one second
to the next, as other tenants load the physical core, and a multi-second
command averages over those changes differently on every run.  So each
measured child runs a ``Sampler`` thread beside the program (``child.py``):
every ``PERIOD_S`` it runs ``speed_loop``, a fixed pure-Python loop, and
records how long the loop took.  The child is pinned to one core and the
loop holds the GIL while it runs, so the loop and the program take turns on
the same core, and the loop's time tracks that core's speed at that moment.

``reference_seconds`` turns a wall-time interval into the time it would have
taken at the reference speed, at which ``speed_loop`` takes ``REFERENCE_S``:
each stretch between two samples is scaled by ``REFERENCE_S`` over the
loop's time there.  The loop never touches the program, so a change that
makes the program faster or slower moves the scaled time just as it moves
the wall time.  The sampler costs the program about 3% of its time, the same
on every commit.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD_S = 0.01  # sleep between samples
REFERENCE_S = 160e-6  # speed_loop's time at the reference speed
SMOOTHING = 5  # a sample's loop time is the median of this many neighbours

_KEYS = tuple(f"key{i}" for i in range(384))
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_MARKED = frozenset(range(0, 1 << 12, 3))


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value):
        self.value = value
        self.next = self


def _ring(size: int) -> _Node:
    nodes = [_Node((i * 2654435761) & 0xFFFF) for i in range(size)]
    for node, after in zip(nodes, nodes[1:] + nodes[:1]):
        node.next = after
    return nodes[0]


_RING = _ring(97)


def _add(a: int, b: int) -> int:
    return a + b


def speed_loop() -> int:
    """Dict and set lookups, attribute loads and calls; allocates no container,
    so it never triggers the program's garbage collector."""
    acc, node = 0, _RING
    for key in _KEYS:
        acc = _add(acc, _TABLE[key])
        if acc & 0xFFF in _MARKED:
            acc += 1
        node = node.next
        acc ^= node.value
    return acc


def pinned_core() -> int:
    """The core every measured child runs on: the last one this process may use."""
    return max(os.sched_getaffinity(0))


class Sampler(threading.Thread):
    """Times ``speed_loop`` every ``PERIOD_S`` until ``stop`` is called."""

    def __init__(self):
        super().__init__(name="speed-sampler", daemon=True)
        self.samples: list[tuple[float, float]] = []  # (start, loop seconds)
        self._stop_event = threading.Event()

    def run(self):
        clock, samples = time.perf_counter, self.samples
        while not self._stop_event.wait(PERIOD_S):
            started = clock()
            speed_loop()
            samples.append((started, clock() - started))

    def stop(self):
        self._stop_event.set()
        self.join()


def reference_seconds(start: float, end: float, samples: list) -> float:
    """``end - start`` at the reference speed, from samples taken in between.

    Times are ``time.perf_counter`` values, which are the same clock in
    every process on Linux.  Each loop time is replaced by the median of its
    ``SMOOTHING`` neighbours, which drops a sample the OS interrupted.  Any
    stretch before the first or after the last sample is scaled like its
    nearest sample.  Without samples the interval is returned unscaled.
    """
    inside = [(t, loop) for t, loop in samples if start <= t <= end]
    if not inside:
        return end - start
    half = SMOOTHING // 2
    loops = [loop for _, loop in inside]
    smooth = [statistics.median(loops[max(0, i - half):i + half + 1])
              for i in range(len(loops))]
    total, previous = 0.0, start
    for (t, _), loop in zip(inside, smooth):
        total += (t - previous) * REFERENCE_S / loop
        previous = t
    return total + (end - previous) * REFERENCE_S / smooth[-1]
