"""Item costs that do not move with the host's speed.

On a shared VM the effective speed of a vCPU flips between full speed
and ~0.55x several times a second (another tenant on the sibling
hyper-thread), and none of that shows as steal time: two runs of the
same code minutes apart differ by 20-60 % in wall time and in CPU time
alike.  The flips hit a fixed piece of pure-Python work (the *probe*)
the same way they hit the compiler, so while an item runs a wall-clock
timer runs the probe every ``PERIOD`` seconds, and the item is reported
as its CPU time (less the probes') divided by the mean probe time
around and during it: a cost in *probe runs* (unit ``ref``).  A change
to the program moves the item's CPU time and leaves the probe alone; a
slower host moves both.

Usage::

    meter = Meter(calibrate=True)
    with meter.measure(item):
        ...                       # the item's work, in or out of process
    meter.settle()                # fills item.cost for every measured item

Children run on the same CPU as the probe (``pin_to_one_cpu``); the
timer interrupts the parent's ``wait4`` to sample while a child runs.
"""

from __future__ import annotations

import gc
import os
import resource
import signal
from contextlib import contextmanager
from time import perf_counter, process_time
from typing import Iterator, List, Tuple

#: Wall seconds between probes while an item runs.
PERIOD = 0.01


class _Node:
    __slots__ = ("op", "kids")

    def __init__(self, op: int, kids: list) -> None:
        self.op = op
        self.kids = kids


def probe(n: int = 400) -> int:
    """Fixed interpreter-bound work (~0.3 ms on a 2.1 GHz Xeon vCPU).

    Object construction, attribute reads, tuple keys into a dict, list
    sums and ``str`` conversion: the operations the optimizer's passes
    spend their time on.
    """
    table: dict = {}
    acc = 0
    for i in range(n):
        node = _Node(i % 7, [i, i + 1, i + 2])
        key = (node.op, i & 63)
        table[key] = table.get(key, 0) + len(node.kids)
        acc += sum(node.kids) % 11
        acc += len(str(i))
    return acc + len(table)


def cpu_clock() -> float:
    """CPU seconds of this process plus every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, the probe's CPU."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, allowed[:1])
    except (AttributeError, OSError):
        pass


class Meter:
    """Wall and CPU time of items, and their cost in probe runs."""

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        #: CPU seconds of every probe, in the order they ran.
        self.probes: List[float] = []
        #: CPU seconds all probes took; no item is charged for them.
        self.probe_cpu = 0.0
        #: (item, CPU seconds, first probe, end probe) per measured segment.
        self.segments: List[Tuple[object, float, int, int]] = []

    def _probe(self) -> None:
        # A collection inside the probe would scan whatever heap the
        # program has built and charge it to the probe.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = process_time()
            probe()
            spent = process_time() - start
        finally:
            if enabled:
                gc.enable()
        self.probes.append(spent)
        self.probe_cpu += spent

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    @contextmanager
    def measure(self, item) -> Iterator[None]:
        """Add the block's wall and CPU seconds to ``item``.

        An item may be measured in several segments (a traced cell and,
        later, its share of the cache sweep); the costs add up.
        """
        if not self.calibrate:
            wall, cpu = perf_counter(), cpu_clock()
            try:
                yield
            finally:
                item.seconds += perf_counter() - wall
                item.cpu += cpu_clock() - cpu
            return
        self._probe()
        first = len(self.probes) - 1
        probed = self.probe_cpu
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        wall, cpu = perf_counter(), cpu_clock()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            item.seconds += perf_counter() - wall
            spent = cpu_clock() - cpu - (self.probe_cpu - probed)
            item.cpu += spent
            self._probe()
            self.segments.append((item, spent, first, len(self.probes)))

    def settle(self) -> None:
        """Give each measured item its cost: CPU time over the mean probe time."""
        for item, spent, first, end in self.segments:
            around = self.probes[first:end]
            item.cost += spent / (sum(around) / len(around))
        self.segments = []
