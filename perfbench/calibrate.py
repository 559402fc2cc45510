"""Work rate corrected for the speed the host runs at, measured beside it.

On a shared host, timed runs alternate between fast and slow spells that
last from a fraction of a second to tens of seconds.  On a 2-vCPU 2.0 GHz
Xeon VM the same simulation took up to 2.2x longer in a slow spell.  Host
time alone then varies more between runs than the changes the benchmark
must resolve.

So a fixed reference kernel is timed between ops, at least every
``CALIBRATE_EVERY_S`` of op time.  It is interpreter work shaped like the
simulator's: small objects on a heap, a few thousand small records,
string-keyed dict updates, and a walk over a small hot set of records.  (A
walk over all the records in a scattered order slowed down more than the
simulator in slow spells, and so over-corrected.)  The host seconds of the
ops in between are scaled by ``REF_NOMINAL_S`` over the mean kernel time on
either side.  That expresses them as seconds on a host that runs the kernel
in ``REF_NOMINAL_S``.  Rates are medians of these calibrated times: per
input when the kernel can run after every op, over chunks of ops when ops
are too short for that.  The kernel is part of the benchmark and identical on
every commit measured, so a change to the simulator moves the rate while a
change in host speed mostly does not.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

REF_NOMINAL_S = 5.0e-3      # kernel time the reported rates are scaled to
REF_ITEMS = 1500
REF_RECORDS = 6000
REF_HOT = 40
CALIBRATE_EVERY_S = 0.1
CHUNK_S = 1.0


class _Entry:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value

    def __lt__(self, other: "_Entry") -> bool:
        return self.key < other.key


class _Record:
    __slots__ = ("index", "name", "weight", "next")

    def __init__(self, index: int):
        self.index = index
        self.name = f"host[{index % REF_HOT}]"
        self.weight = index * 3
        # an index, not a reference, so the records hold no garbage cycles;
        # from record 0 the walk cycles through the REF_HOT first records
        self.next = (21 * index + 1) % REF_HOT


def _kernel() -> None:
    heap: list[_Entry] = []
    table: dict[str, int] = {}
    for i in range(REF_ITEMS):
        heapq.heappush(heap, _Entry((i * 7919) % 1009, i))
        name = f"host[{i % 40}]"
        table[name] = table.get(name, 0) + 1
    while heap:
        heapq.heappop(heap)

    records = [_Record(i) for i in range(REF_RECORDS)]
    record, total = records[0], 0
    for _ in range(REF_RECORDS):
        total += record.index
        record = records[record.next]
    for record in records:
        table[record.name] = table.get(record.name, 0) + record.weight


def reference_seconds() -> float:
    """Host seconds for one run of the fixed reference kernel.

    The collector is paused meanwhile: the garbage of the op just finished
    is collected in the timed ops, as without the kernel, and not in it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def calibrated_seconds(seconds: float, ref_before: float, ref_after: float) -> float:
    """*seconds* of host time rescaled to a host that runs the kernel in
    ``REF_NOMINAL_S``, judged by the kernel times on either side."""
    return seconds * REF_NOMINAL_S / ((ref_before + ref_after) / 2)


class ChunkRate:
    """Items per calibrated second over ops too short to time the kernel
    after each: the median rate over chunks of at least ``CHUNK_S``
    calibrated seconds."""

    def __init__(self):
        reference_seconds()                     # warm the kernel up
        self._ref = reference_seconds()
        self._group = [0, 0.0]                  # items, host s
        self._chunk = [0, 0.0]                  # items, calibrated s
        self.chunk_rates: list[float] = []

    def add(self, items: int, seconds: float) -> None:
        group = self._group
        group[0] += items
        group[1] += seconds
        if group[1] < CALIBRATE_EVERY_S:
            return
        ref = reference_seconds()
        chunk = self._chunk
        chunk[0] += group[0]
        chunk[1] += calibrated_seconds(group[1], self._ref, ref)
        self._ref = ref
        self._group = [0, 0.0]
        if chunk[1] >= CHUNK_S:
            self.chunk_rates.append(chunk[0] / chunk[1])
            self._chunk = [0, 0.0]

    def value(self) -> float:
        """Median chunk rate; a run too short to close a chunk reports its
        calibrated ops so far as one chunk."""
        if self.chunk_rates:
            return statistics.median(self.chunk_rates)
        items = self._chunk[0] + self._group[0]
        seconds = self._chunk[1] + calibrated_seconds(self._group[1], self._ref, self._ref)
        return items / seconds


class CycleRate:
    """Items per calibrated second over ops that cycle through ``cycle``
    fixed inputs: the items of one cycle over the sum of each input's
    median calibrated op time.  The kernel runs after every op."""

    def __init__(self, cycle: int):
        reference_seconds()                     # warm the kernel up
        self._ref = reference_seconds()
        self._items = [0] * cycle
        self._seconds: list[list[float]] = [[] for _ in range(cycle)]
        self._ops = 0

    def add(self, items: int, seconds: float) -> None:
        ref = reference_seconds()
        which = self._ops % len(self._items)
        self._items[which] = items
        self._seconds[which].append(calibrated_seconds(seconds, self._ref, ref))
        self._ref = ref
        self._ops += 1

    def value(self) -> float:
        """Needs at least one op on every input."""
        return sum(self._items) / sum(statistics.median(s) for s in self._seconds)
