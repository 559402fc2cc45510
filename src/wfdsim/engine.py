"""Deterministic discrete-event core.

A single :class:`Engine` owns the virtual clock and the event queue.  The
queue is a heap of ``[time, seq, action]`` entries, where ``seq`` is the
insertion sequence, unique per entry, so entries order by ``(time, seq)``
and never compare actions: events fire in non-decreasing time order, and
events scheduled for the same instant fire in insertion order.  The entry is
the event: :meth:`Engine.schedule`, the one scheduling method, returns it as
the cancellation handle, and cancelling or firing it sets its action slot to
``None``.  An event's id is its rank in firing order, so ids are dense and
strictly increasing; during its action it is :attr:`Engine.fired_count`.
A cancelled entry stays in the heap until it is popped, unless most of the
queue is cancelled: when :meth:`Engine.cancel` finds more than 100 entries
queued and more than half of them cancelled, it drops every cancelled one
and re-heaps the rest once, the rule asyncio applies to its timer heap.
Compaction cannot reorder events: the ``(time, seq)`` keys are unique, so
the order in which a heap pops them does not depend on its layout.

Randomness comes from :class:`Rng`, an xorshift64* generator.  Substreams for
independent actors are derived as ``seed XOR actor_index`` so that adding an
actor never perturbs the draws of the others.  :meth:`Rng.next_u64` is the
one definition of a draw.  :class:`LossDraws` is the medium's loss path: it
continues one stream's draws at a threshold fixed when it is built, and
makes a transmission's per-receiver loss draws from outcomes drawn ahead a
block at a time.  The xorshift64 step is linear over GF(2), so jump tables
place many lanes of one stream apart in one Python int, and a few big-int
operations step and judge them all.  Every operation is exact, so the
outcomes and their count are those of one :meth:`Rng.next_u64` per item,
bit for bit.

The same per-event budget sets the modules' second rule: code that runs per
event or per frame reads enum members through module constants bound once at
import (``ACK`` in :mod:`.medium`, ``GO_OPERATING`` in :mod:`.peer`), never
through the enum class, because on Python 3.10 and 3.11 ``EnumType`` defines
``__getattr__`` and each ``FrameKind.ACK`` read goes through it.
"""

from __future__ import annotations

from functools import cache
from heapq import heapify, heappop, heappush
from itertools import compress
from typing import Callable, Optional


# the queue length above which Engine.cancel may compact (module docstring)
_COMPACT_ABOVE = 100


class SimulationError(Exception):
    """A precondition of the simulation core was violated."""


class Engine:
    """Virtual clock plus ordered event queue."""

    def __init__(self):
        self.now: int = 0
        # heap of [fire_time, seq, action] entries; seq is the entry's
        # scheduled_count rank, unique, so ties in time never compare actions
        self._queue: list[list] = []
        self.scheduled_count = 0
        # also the id of the event whose action is running
        self.fired_count = 0
        self.cancelled_count = 0
        # cancelled entries still in the queue
        self._dead = 0
        self._stop_requested = False

    # -- scheduling ------------------------------------------------------

    def schedule(self, fire_time: int, action: Callable[[], None],
                 tag: str = "", target: str = "") -> list:
        """Enqueue *action* to run at *fire_time* (picoseconds) and return
        its queue entry, the handle :meth:`cancel` takes.

        *tag* names the event for code that wraps this method (the
        benchmark's tracer groups actions by the tag's prefix before
        ``":"``); the engine itself only quotes it in errors.  *target* is
        unused and accepted only because that tracer passes it positionally.
        Scheduling in the past is a logic bug and raises.
        """
        if fire_time < self.now:
            raise SimulationError(
                f"past event: fire_time {fire_time} < now {self.now} (tag={tag!r})")
        seq = self.scheduled_count
        self.scheduled_count = seq + 1
        entry = [fire_time, seq, action]
        heappush(self._queue, entry)
        return entry

    def cancel(self, entry: Optional[list]) -> bool:
        """Cancel a pending event.  Returns False for ``None`` and for an
        event that already fired or was already cancelled (idempotent).
        Compacts the queue when most of it is cancelled (module docstring)."""
        if entry is None or entry[2] is None:
            return False
        entry[2] = None
        self.cancelled_count += 1
        dead = self._dead + 1
        queue = self._queue
        if 2 * dead > len(queue) > _COMPACT_ABOVE:
            # mostly cancelled entries: drop them all, in place, since
            # run_until holds this list
            queue[:] = [e for e in queue if e[2] is not None]
            heapify(queue)
            dead = 0
        self._dead = dead
        return True

    # -- run loop --------------------------------------------------------

    def request_stop(self) -> None:
        """Stop the run loop after the event currently being processed."""
        self._stop_requested = True

    def run_until(self, stop: int) -> int:
        """Fire every event with fire_time <= stop, in order.

        Advances the clock to *stop* (even with an empty queue) and returns
        the number of events fired.
        """
        if stop < self.now:
            raise SimulationError(f"run_until into the past: {stop} < {self.now}")
        queue, pop = self._queue, heappop
        fired_before = self.fired_count
        self._stop_requested = False
        while queue and queue[0][0] <= stop:
            fire_time, _seq, action = entry = pop(queue)
            if action is None:  # cancelled
                self._dead -= 1
                continue
            # cleared before the action runs, so cancelling the running
            # event from inside its own action returns False
            entry[2] = None
            self.now = fire_time
            self.fired_count += 1
            action()
            if self._stop_requested:
                return self.fired_count - fired_before
        self.now = stop
        return self.fired_count - fired_before


# -- pseudo-randomness ----------------------------------------------------

_MASK64 = (1 << 64) - 1

# A loss-draw block runs _LANE_STEPS draws on each of its lanes; the first
# block of a LossDraws has _FIRST_LANES lanes, and each block that follows
# an exhausted one has twice as many, up to _MAX_LANES.
_LANE_STEPS = 128
_FIRST_LANES = 4
_MAX_LANES = 512


def _splitmix64(x: int) -> int:
    """One splitmix64 step, used to scramble seeds before use."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _xorshift(x: int, low: int) -> int:
    """One xorshift64 step (12, 25, 27) on every lane of *x*.  A lane is a
    64-bit state in the low half of a 128-bit slot, and *low* has exactly
    those halves set, so no shift carries bits from one lane into another;
    ``_xorshift(x, _MASK64)`` is :meth:`Rng.next_u64`'s step on one state."""
    x ^= (x >> 12) & low
    x ^= (x << 25) & low
    return x ^ ((x >> 27) & low)


def _pack(lanes: list[int]) -> int:
    """The 64-bit *lanes* in consecutive 128-bit slots, the first lowest."""
    return int.from_bytes(b"".join([x.to_bytes(16, "little") for x in lanes]),
                          "little")


@cache
def _jump_tables() -> list[list[int]]:
    """Eight tables of 256 states: table *k* maps a byte *b* to the state
    ``_LANE_STEPS`` xorshift64 steps after ``b << 8k``.  The step is linear
    over GF(2), so the jump of a state is the XOR of its bytes' entries.
    Built on the first lossy draw, not at import."""
    # the jump of each single bit: step the 64 unit states side by side
    columns = _pack([1 << bit for bit in range(64)])
    low = _pack([_MASK64] * 64)
    for _ in range(_LANE_STEPS):
        columns = _xorshift(columns, low)
    raw = columns.to_bytes(64 * 16, "little")
    columns = [int.from_bytes(raw[16 * bit:16 * bit + 8], "little")
               for bit in range(64)]
    tables = []
    for first in range(0, 64, 8):
        table = [0] * 256
        for b in range(1, 256):
            lowest = b & -b
            table[b] = table[b ^ lowest] ^ \
                columns[first + lowest.bit_length() - 1]
        tables.append(table)
    return tables


class Rng:
    """xorshift64* pseudo-random generator.

    The 64-bit state is the splitmix64 scramble of the seed (mapped to a
    fixed nonzero constant if the scramble yields zero).  Each call to
    :meth:`next_u64` applies the xorshift64 triplet (12, 25, 27) and returns
    the state multiplied by 0x2545F4914F6CDD1D.  Identical seeds therefore
    give identical draw sequences on every platform.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = _splitmix64(self.seed) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def random(self) -> float:
        """Float in [0, 1) built from the top 53 bits of one draw."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def bit(self) -> int:
        return self.next_u64() & 1


class LossDraws:
    """Keep-or-lose draws at one threshold, continuing *rng*'s stream.

    An item is kept iff its draw's top 53 bits, ``next_u64() >> 11``, are
    at least *lost_below*, fixed for the life of the object.  The draws are
    those of one :meth:`Rng.next_u64` per item, starting at *rng*'s state
    when this is built.  *rng* itself is not advanced, so drawing from it
    afterwards would repeat these draws.

    The draws are made ahead a block at a time and only their outcomes
    kept: ``_outcomes`` holds 1 for a kept draw and 0 for a lost one, in
    draw order, ``_used`` counts those consumed, ``_next_lost`` is the
    index of the first lost draw from ``_used`` on (the block's length if
    none is left), ``_x`` is the state after the block's last draw and
    ``_next_lanes`` the next block's lanes.
    """

    def __init__(self, rng: Rng, lost_below: int):
        # a threshold below 0 keeps every draw and one above 2**53 none
        threshold = min(max(lost_below, 0), 1 << 53) << 11
        self._keep_add = (1 << 64) - threshold
        self._x = rng._state
        self._next_lanes = _FIRST_LANES
        self._outcomes = bytearray()
        self._used = 0
        self._next_lost = 0
        self._drawn_before = 0  # draws of the blocks before this one

    @property
    def drawn(self) -> int:
        """The draws made so far, one per item given to :meth:`survivors`."""
        return self._drawn_before + self._used

    def survivors(self, items: list) -> list:
        """The *items* that survive one draw each, in order.  Returns
        *items* itself when nothing is lost."""
        outcomes = self._outcomes
        start = self._used
        stop = start + len(items)
        if stop > len(outcomes):
            # the block runs out: use its last outcomes, then a larger
            # block that starts where this one ends
            fit = len(outcomes) - start
            kept = self.survivors(items[:fit])
            self._open_block()
            return kept + self.survivors(items[fit:])
        self._used = stop
        if stop <= self._next_lost:
            return items
        self._next_lost = _first_lost(outcomes, stop)
        return list(compress(items, outcomes[start:stop]))

    def _open_block(self) -> None:
        """Draw the next ``_next_lanes * _LANE_STEPS`` outcomes after state
        ``_x``.

        Lane *j* starts ``j * _LANE_STEPS`` steps after ``_x``, reached by
        jumps, so it makes draws ``j * _LANE_STEPS`` onward.  All lanes sit
        in one int, and each of the ``_LANE_STEPS`` rounds steps every lane
        and multiplies it: a lane's 128-bit product fits its slot, so its
        low 64 bits are its draw.  Adding ``2**64 - (lost_below << 11)``
        to the draw sets the slot's bit 64 iff ``draw >> 11 >= lost_below``,
        and those bits are the round's outcomes, one per lane."""
        self._drawn_before += len(self._outcomes)
        lane_count = self._next_lanes
        self._next_lanes = min(2 * lane_count, _MAX_LANES)
        tables = _jump_tables()
        x = self._x
        lanes = []
        for _ in range(lane_count):
            lanes.append(x)
            jumped = 0
            for table in tables:
                jumped ^= table[x & 255]
                x >>= 8
            x = jumped
        self._x = x
        unit = _pack([1] * lane_count)
        low = unit * _MASK64
        add = unit * self._keep_add
        size = 16 * lane_count
        packed = _pack(lanes)
        outcomes = bytearray(lane_count * _LANE_STEPS)
        for step in range(_LANE_STEPS):
            packed = _xorshift(packed, low)
            draws = ((packed * 0x2545F4914F6CDD1D) & low) + add
            outcomes[step::_LANE_STEPS] = draws.to_bytes(size, "little")[8::16]
        self._outcomes = outcomes
        self._used = 0
        self._next_lost = _first_lost(outcomes, 0)


def _first_lost(outcomes: bytearray, start: int) -> int:
    """The index of the first lost draw in *outcomes* from *start* on, or
    their length if every one of them is kept."""
    index = outcomes.find(0, start)
    return len(outcomes) if index < 0 else index


def substream(seed: int, index: int) -> Rng:
    """Derive the deterministic substream ``seed XOR index``."""
    return Rng(seed ^ index)
