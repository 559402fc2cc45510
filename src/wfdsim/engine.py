"""Deterministic discrete-event core.

A single :class:`Engine` owns the virtual clock and the event queue.  The
queue is a heap of ``(time, seq, event)`` entries, where ``seq`` is the
insertion sequence, so it orders by plain tuple comparison: events fire in
non-decreasing time order, and events scheduled for the same instant fire in
insertion order.  Event ids are assigned when an event fires, so ids are
dense and strictly increasing in firing order.

Randomness comes from :class:`Rng`, an xorshift64* generator.  Substreams for
independent actors are derived as ``seed XOR actor_index`` so that adding an
actor never perturbs the draws of the others.  :meth:`Rng.next_u64` is the
one definition of a draw; :meth:`Rng.survivors` repeats it inline so that a
transmission's per-receiver loss draws cost one Python call, not one each.

The same per-event budget sets the modules' second rule: code that runs per
event or per frame reads enum members through module constants bound once at
import (``ACK`` in :mod:`.medium`, ``GO_OPERATING`` in :mod:`.peer`), never
through the enum class, because on Python 3.10 and 3.11 ``EnumType`` defines
``__getattr__`` and each ``FrameKind.ACK`` read goes through it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional


class SimulationError(Exception):
    """A precondition of the simulation core was violated."""


class Event:
    """One queued action.  Returned by :meth:`Engine.schedule` as the handle
    used for cancellation."""

    __slots__ = ("fire_time", "action", "tag", "target", "id", "cancelled", "fired")

    def __init__(self, fire_time: int, action: Callable[[], None],
                 tag: str, target: str):
        self.fire_time = fire_time
        self.action = action
        self.tag = tag
        self.target = target
        self.id: Optional[int] = None  # assigned when fired
        self.cancelled = False
        self.fired = False

    def __repr__(self) -> str:
        return f"Event(t={self.fire_time}, tag={self.tag!r}, target={self.target!r})"


class Engine:
    """Virtual clock plus ordered event queue."""

    def __init__(self):
        self.now: int = 0
        # heap of (fire_time, seq, event); seq is the event's scheduled_count
        # rank, unique, so ties in time never compare two events
        self._queue: list[tuple[int, int, Event]] = []
        self.scheduled_count = 0
        self.fired_count = 0
        self.cancelled_count = 0
        self.current_event: Optional[Event] = None
        self._stop_requested = False

    # -- scheduling ------------------------------------------------------

    def schedule(self, fire_time: int, action: Callable[[], None],
                 tag: str = "", target: str = "") -> Event:
        """Enqueue *action* to run at *fire_time* (picoseconds).

        Scheduling in the past is a logic bug and raises.
        """
        if fire_time < self.now:
            raise SimulationError(
                f"past event: fire_time {fire_time} < now {self.now} (tag={tag!r})")
        event = Event(fire_time, action, tag, target)
        seq = self.scheduled_count
        self.scheduled_count = seq + 1
        heappush(self._queue, (fire_time, seq, event))
        return event

    def after(self, delay: int, action: Callable[[], None],
              tag: str = "", target: str = "") -> Event:
        return self.schedule(self.now + delay, action, tag, target)

    def cancel(self, event: Optional[Event]) -> bool:
        """Cancel a pending event.  Returns False if it already fired or was
        already cancelled (idempotent)."""
        if event is None or event.fired or event.cancelled:
            return False
        event.cancelled = True
        self.cancelled_count += 1
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
            fire_time, _seq, event = pop(queue)
            if event.cancelled:
                continue
            self.now = fire_time
            event.fired = True
            # ids are dense in firing order, so an event's id is its rank
            self.fired_count = event.id = self.fired_count + 1
            self.current_event = event
            event.action()
            self.current_event = None
            if self._stop_requested:
                return self.fired_count - fired_before
        self.now = stop
        return self.fired_count - fired_before


# -- pseudo-randomness ----------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 step, used to scramble seeds before use."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


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

    def survivors(self, items: list, lost_below: int) -> list:
        """The *items* that survive one draw each, in order: an item is kept
        iff its draw's top 53 bits, ``next_u64() >> 11``, are at least
        *lost_below*.  Makes exactly the draws of one :meth:`next_u64` per
        item, in one call, with the state kept in a local until the end."""
        x = self._state
        mask = _MASK64
        kept = []
        for item in items:
            x ^= x >> 12
            x ^= (x << 25) & mask
            x ^= x >> 27
            if ((x * 0x2545F4914F6CDD1D) & mask) >> 11 >= lost_below:
                kept.append(item)
        self._state = x
        return kept

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


def substream(seed: int, index: int) -> Rng:
    """Derive the deterministic substream ``seed XOR index``."""
    return Rng(seed ^ index)
