"""Multi-channel broadcast medium with a stop-and-wait acknowledgment layer.

A transmitted frame is delivered after a fixed airtime to every other device
tuned to the transmission channel at transmit time, minus the receivers whose
copy is lost.  The medium keeps, per channel, the devices tuned to it in
registration order, so a transmission copies one list instead of scanning
every device.  All deliveries of one transmission share a single engine
event, so they carry the same event id in the trace, and the trace hook sees
every surviving receiver in one list that it may keep.  Only broadcast
frames and a unicast frame's addressee reach a protocol handler: other
devices on the channel hear a unicast frame in the trace alone.  The
addressee's link layer acknowledges the frame after a turnaround delay;
:meth:`Medium.send_with_ack` retransmits on ACK timeout and reports failure
to the caller after the retry budget is exhausted.  Each unicast frame is
dispatched to the protocol layer at most once (retransmitted duplicates are
re-acknowledged but not re-dispatched).

Losses cost one Python call per transmission: the receivers that pass the
drop filter go to :meth:`Rng.survivors`, which makes one xorshift64* draw per
receiver, in registration order.  Per-frame code names frame kinds through
the module constants below (``ACK``, ``DATA``, ...), bound once at import,
because on Python 3.10 and 3.11 every ``FrameKind.X`` read goes through
``EnumType.__getattr__``.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import partial
from math import ceil
from typing import Callable, Optional

from .engine import Engine, Rng, SimulationError
from .simtime import MICROSECOND, MILLISECOND

BROADCAST = "*"


class FrameKind(Enum):
    BEACON = "Beacon"
    PROBE_REQUEST = "ProbeRequest"
    PROBE_RESPONSE = "ProbeResponse"
    GO_NEG_REQUEST = "GoNegRequest"
    GO_NEG_RESPONSE = "GoNegResponse"
    GO_NEG_CONFIRMATION = "GoNegConfirmation"
    PROVISION_DISCOVERY_REQUEST = "ProvisionDiscoveryRequest"
    PROVISION_DISCOVERY_RESPONSE = "ProvisionDiscoveryResponse"
    AUTH = "Auth"
    DATA = "Data"
    ACK = "Ack"

    # members are singletons compared by identity; hash them in C rather
    # than through Enum.__hash__, a Python call per dict or set lookup
    __hash__ = object.__hash__


# The members as module names, read by per-frame code here and in the peer,
# traffic, trace and validate modules instead of FrameKind.X (see the module
# docstring).
BEACON = FrameKind.BEACON
PROBE_REQUEST = FrameKind.PROBE_REQUEST
PROBE_RESPONSE = FrameKind.PROBE_RESPONSE
GO_NEG_REQUEST = FrameKind.GO_NEG_REQUEST
GO_NEG_RESPONSE = FrameKind.GO_NEG_RESPONSE
GO_NEG_CONFIRMATION = FrameKind.GO_NEG_CONFIRMATION
PROVISION_DISCOVERY_REQUEST = FrameKind.PROVISION_DISCOVERY_REQUEST
PROVISION_DISCOVERY_RESPONSE = FrameKind.PROVISION_DISCOVERY_RESPONSE
AUTH = FrameKind.AUTH
DATA = FrameKind.DATA
ACK = FrameKind.ACK

GO_NEG_KINDS = frozenset({GO_NEG_REQUEST, GO_NEG_RESPONSE, GO_NEG_CONFIRMATION})


@dataclass
class Frame:
    """A simulated management or data frame.

    ``go_intent``/``tiebreak`` ride only on GO negotiation request/response
    frames; ``auth_seq`` only on authentication frames; ``payload_tag``,
    ``final_dst`` and ``orig_src`` only on data frames (hop destination in
    ``dst``, end-to-end addresses alongside).  ``from_go`` marks a probe
    response sent by an operating group owner, ``persistent_role`` the stored
    role a device advertises when it recognizes a persistent peer.
    """

    kind: FrameKind
    src: str
    dst: str
    channel: int
    group_ssid: Optional[str] = None
    go_intent: Optional[int] = None
    tiebreak: Optional[int] = None
    persistent_flag: bool = False
    auth_seq: Optional[int] = None
    payload_tag: Optional[str] = None
    final_dst: Optional[str] = None
    orig_src: Optional[str] = None
    from_go: bool = False
    persistent_role: Optional[str] = None
    lseq: Optional[int] = None      # link sequence, stamped by the medium
    ack_lseq: Optional[int] = None  # on ACK frames: lseq being acknowledged

    def __post_init__(self):
        kind = self.kind
        if kind is BEACON or kind is PROBE_REQUEST:
            if self.dst != BROADCAST:
                raise ValueError(f"{kind.value} must be broadcast")
        elif self.dst == BROADCAST:
            raise ValueError(f"{kind.value} must be unicast")
        has_intent = self.go_intent is not None
        needs_intent = kind is GO_NEG_REQUEST or kind is GO_NEG_RESPONSE
        if has_intent != needs_intent:
            raise ValueError("go_intent present iff GO negotiation request/response")
        if has_intent and not 0 <= self.go_intent <= 15:
            raise ValueError("go_intent out of range 0..15")


@dataclass
class MediumParams:
    frame_airtime: int = 314 * MICROSECOND
    ack_turnaround: int = 40 * MICROSECOND
    loss_probability: float = 0.0
    ack_timeout: int = 2 * MILLISECOND
    max_retries: int = 3
    channel_count: int = 11

    def __post_init__(self):
        if self.frame_airtime <= 0 or self.ack_turnaround <= 0 or self.ack_timeout <= 0:
            raise ValueError("medium durations must be positive")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must lie in [0, 1]")
        if self.channel_count < 1:
            raise ValueError("channel_count must be at least 1")

    @property
    def reply_delay(self) -> int:
        """Receipt of a frame to its protocol reply, which follows the ACK."""
        return self.ack_turnaround + self.frame_airtime


class _Pending:
    __slots__ = ("frame", "retries_left", "on_result", "timeout_event")

    def __init__(self, frame: Frame, retries_left: int, on_result):
        self.frame = frame
        self.retries_left = retries_left
        self.on_result = on_result
        self.timeout_event: Optional[list] = None


class Medium:
    """Broadcast medium shared by every device of one simulation run."""

    def __init__(self, engine: Engine, params: MediumParams, rng: Rng,
                 on_delivery: Optional[Callable] = None):
        self.engine = engine
        self.params = params
        self.rng = rng
        # on_delivery(event_id, time_ps, frame, receivers) runs once per
        # transmission with every receiver whose copy survived, addressee or
        # not; the trace writer hooks in here and may keep the receivers
        # list, which the medium never touches after the call.
        self.on_delivery = on_delivery
        self.drop_filter: Optional[Callable[[Frame, str], bool]] = None
        self._tuned: dict[str, int] = {}
        self._handlers: dict[str, Callable[[Frame], None]] = {}
        self._rank: dict[str, int] = {}  # registration order
        # per channel, the devices tuned to it in registration order
        self._listeners: list[list[str]] = [
            [] for _ in range(params.channel_count)]
        self._lseq_counters: dict[str, int] = {}
        self._last_dispatched: dict[tuple[str, str], int] = {}
        self._pending: dict[str, deque[_Pending]] = {}

    # -- registration / tuning -------------------------------------------

    def register(self, device: str, handler: Callable[[Frame], None],
                 channel: int = 0) -> None:
        if device in self._tuned:
            raise ValueError(f"device {device!r} already registered")
        self._check_channel(channel)
        self._tuned[device] = channel
        self._handlers[device] = handler
        self._rank[device] = len(self._rank)
        self._listeners[channel].append(device)  # highest rank so far
        self._lseq_counters[device] = 0

    def tune(self, device: str, channel: int) -> None:
        old = self._tuned.get(device)
        if old is None:
            raise ValueError(f"unknown device {device!r}")
        if channel == old:
            return
        self._check_channel(channel)
        self._tuned[device] = channel
        self._listeners[old].remove(device)
        insort(self._listeners[channel], device, key=self._rank.__getitem__)

    def channel_of(self, device: str) -> int:
        return self._tuned[device]

    def _check_channel(self, channel: int) -> None:
        if not 0 <= channel < self.params.channel_count:
            raise ValueError(
                f"channel {channel} out of range [0, {self.params.channel_count})")

    # -- transmission ------------------------------------------------------

    def transmit(self, frame: Frame) -> None:
        """Schedule delivery of *frame* to every other device tuned to its
        channel right now.  Losses are drawn independently per receiver."""
        src, channel = frame.src, frame.channel
        tuned = self._tuned.get(src)
        if tuned is None:
            raise ValueError(f"unregistered sender {src!r}")
        if tuned != channel:
            raise SimulationError(
                f"{src} transmitting on channel {channel} while tuned to {tuned}")
        if frame.lseq is None:
            frame.lseq = self._lseq_counters[src] = self._lseq_counters[src] + 1
        receivers = self._listeners[channel].copy()
        receivers.remove(src)  # tuned to the channel, checked above
        engine = self.engine
        engine.schedule(engine.now + self.params.frame_airtime,
                        partial(self._deliver, frame, receivers), "deliver")

    def _deliver(self, frame: Frame, receivers: list[str]) -> None:
        # Each receiver the drop filter passes takes one loss draw, in
        # registration order, all in one Rng call; p = 0 and p = 1 draw
        # nothing.
        drop_filter = self.drop_filter
        if drop_filter is not None:
            receivers = [r for r in receivers if not drop_filter(frame, r)]
        p = self.params.loss_probability
        if p >= 1.0:
            receivers = []
        elif p > 0.0:
            # Rng.random() < p, as integers: random() is (x >> 11) / 2**53
            # exactly, and p * 2**53 is exact, so x >> 11 < p * 2**53 holds
            # iff it holds against the ceiling of p * 2**53
            receivers = self.rng.survivors(receivers, ceil(p * (1 << 53)))
        if self.on_delivery is not None:
            # all rows of one transmission share the id of this delivery
            # event, which is the engine's fired count while it runs
            self.on_delivery(self.engine.fired_count, self.engine.now,
                             frame, receivers)
        if frame.dst == BROADCAST:
            for receiver in receivers:
                self._handlers[receiver](frame)
        elif frame.dst in receivers:
            self._receive(frame)

    # -- link layer ---------------------------------------------------------

    def _receive(self, frame: Frame) -> None:
        """Link-layer handling of a unicast frame at its addressee."""
        if frame.kind is ACK:
            self._ack_received(frame)
            return
        receiver = frame.dst
        self._schedule_ack(frame, receiver)
        key = (receiver, frame.src)
        if frame.lseq <= self._last_dispatched.get(key, 0):
            return  # duplicate of an already dispatched frame
        self._last_dispatched[key] = frame.lseq
        self._handlers[receiver](frame)

    def _schedule_ack(self, frame: Frame, receiver: str) -> None:
        ack = Frame(kind=ACK, src=receiver, dst=frame.src,
                    channel=frame.channel, ack_lseq=frame.lseq)
        engine = self.engine
        engine.schedule(engine.now + self.params.ack_turnaround,
                        partial(self.transmit, ack), "ack")

    # -- acknowledged unicast ------------------------------------------------

    def send_with_ack(self, frame: Frame,
                      on_result: Callable[[str], None]) -> None:
        """Transmit a unicast frame and report ``"acked"`` or ``"failed"``
        to *on_result* once the exchange settles.

        Each sender runs stop-and-wait: one acknowledged frame in flight at a
        time, later frames queue in FIFO order behind it.  A lossless trace
        therefore pairs every unicast non-ACK frame with exactly one ACK
        before the same sender's next one.
        """
        if frame.dst == BROADCAST or frame.kind is ACK:
            raise ValueError("send_with_ack requires a unicast non-ACK frame")
        queue = self._pending.get(frame.src)
        if queue is None:
            queue = self._pending[frame.src] = deque()
        queue.append(_Pending(frame, self.params.max_retries, on_result))
        if len(queue) == 1:
            self._attempt(frame.src)

    def _attempt(self, sender: str) -> None:
        pending = self._pending[sender][0]
        self.transmit(pending.frame)
        engine = self.engine
        pending.timeout_event = engine.schedule(
            engine.now + self.params.ack_timeout,
            partial(self._ack_timeout, sender, pending), "ack-timeout")

    def _ack_timeout(self, sender: str, pending: _Pending) -> None:
        queue = self._pending.get(sender)
        if not queue or queue[0] is not pending:
            return
        if pending.retries_left == 0:
            self._settle(sender, "failed")
            return
        pending.retries_left -= 1
        self._attempt(sender)

    def _ack_received(self, ack: Frame) -> None:
        queue = self._pending.get(ack.dst)
        if not queue:
            return  # stray or duplicate ACK
        head = queue[0]
        if head.frame.dst != ack.src or head.frame.lseq != ack.ack_lseq:
            return  # duplicate ACK for an exchange that already settled
        self.engine.cancel(head.timeout_event)
        self._settle(ack.dst, "acked")

    def _settle(self, sender: str, outcome: str) -> None:
        queue = self._pending[sender]
        pending = queue.popleft()
        if not queue:
            del self._pending[sender]
        else:
            self._attempt(sender)
        pending.on_result(outcome)

    def cancel_pending(self, src: str, dst: str) -> bool:
        """Silently drop queued acknowledged sends from *src* to *dst*."""
        queue = self._pending.get(src)
        if not queue:
            return False
        head = queue[0]
        kept = deque(p for p in queue if p.frame.dst != dst)
        if len(kept) == len(queue):
            return False
        queue.clear()
        queue.extend(kept)
        if head.frame.dst == dst:
            self.engine.cancel(head.timeout_event)
            if queue:
                self._attempt(src)
        if not queue:
            del self._pending[src]
        return True

    def has_pending(self, src: str, dst: str) -> bool:
        queue = self._pending.get(src)
        return bool(queue) and any(p.frame.dst == dst for p in queue)
