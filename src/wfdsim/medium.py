"""Multi-channel broadcast medium with a stop-and-wait acknowledgment layer.

A transmitted frame is delivered after a fixed airtime to every other device
tuned to the transmission channel at transmit time, minus the receivers whose
copy is lost.  The medium keeps, per channel, the devices tuned to it in
registration order, so a transmission copies one list instead of scanning
every device.  All deliveries of one transmission share a single engine
event, so they carry the same event id in the trace, and the trace hook sees
every surviving receiver in one list, which it copies if it keeps it.  A
broadcast frame reaches the handler of each surviving receiver whose entry
in :attr:`Medium.hears` holds the frame's kind: a peer keeps there the kinds
its current state handles, so a receiver that would ignore the frame costs
no call.  A unicast frame reaches its addressee's handler alone, and other
devices on the channel hear it in the trace alone.  The addressee's link
layer is one branch of :meth:`Medium._deliver`: an ACK settles the exchange
it answers, and any other frame is acknowledged after a turnaround delay.
The ACK is built directly by :func:`bare_frame`, without the dataclass
constructor, as every data frame of the traffic layer is; such a frame
equals the :class:`Frame` the constructor would build from the same fields.
:meth:`Medium.send_with_ack` retransmits on ACK timeout and reports failure
to the caller after the retry budget is exhausted.  A retransmission resends
the same :class:`Frame` object, so an ACK names the frame it answers, and the
addressee's handler takes each unicast frame once: a retransmitted duplicate
is acknowledged again but not dispatched again.

The medium alone decides where a frame goes: :meth:`Medium.transmit` stamps
the sender's current channel on it, so no caller names a channel.  One
frame object may go on air more than once: a retransmission, each channel
of one probe sweep and every beacon of one group.  Its ``channel`` is then
the stamp of its latest transmission, and each transmission reaches the
devices tuned to its own channel when it went on air.  Only broadcast
frames are shared; a unicast frame belongs to one exchange, whose
``dispatched`` flag it carries.  A device
that retunes leaves its link exchanges behind: :meth:`Medium.tune` silently
drops its queued acknowledged sends, without an outcome, and an ACK is sent
only if its sender is still on the channel it heard the frame on.

Losses cost one :meth:`LossDraws.survivors` call per transmission, at a
threshold fixed when the medium is built: the receivers that pass the drop
filter take one xorshift64* draw each, in registration order, read from
outcomes drawn ahead a block at a time and bit-identical to one
:meth:`Rng.next_u64` per receiver; a transmission where no copy is lost
gets its receiver list back as it is.

Per-frame code names frame kinds through the module constants below
(``ACK``, ``DATA``, ...), bound once at import, because on Python 3.10 and
3.11 every ``FrameKind.X`` read goes through ``EnumType.__getattr__``.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from math import ceil
from typing import Callable, Container, Optional

from .engine import Engine, LossDraws, Rng
from .simtime import MICROSECOND, MILLISECOND

BROADCAST = "*"

#: The channel a device is tuned to when it registers; every medium has it.
INITIAL_CHANNEL = 0


class FrameKind(Enum):
    """Frame kinds, valued by their trace names; a data frame is named by
    its payload tag instead, which DATA's value never equals."""

    BEACON = "Beacon"
    PROBE_REQUEST = "Probe Request"
    PROBE_RESPONSE = "Probe Response"
    GO_NEG_REQUEST = "GO Negotiation Request Frame"
    GO_NEG_RESPONSE = "GO Negotiation Response Frame"
    GO_NEG_CONFIRMATION = "GO Negotiation Confirmation Frame"
    PROVISION_DISCOVERY_REQUEST = "Provision Request"
    PROVISION_DISCOVERY_RESPONSE = "Provision discovery Response"
    AUTH = "Authentication"
    DATA = "Data"
    ACK = "ACK"

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

ALL_KINDS = frozenset(FrameKind)
#: The kinds sent to BROADCAST; every other kind is unicast.
BROADCAST_KINDS = frozenset({BEACON, PROBE_REQUEST})
GO_NEG_KINDS = frozenset({GO_NEG_REQUEST, GO_NEG_RESPONSE, GO_NEG_CONFIRMATION})


@dataclass
class Frame:
    """A simulated management or data frame.

    ``go_intent`` rides only on GO negotiation request/response frames;
    ``auth_seq`` only on authentication frames; ``payload_tag``,
    ``final_dst`` and ``orig_src`` only on data frames (hop destination in
    ``dst``, end-to-end addresses alongside).  ``from_go`` marks a probe
    response sent by an operating group owner, ``persistent_role`` the stored
    role a device advertises when it recognizes a persistent peer.

    One object may go on air more than once: a retransmission, each channel
    of one probe sweep, every beacon of one group.  ``channel`` is the stamp
    of its latest transmission.  Only broadcast frames are shared.
    """

    kind: FrameKind
    src: str
    dst: str
    channel: Optional[int] = None   # the sender's, stamped by the medium
    group_ssid: Optional[str] = None
    go_intent: Optional[int] = None
    persistent_flag: bool = False
    auth_seq: Optional[int] = None
    payload_tag: Optional[str] = None
    final_dst: Optional[str] = None
    orig_src: Optional[str] = None
    from_go: bool = False
    persistent_role: Optional[str] = None
    acks: Optional[Frame] = None    # on ACK frames: the frame acknowledged
    # set by the medium once the addressee's handler has taken the frame
    dispatched: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        kind = self.kind
        if kind in BROADCAST_KINDS:
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


def bare_frame(kind: FrameKind, src: str, dst: str) -> Frame:
    """A unicast frame built without the dataclass constructor.

    Only ``kind``, ``src`` and ``dst`` are set on it; every other field
    reads its class default until the caller sets it, so the frame equals
    the one ``Frame(kind=kind, src=src, dst=dst, ...)`` builds with the
    same fields.  ``Frame.__post_init__`` does not run, so the caller
    guarantees what it would check: *dst* is a registered device, which is
    never ``BROADCAST``, and *kind* is neither broadcast nor a kind that
    carries a GO intent."""
    frame = object.__new__(Frame)
    frame.kind = kind
    frame.src = src
    frame.dst = dst
    return frame


@dataclass(frozen=True)
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
        if self.max_retries < 0:
            # _ack_timeout fails an exchange when the budget reaches 0, so a
            # negative one would retransmit forever
            raise ValueError("max_retries must be at least 0")
        if self.ack_timeout < self.frame_airtime:
            # the timeout is armed as the frame goes on air, so a shorter one
            # resends while the first copy is still on air; at equality the
            # delivery, queued first, fires before the timeout
            raise ValueError("ack_timeout must be at least frame_airtime")
        # receipt of a frame to its protocol reply, which follows the ACK;
        # a plain attribute, not a field, read on every reply
        object.__setattr__(self, "reply_delay",
                           self.ack_turnaround + self.frame_airtime)


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
        # p = 0 and p = 1 draw nothing, and *rng* is not kept, so nothing
        # else draws from the loss stream.  Rng.random() < p, as integers:
        # random() is (x >> 11) / 2**53 exactly, and p * 2**53 is exact, so
        # x >> 11 < p * 2**53 holds iff it holds against its ceiling
        p = params.loss_probability
        self.losses: Optional[LossDraws] = (
            LossDraws(rng, ceil(p * (1 << 53))) if 0.0 < p < 1.0 else None)
        # on_delivery(event_id, time_ps, frame, receivers) runs once per
        # transmission with every receiver whose copy survived, addressee or
        # not; the trace collector hooks in here and copies the receivers.
        self.on_delivery = on_delivery
        self.drop_filter: Optional[Callable[[Frame, str], bool]] = None
        self._tuned: dict[str, int] = {}
        self._handlers: dict[str, Callable[[Frame], None]] = {}
        # per device, the frame kinds its handler takes from a broadcast;
        # its owner may replace the entry at any time (a peer stores the
        # table of its current state), and the medium only tests membership
        self.hears: dict[str, Container[FrameKind]] = {}
        self._rank: dict[str, int] = {}  # registration order
        # per channel, the devices tuned to it in registration order
        self._listeners: list[list[str]] = [
            [] for _ in range(params.channel_count)]
        # per device, its stop-and-wait queue of acknowledged sends
        self._pending: dict[str, deque[_Pending]] = {}

    # -- registration / tuning -------------------------------------------

    def register(self, device: str, handler: Callable[[Frame], None]) -> None:
        if device == BROADCAST:
            raise ValueError(f"{BROADCAST!r} is the broadcast address, "
                             "not a device name")
        if device in self._tuned:
            raise ValueError(f"device {device!r} already registered")
        self._tuned[device] = INITIAL_CHANNEL
        self._handlers[device] = handler
        self.hears[device] = ALL_KINDS
        self._rank[device] = len(self._rank)
        self._listeners[INITIAL_CHANNEL].append(device)  # highest rank so far
        self._pending[device] = deque()

    def tune(self, device: str, channel: int) -> None:
        old = self._tuned.get(device)
        if old is None:
            raise ValueError(f"unknown device {device!r}")
        if channel == old:
            return
        if not 0 <= channel < self.params.channel_count:
            raise ValueError(
                f"channel {channel} out of range [0, {self.params.channel_count})")
        self._tuned[device] = channel
        self._listeners[old].remove(device)
        insort(self._listeners[channel], device, key=self._rank.__getitem__)
        # the exchanges the device had queued end here, with no outcome,
        # as in cancel_pending: the protocol's session guards cover them
        queue = self._pending[device]
        if queue:
            self.engine.cancel(queue[0].timeout_event)
            queue.clear()

    # -- transmission ------------------------------------------------------

    def transmit(self, frame: Frame) -> None:
        """Send *frame* on its sender's current channel, stamped on it, and
        schedule delivery to every other device tuned there right now.
        Losses are drawn independently per receiver."""
        src = frame.src
        channel = self._tuned.get(src)
        if channel is None:
            raise ValueError(f"unregistered sender {src!r}")
        frame.channel = channel
        receivers = self._listeners[channel].copy()
        receivers.remove(src)
        engine = self.engine
        engine.schedule(engine.now + self.params.frame_airtime,
                        partial(self._deliver, frame, receivers), "deliver")

    def _deliver(self, frame: Frame, receivers: list[str]) -> None:
        # Each receiver the drop filter passes takes one loss draw, in
        # registration order, all in one LossDraws call.
        drop_filter = self.drop_filter
        if drop_filter is not None:
            receivers = [r for r in receivers if not drop_filter(frame, r)]
        if self.losses is not None:
            receivers = self.losses.survivors(receivers)
        elif self.params.loss_probability >= 1.0:
            receivers = []
        if self.on_delivery is not None:
            # all rows of one transmission share the id of this delivery
            # event, which is the engine's fired count while it runs
            self.on_delivery(self.engine.fired_count, self.engine.now,
                             frame, receivers)
        if frame.dst == BROADCAST:
            kind = frame.kind
            hears = self.hears
            handlers = self._handlers
            for receiver in receivers:
                if kind in hears[receiver]:
                    handlers[receiver](frame)
        elif frame.dst in receivers:
            # the addressee's link layer
            dst = frame.dst
            if frame.kind is ACK:
                # one that answers no queued head is a duplicate ACK for an
                # exchange that already settled
                queue = self._pending[dst]
                if queue and queue[0].frame is frame.acks:
                    self.engine.cancel(queue[0].timeout_event)
                    self._settle(dst, "acked")
                return
            engine = self.engine
            engine.schedule(engine.now + self.params.ack_turnaround,
                            partial(self._send_ack, frame), "ack")
            if not frame.dispatched:  # else a retransmitted duplicate
                frame.dispatched = True
                self._handlers[dst](frame)

    def _send_ack(self, frame: Frame) -> None:
        """Acknowledge *frame*, unless its addressee has left its channel.

        The ACK is a :func:`bare_frame` with ``acks`` set: its destination
        is the registered sender of *frame*."""
        src = frame.dst
        if self._tuned[src] == frame.channel:
            ack = bare_frame(ACK, src, frame.src)
            ack.acks = frame
            self.transmit(ack)

    # -- acknowledged unicast ------------------------------------------------

    def send_with_ack(self, frame: Frame,
                      on_result: Callable[[str], None]) -> None:
        """Transmit a unicast frame and report ``"acked"`` or ``"failed"``
        to *on_result* once the exchange settles.

        Each sender runs stop-and-wait: one acknowledged frame in flight at a
        time, later frames queue in FIFO order behind it.  An addressee that
        has left the frame's channel when its ACK is due sends none, so even
        a lossless trace can hold a unicast non-ACK frame that no ACK
        answers before the same sender's next one.
        """
        if frame.dst == BROADCAST or frame.kind is ACK:
            raise ValueError("send_with_ack requires a unicast non-ACK frame")
        queue = self._pending[frame.src]
        queue.append(_Pending(frame, self.params.max_retries, on_result))
        if len(queue) == 1:
            self._attempt(frame.src)

    def _attempt(self, sender: str) -> None:
        pending = self._pending[sender][0]
        self.transmit(pending.frame)
        engine = self.engine
        pending.timeout_event = engine.schedule(
            engine.now + self.params.ack_timeout,
            partial(self._ack_timeout, sender), "ack-timeout")

    def _ack_timeout(self, sender: str) -> None:
        # every other way a head leaves its queue cancels this event
        pending = self._pending[sender][0]
        if pending.retries_left == 0:
            self._settle(sender, "failed")
            return
        pending.retries_left -= 1
        self._attempt(sender)

    def _settle(self, sender: str, outcome: str) -> None:
        queue = self._pending[sender]
        pending = queue.popleft()
        if queue:
            self._attempt(sender)
        pending.on_result(outcome)

    def cancel_pending(self, src: str, dst: str) -> bool:
        """Silently drop queued acknowledged sends from *src* to *dst*."""
        queue = self._pending[src]
        kept = [p for p in queue if p.frame.dst != dst]
        if len(kept) == len(queue):
            return False
        head = queue[0]
        queue.clear()
        queue.extend(kept)
        if head.frame.dst == dst:
            self.engine.cancel(head.timeout_event)
            if queue:
                self._attempt(src)
        return True

    def has_pending(self, src: str, dst: str) -> bool:
        return any(p.frame.dst == dst for p in self._pending[src])
