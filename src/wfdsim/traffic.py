"""Ping traffic and group-owner relaying.

Data frames carry a tag in the grammar :data:`TAG_RE`: the app's prefix of
ASCII letters, a sequence number, and ``-reply`` on replies.  A client
addresses everything to its group owner with the real destination carried
alongside; the owner forwards the frame, playing the access-point role, so
a client-to-client exchange is always two hops each way.  The owner itself
sends and answers directly.  Outstanding pings are keyed by (app owner,
destination, request tag), so the prefix tells apart two apps of one pair.

Routing reads the peer's ``state`` against the peer module's constants:
an operating owner addresses a member of its group, and any other peer
its ``go_address``.  Both hops are registered device names, so every data
frame is unicast, and every tag is non-empty, so it names the frame in the
trace.  That is what lets each data frame be built as ACKs are, by
:func:`~wfdsim.medium.bare_frame` without the dataclass constructor, with
``payload_tag``, ``final_dst`` and ``orig_src`` set on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .engine import Engine
from .history import History
from .medium import DATA, Frame, Medium, bare_frame
from .peer import CLIENT_ASSOCIATED, GO_OPERATING
from .simtime import SECOND

REPLY_SUFFIX = "-reply"
PREFIX_RE = re.compile(r"[A-Za-z]+")
#: A data frame's payload tag: prefix, sequence number, optional reply suffix.
TAG_RE = re.compile(rf"{PREFIX_RE.pattern}\d+(?:{REPLY_SUFFIX})?")


@dataclass
class PingAppConfig:
    owner: str
    dest: str
    send_interval: int = SECOND
    start_offset: int = 0
    payload_prefix: str = "ping"

    def __post_init__(self):
        if self.send_interval <= 0:
            raise ValueError("send_interval must be positive")
        if self.owner == self.dest:
            raise ValueError("ping app owner and destination must differ")
        if not PREFIX_RE.fullmatch(self.payload_prefix):
            raise ValueError(f"payloadPrefix {self.payload_prefix!r} must be "
                             f"one or more ASCII letters")


@dataclass
class PingStats:
    sent: int = 0
    received: int = 0
    replies: int = 0
    rtts: list[int] = field(default_factory=list)


class PingApp:
    def __init__(self, config: PingAppConfig):
        self.config = config
        self.stats = PingStats()


def _ignore(outcome: str) -> None:
    """Data frames are fire-and-forget once the link layer settles them."""


class TrafficManager:
    """Owns every ping app of a run and handles all data frames."""

    def __init__(self, engine: Engine, medium: Medium,
                 history: Optional[History] = None):
        self.engine = engine
        self.medium = medium
        self.history = history if history is not None else History()
        self._reply_delay = medium.params.reply_delay
        self.apps: list[PingApp] = []
        self._peers: dict[str, object] = {}
        # (app owner, destination, request tag) -> (app, send time)
        self._outstanding: dict[tuple[str, str, str], tuple[PingApp, int]] = {}

    def add_app(self, config: PingAppConfig) -> PingApp:
        app = PingApp(config)
        self.apps.append(app)
        return app

    def attach(self, peers) -> None:
        """Wire peers to this manager and schedule every app's first tick."""
        for peer in peers:
            self._peers[peer.address] = peer
            peer.traffic = self
        for app in self.apps:
            if app.config.owner not in self._peers:
                raise ValueError(f"ping app owner {app.config.owner!r} unknown")
            if app.config.dest not in self._peers:
                raise ValueError(f"ping app destination {app.config.dest!r} unknown")
            self.engine.schedule(app.config.start_offset,
                                 lambda app=app, seq=0: self._tick(app, seq),
                                 "ping-tick")

    # -- sending --------------------------------------------------------------

    def _tick(self, app: PingApp, seq: int) -> None:
        self._send_ping(app, seq)
        engine = self.engine
        engine.schedule(engine.now + app.config.send_interval,
                        lambda: self._tick(app, seq + 1), "ping-tick")

    def _send_ping(self, app: PingApp, seq: int) -> None:
        config = app.config
        owner = self._peers[config.owner]
        state = owner.state
        if state is not GO_OPERATING and state is not CLIENT_ASSOCIATED:
            return  # not in a group yet; the next interval retries
        tag = f"{config.payload_prefix}{seq}"
        frame = self._routed_data(owner, config.dest, tag, config.owner)
        if frame is None:
            return
        app.stats.sent += 1
        self._outstanding[config.owner, config.dest, tag] = (app, self.engine.now)
        self.medium.send_with_ack(frame, _ignore)

    def _routed_data(self, sender, final_dst: str, tag: str,
                     orig_src: str) -> Optional[Frame]:
        """A data frame from *sender* towards *final_dst*: straight to a
        member of the owner's group, else through the client's owner; None
        when there is no such hop."""
        if sender.state is GO_OPERATING:
            if final_dst not in sender.group.members:
                return None
            hop = final_dst
        else:
            hop = sender.go_address
            if hop is None:
                return None
        frame = bare_frame(DATA, sender.address, hop)
        frame.payload_tag = tag
        frame.final_dst = final_dst
        frame.orig_src = orig_src
        return frame

    def _send_later(self, frame: Frame, event_tag: str) -> None:
        engine = self.engine
        engine.schedule(engine.now + self._reply_delay,
                        partial(self.medium.send_with_ack, frame, _ignore),
                        event_tag)

    # -- receiving -------------------------------------------------------------

    def on_data(self, peer, frame: Frame) -> None:
        here, final, tag = peer.address, frame.final_dst, frame.payload_tag
        if final != here:
            if peer.state is GO_OPERATING:
                forwarded = self._routed_data(peer, final, tag, frame.orig_src)
                if forwarded is None:
                    self.history.relay_drop(self.engine.now, here, tag)
                else:
                    self._send_later(forwarded, "relay")
            return  # a client that is not the destination ignores it
        if tag.endswith(REPLY_SUFFIX):
            entry = self._outstanding.pop(
                (here, frame.orig_src, tag[:-len(REPLY_SUFFIX)]), None)
            if entry is not None:
                app, sent_at = entry
                app.stats.replies += 1
                app.stats.rtts.append(self.engine.now - sent_at)
            return
        entry = self._outstanding.get((frame.orig_src, here, tag))
        if entry is not None:
            entry[0].stats.received += 1
        reply = self._routed_data(peer, frame.orig_src, tag + REPLY_SUFFIX, here)
        if reply is not None:
            self._send_later(reply, "ping-reply")
