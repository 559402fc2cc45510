"""Ping traffic and group-owner relaying.

Ping requests are data frames tagged ``<prefix><seq>``; replies append
``-reply``.  A client addresses everything to its group owner with the real
destination carried alongside; the owner forwards the frame, playing the
access-point role, so a client-to-client exchange is always two hops each
way.  The owner itself sends and answers directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .engine import Engine
from .history import History
from .medium import DATA, Frame, Medium
from .simtime import SECOND


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
        self.sent_at: dict[int, int] = {}

    def tag(self, seq: int) -> str:
        return f"{self.config.payload_prefix}{seq}"


_REPLY_RE = re.compile(r"^(?P<tag>.+?)-reply$")


class TrafficManager:
    """Owns every ping app of a run and handles all data frames."""

    def __init__(self, engine: Engine, medium: Medium,
                 history: Optional[History] = None):
        self.engine = engine
        self.medium = medium
        self.history = history if history is not None else History()
        self.apps: list[PingApp] = []
        self._peers: dict[str, object] = {}

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
        owner = self._peers[app.config.owner]
        if not (owner.is_go or owner.associated):
            return  # not in a group yet; the next interval retries
        frame = self._routed_data(owner, app.config.dest, app.tag(seq))
        if frame is None:
            return
        app.stats.sent += 1
        app.sent_at[seq] = self.engine.now
        self.medium.send_with_ack(frame, lambda outcome: None)

    def _routed_data(self, sender, final_dst: str, tag: str) -> Optional[Frame]:
        """Build a data frame from *sender*, hop-addressed through the group
        owner unless the sender is the owner."""
        if sender.is_go:
            if sender.group is None or final_dst not in sender.group.members:
                return None
            hop = final_dst
        else:
            hop = sender.go_address
            if hop is None:
                return None
        return Frame(kind=DATA, src=sender.address, dst=hop,
                     payload_tag=tag, final_dst=final_dst,
                     orig_src=sender.address)

    # -- receiving -------------------------------------------------------------

    def on_data(self, peer, frame: Frame) -> None:
        final = frame.final_dst or frame.dst
        if peer.is_go and final != peer.address:
            self._relay(peer, frame, final)
            return
        if final != peer.address:
            return  # not the owner and not the destination: ignore
        match = _REPLY_RE.match(frame.payload_tag or "")
        if match:
            self._reply_arrived(peer, frame, match.group("tag"))
        else:
            self._request_arrived(peer, frame)

    def _relay(self, go_peer, frame: Frame, final: str) -> None:
        if go_peer.group is None or final not in go_peer.group.members:
            self.history.relay_drop(self.engine.now, go_peer.address,
                                    frame.payload_tag or "")
            return
        forwarded = Frame(kind=DATA, src=go_peer.address, dst=final,
                          payload_tag=frame.payload_tag, final_dst=final,
                          orig_src=frame.orig_src)
        engine = self.engine
        engine.schedule(engine.now + self.medium.params.reply_delay,
                        lambda: self.medium.send_with_ack(forwarded,
                                                          lambda outcome: None),
                        "relay")

    def _request_arrived(self, peer, frame: Frame) -> None:
        app = self._find_app(frame.orig_src, peer.address)
        if app is not None:
            app.stats.received += 1
        requester = frame.orig_src or frame.src
        reply = self._routed_data(peer, requester, f"{frame.payload_tag}-reply")
        if reply is None:
            return
        engine = self.engine
        engine.schedule(engine.now + self.medium.params.reply_delay,
                        lambda: self.medium.send_with_ack(reply,
                                                          lambda outcome: None),
                        "ping-reply")

    def _reply_arrived(self, peer, frame: Frame, request_tag: str) -> None:
        app = self._find_app(peer.address, frame.orig_src)
        if app is None:
            return
        prefix = app.config.payload_prefix
        if not request_tag.startswith(prefix):
            return
        try:
            seq = int(request_tag[len(prefix):])
        except ValueError:
            return
        sent_at = app.sent_at.pop(seq, None)
        if sent_at is None:
            return
        app.stats.replies += 1
        app.stats.rtts.append(self.engine.now - sent_at)

    def _find_app(self, owner: Optional[str], dest: str) -> Optional[PingApp]:
        for app in self.apps:
            if app.config.owner == owner and app.config.dest == dest:
                return app
        return None
