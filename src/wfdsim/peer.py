"""Wi-Fi Direct peer state machine.

A peer walks through scan, find (listen/search alternation), group-owner
negotiation, provisioning and finally group operation, either as group owner
or as associated client.  Late devices join an operating group through the
provision-discovery exchange; devices holding a persistent record for a
rediscovered peer skip negotiation and run the shortened phase-2 exchange.

Each handshake is a session record in one table, ``Peer._sessions``, keyed
by counterpart: a device holds one negotiation, join attempt or provisioning
run, an owner one provisioning run per client.  A handshake frame counts
only if its sender has a session, and a reply or its outcome only if that
session is still the one that started it.

All behaviour is event-driven: the peer reacts to delivered frames and to its
own timers, and never blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Union

from .engine import Engine, Rng
from .history import History
from .medium import (
    AUTH,
    BEACON,
    BROADCAST,
    GO_NEG_CONFIRMATION,
    GO_NEG_REQUEST,
    GO_NEG_RESPONSE,
    PROBE_REQUEST,
    PROBE_RESPONSE,
    PROVISION_DISCOVERY_REQUEST,
    PROVISION_DISCOVERY_RESPONSE,
    Frame,
    FrameKind,
    Medium,
)
from .simtime import SECOND

GO = "GO"
CLIENT = "Client"

SOCIAL_CHANNELS = (0, 5, 10)

# Liveness guard for protocol waits (peer answered/asked and the counterpart
# never follows up, which only happens under loss).
PROTOCOL_GUARD = 1 * SECOND


class PeerState(Enum):
    IDLE = "Idle"
    SCAN = "Scan"
    FIND_LISTEN = "FindListen"
    FIND_SEARCH = "FindSearch"
    NEGOTIATING = "Negotiating"
    PROVISIONING_PHASE1 = "ProvisioningPhase1"
    PROVISIONING_PHASE2 = "ProvisioningPhase2"
    GO_OPERATING = "GoOperating"
    CLIENT_ASSOCIATED = "ClientAssociated"
    JOINING = "Joining"

    # members are singletons compared by identity; hash them in C rather
    # than through Enum.__hash__, a Python call per dict or set lookup
    __hash__ = object.__hash__


# The members as module names, read by per-event code instead of PeerState.X,
# which on Python 3.10 and 3.11 goes through EnumType.__getattr__; the frame
# kinds come from the medium the same way.  Tables built once below keep the
# _S.X and _K.X spelling.
IDLE = PeerState.IDLE
SCAN = PeerState.SCAN
FIND_LISTEN = PeerState.FIND_LISTEN
FIND_SEARCH = PeerState.FIND_SEARCH
NEGOTIATING = PeerState.NEGOTIATING
PROVISIONING_PHASE1 = PeerState.PROVISIONING_PHASE1
PROVISIONING_PHASE2 = PeerState.PROVISIONING_PHASE2
GO_OPERATING = PeerState.GO_OPERATING
CLIENT_ASSOCIATED = PeerState.CLIENT_ASSOCIATED
JOINING = PeerState.JOINING

# the name History records for each state
_STATE_NAMES = {state: state.value for state in PeerState}

_S = PeerState
_K = FrameKind

#: Legal state transitions.  Failure recovery drops back to FindListen after
#: a broken negotiation and to Scan after a broken join or provisioning run.
LEGAL_TRANSITIONS = frozenset({
    (_S.IDLE, _S.SCAN),
    (_S.IDLE, _S.GO_OPERATING),                 # autonomous group owner
    (_S.SCAN, _S.FIND_LISTEN),
    (_S.SCAN, _S.FIND_SEARCH),
    (_S.SCAN, _S.JOINING),
    (_S.FIND_LISTEN, _S.FIND_SEARCH),
    (_S.FIND_SEARCH, _S.FIND_LISTEN),
    (_S.FIND_LISTEN, _S.NEGOTIATING),
    (_S.FIND_SEARCH, _S.NEGOTIATING),
    (_S.FIND_LISTEN, _S.JOINING),
    (_S.FIND_SEARCH, _S.JOINING),
    (_S.FIND_LISTEN, _S.GO_OPERATING),          # persistent role restored
    (_S.FIND_SEARCH, _S.GO_OPERATING),          # persistent role restored
    (_S.NEGOTIATING, _S.PROVISIONING_PHASE1),   # negotiation loser
    (_S.NEGOTIATING, _S.GO_OPERATING),          # negotiation winner
    (_S.NEGOTIATING, _S.FIND_LISTEN),           # negotiation failure
    (_S.JOINING, _S.PROVISIONING_PHASE1),
    (_S.JOINING, _S.PROVISIONING_PHASE2),       # persistent fast path
    (_S.JOINING, _S.SCAN),                      # join failure
    (_S.PROVISIONING_PHASE1, _S.PROVISIONING_PHASE2),
    (_S.PROVISIONING_PHASE1, _S.SCAN),          # provisioning failure
    (_S.PROVISIONING_PHASE2, _S.SCAN),          # provisioning failure
    (_S.PROVISIONING_PHASE2, _S.CLIENT_ASSOCIATED),
})

# states whose failure sends the peer back to Scan rather than FindListen
_RESCAN_ON_FAILURE = (_S.JOINING, _S.PROVISIONING_PHASE1, _S.PROVISIONING_PHASE2)


def decide_go_role(my_intent: int, peer_intent: int, my_addr: str,
                   peer_addr: str) -> str:
    """Pick this device's role from both declared intents.

    The higher intent wins group ownership; equal intents fall back to the
    lexicographically smaller address, so both sides always agree and no
    negotiation can deadlock.
    """
    if not (0 <= my_intent <= 15 and 0 <= peer_intent <= 15):
        raise ValueError("GO intent out of range 0..15")
    if my_intent != peer_intent:
        return GO if my_intent > peer_intent else CLIENT
    return GO if my_addr < peer_addr else CLIENT


@dataclass
class PeerConfig:
    """Per-device protocol configuration."""

    wifi_direct_used: bool = True
    autonomous_go: bool = False
    group_ssid: str = ""
    go_intent: int = 7
    persistent: bool = False
    join_only: bool = False
    listen_dwell_choices: tuple[int, ...] = (
        SECOND // 10, 2 * SECOND // 10, 3 * SECOND // 10)
    search_probe_gap: int = SECOND // 100
    scan_duration: int = 2 * SECOND
    provisioning_frames: int = 20
    beacon_interval: int = SECOND // 10
    beacon_start_offset: int = SECOND // 10
    social_channels_only: bool = False

    def __post_init__(self):
        if not 0 <= self.go_intent <= 15:
            raise ValueError("go_intent must lie in 0..15")
        if self.provisioning_frames < 1:
            raise ValueError("provisioning_frames must be >= 1")
        if self.beacon_interval <= 0:
            raise ValueError("beacon_interval must be positive")
        if not self.listen_dwell_choices:
            raise ValueError("listen_dwell_choices must not be empty")


@dataclass(frozen=True)
class PersistentGroupRecord:
    """Stored credentials and negotiated role for a persistent group."""

    peer: str
    ssid: str
    my_role: str               # GO or Client
    credential_token: str


@dataclass
class GroupView:
    ssid: str
    members: set[str]
    persistent: bool = False
    announced: bool = False    # answers probes; autonomous: after a beacon


@dataclass
class _Negotiation:
    peer: str
    role: str                  # "initiator" or "responder"
    persistent: bool = False
    peer_intent: Optional[int] = None
    guard: Optional[list] = None


@dataclass
class _JoinAttempt:
    ssid: str
    persistent_fast: bool
    guard: Optional[list] = None


@dataclass
class _Provisioning:
    """One provisioning run with *peer*, as either end keeps it: *done* of
    *total* Authentication frames are exchanged.  Only a client reads
    *ssid* and *awaiting_beacon*."""

    peer: str
    total: int
    done: int = 0
    persistent: bool = False
    ssid: str = ""
    awaiting_beacon: bool = False
    guard: Optional[list] = None


# A session's guard is its wait for the counterpart's next frame; a reply to
# that frame or the session's end cancels it, so its expiry always fails the
# session.  Sessions end through _end_session, except an owner's runs, which
# arm no guard and are dropped on their own.
_Session = Union[_Negotiation, _JoinAttempt, _Provisioning]


def phase2_frames(n: int) -> int:
    """Auth frames in provisioning phase 2 alone (phases 1 + 2 use n)."""
    return (n + 1) // 2


class Peer:
    """One Wi-Fi Direct device attached to an engine and a medium."""

    def __init__(self, index: int, config: PeerConfig, engine: Engine,
                 medium: Medium, rng: Rng, history: Optional[History] = None):
        self.config = config
        self.address = f"host[{index}]"
        self.engine = engine
        self.medium = medium
        self.rng = rng
        self.history = history if history is not None else History()
        self.traffic = None  # set by TrafficManager.attach

        self.state = IDLE
        self.group: Optional[GroupView] = None
        self.go_address: Optional[str] = None
        self.records: dict[tuple[str, str], PersistentGroupRecord] = {}

        # the handshakes in progress by counterpart: a negotiation while
        # Negotiating, a join attempt while Joining, a provisioning run while
        # Provisioning*, an owner's provisioning run with each client
        self._sessions: dict[str, _Session] = {}

        # the one pending step of the current state: a scan dwell, a listen
        # dwell or rendezvous wait, a search gap or the delayed negotiation
        # send
        self._step_timer: Optional[list] = None
        # the probe sweep in progress: (channels left, wait between probes,
        # timer tag, what follows the last probe, the sweep's one Probe
        # Request, sent again on every channel)
        self._sweep_plan: Optional[tuple] = None
        # an owner's one Beacon, sent again every interval
        self._beacon: Optional[Frame] = None
        # the channels a find phase listens on and searches
        self._find_channels = SOCIAL_CHANNELS if config.social_channels_only \
            else tuple(range(medium.params.channel_count))

        # the handler tables, per state, of this device's kind
        self.handlers = self.JOIN_ONLY_HANDLERS if config.join_only \
            else self.HANDLERS
        medium.register(self.address, self.on_frame)
        medium.hears[self.address] = self.handlers[IDLE]

    # -- small helpers -----------------------------------------------------

    def _set_state(self, new: PeerState) -> None:
        if new is self.state:
            return
        old = self.state
        self.state = new
        # the medium calls on_frame for a broadcast only with a kind in here
        self.medium.hears[self.address] = self.handlers[new]
        self.history.transition(self.engine.now, self.address,
                                _STATE_NAMES[old], _STATE_NAMES[new])

    def _end_session(self) -> None:
        self.engine.cancel(self._step_timer)
        for session in self._sessions.values():
            self.engine.cancel(session.guard)
        self._sessions.clear()

    def _open(self, state: PeerState, peer: str, session: _Session) -> None:
        """End whatever the device held, enter *state* and hold *session*
        with *peer*."""
        self._end_session()
        self._set_state(state)
        self._sessions[peer] = session

    def _reply(self, tag: str, kind: FrameKind, peer: str,
               on_acked: Callable[[], None], **fields) -> list:
        """Send handshake frame *kind* to *peer* one reply delay from now, on
        the channel tuned then.  The session's wait for the frame this one
        answers is over.  Nothing is sent if the session with *peer* has
        changed by then, and the outcome counts only while that session is
        current: an ACK runs *on_acked*, a failure the recovery rule."""
        session = self._sessions[peer]
        self.engine.cancel(session.guard)

        def settled(outcome: str) -> None:
            if self._sessions.get(peer) is not session:
                return
            if outcome == "failed":
                self._fail(peer)
            else:
                on_acked()

        def send() -> None:
            if self._sessions.get(peer) is session:
                self.medium.send_with_ack(Frame(
                    kind=kind, src=self.address, dst=peer, **fields), settled)
        engine = self.engine
        return engine.schedule(engine.now + self.medium.params.reply_delay,
                               send, tag)

    def _arm_guard(self, tag: str, peer: str) -> None:
        """Wait at most PROTOCOL_GUARD for the next frame of counterpart
        *peer*, in place of the session's previous wait; on expiry, fail."""
        session, engine = self._sessions[peer], self.engine
        engine.cancel(session.guard)
        session.guard = engine.schedule(engine.now + PROTOCOL_GUARD,
                                        lambda: self._fail(peer), tag)

    def _fail(self, peer: str) -> None:
        """Recovery rule for the handshake with *peer*: an owner drops that
        client's run and keeps operating; a broken join or provisioning run
        starts over with a scan; a broken negotiation goes back to
        listening."""
        if self.state is GO_OPERATING:
            del self._sessions[peer]
        elif self.state in _RESCAN_ON_FAILURE:
            self._begin_scan()
        else:
            self._end_session()
            self._enter_find_listen()

    def lookup_record(self, peer: str, ssid: Optional[str] = None
                      ) -> Optional[PersistentGroupRecord]:
        if ssid:
            return self.records.get((peer, ssid))
        matches = sorted(k for k in self.records if k[0] == peer)
        return self.records[matches[0]] if matches else None

    def store_record(self, peer: str, ssid: str, my_role: str) -> None:
        token = f"cred:{ssid}:{min(self.address, peer)}:{max(self.address, peer)}"
        self.records[(peer, ssid)] = PersistentGroupRecord(peer, ssid, my_role, token)

    def discard_record(self, peer: str) -> None:
        for key in [k for k in self.records if k[0] == peer]:
            del self.records[key]

    # -- startup -----------------------------------------------------------

    def start(self) -> None:
        """Bring the device up: autonomous owners create their group at once,
        everyone else begins with a full scan."""
        if not self.config.wifi_direct_used:
            return  # stays Idle, transmits nothing
        if self.config.autonomous_go:
            channel = self.rng.randrange(self.medium.params.channel_count)
            self.medium.tune(self.address, channel)
            self._become_go(None, self.config.persistent, autonomous=True)
        else:
            self._begin_scan()

    # -- scan and find -------------------------------------------------------

    def _begin_scan(self) -> None:
        """Probe every channel, dwelling on each, then enter find."""
        self._end_session()
        self._set_state(SCAN)
        channels = self.medium.params.channel_count
        self._start_sweep(range(channels), self.config.scan_duration // channels,
                          "scan-dwell", self._enter_find)

    def _start_sweep(self, channels: Iterable[int], wait: int, tag: str,
                     then: Callable[[], None]) -> None:
        """Probe each of *channels*, *wait* apart, then run *then*.  The
        probe's fields hold for the whole sweep: the only handler that edits
        the records while a sweep runs ends the sweep first."""
        probe = Frame(kind=PROBE_REQUEST, src=self.address, dst=BROADCAST,
                      group_ssid=self.config.group_ssid or None,
                      persistent_flag=self.config.persistent or bool(self.records))
        self._sweep_plan = (iter(channels), wait, tag, then, probe)
        self._sweep()

    def _sweep(self) -> None:
        """Probe the next channel of the sweep, or move on after the last."""
        channels, wait, tag, then, probe = self._sweep_plan
        channel = next(channels, None)
        if channel is None:
            then()
            return
        self.medium.tune(self.address, channel)
        self.medium.transmit(probe)
        engine = self.engine
        self._step_timer = engine.schedule(engine.now + wait, self._sweep, tag)

    def _enter_find(self) -> None:
        if self.rng.bit():
            self._enter_find_search()
        else:
            self._enter_find_listen()

    def _enter_find_listen(self) -> None:
        self.engine.cancel(self._step_timer)
        self._set_state(FIND_LISTEN)
        channel = self.rng.choice(self._find_channels)
        self.medium.tune(self.address, channel)
        dwell = self.rng.choice(self.config.listen_dwell_choices)
        engine = self.engine
        self._step_timer = engine.schedule(engine.now + dwell,
                                           self._enter_find_search, "listen-dwell")

    def _enter_find_search(self) -> None:
        """Probe the find channels back to back, then listen."""
        self.engine.cancel(self._step_timer)
        self._set_state(FIND_SEARCH)
        self._start_sweep(self._find_channels,
                          self.medium.params.frame_airtime
                          + self.config.search_probe_gap,
                          "search-gap", self._enter_find_listen)

    # -- discovery handlers ---------------------------------------------------------

    def _join_owner(self, frame: Frame) -> None:
        """An operating owner announced itself: join its group if it is the
        one configured, over the persistent fast path if a stored record
        makes this device its client."""
        if self.config.group_ssid and frame.group_ssid != self.config.group_ssid:
            return
        record = self.lookup_record(frame.src, frame.group_ssid)
        fast = (frame.persistent_flag and record is not None
                and record.my_role == CLIENT)
        self._start_joining(frame.src, frame.group_ssid or "", frame.channel, fast)

    def _on_listener_probe_request(self, frame: Frame) -> None:
        record = self.lookup_record(frame.src)
        self.engine.cancel(self._step_timer)
        self.medium.send_with_ack(Frame(
            kind=PROBE_RESPONSE, src=self.address, dst=frame.src,
            group_ssid=self.config.group_ssid or None,
            persistent_flag=self.config.persistent or record is not None,
            persistent_role=record.my_role if record else None),
            self._probe_answer_settled)

    def _probe_answer_settled(self, outcome: str) -> None:
        if self.state is not FIND_LISTEN:
            return
        if outcome == "acked":
            # stay parked on this channel for the prober's follow-up, and
            # listen afresh if none comes
            engine = self.engine
            engine.cancel(self._step_timer)
            self._step_timer = engine.schedule(
                engine.now + PROTOCOL_GUARD, self._enter_find_listen,
                "rendezvous-guard")
        else:
            self._enter_find_listen()

    def _on_scan_probe_response(self, frame: Frame) -> None:
        # a scan only looks for operating owners
        if frame.from_go:
            self._join_owner(frame)

    def _on_search_probe_response(self, frame: Frame) -> None:
        if frame.from_go:
            self._join_owner(frame)
            return
        if frame.group_ssid and self.config.group_ssid and \
                frame.group_ssid != self.config.group_ssid:
            return
        # the sweep may have moved on while the response was on air: the
        # exchange continues where the responder is
        self.medium.tune(self.address, frame.channel)
        record = self.lookup_record(frame.src)
        if record is not None and frame.persistent_role is not None:
            if record.my_role == CLIENT and frame.persistent_role == GO:
                self._start_joining(frame.src, record.ssid, frame.channel,
                                    persistent_fast=True)
                return
            if record.my_role == GO and frame.persistent_role == CLIENT:
                self._become_go(record.ssid, persistent=True)
                return
            # conflicting stored roles: fall back to a standard formation
            self.discard_record(frame.src)
        elif record is not None and frame.persistent_role is None:
            self.discard_record(frame.src)
        self.rng.bit()  # unread; keeps later draws where the golden digests pin them
        self._negotiate(_Negotiation(peer=frame.src, role="initiator"),
                        GO_NEG_REQUEST, "goneg-request", "response-guard")

    # -- group-owner negotiation -------------------------------------------------------

    def _negotiate(self, neg: _Negotiation, kind: FrameKind, tag: str,
                   guard: str) -> None:
        """Open *neg* and send its first frame (*kind*, a request or response
        carrying this device's intent) after a reply delay, then wait up to
        the *guard* for the counterpart's next frame."""
        self._open(NEGOTIATING, neg.peer, neg)
        self._step_timer = self._reply(
            tag, kind, neg.peer, lambda: self._arm_guard(guard, neg.peer),
            go_intent=self.config.go_intent,
            persistent_flag=self.config.persistent)

    def _on_goneg_request(self, frame: Frame) -> None:
        self.rng.bit()  # unread; keeps later draws where the golden digests pin them
        self._negotiate(_Negotiation(
            peer=frame.src, role="responder",
            persistent=frame.persistent_flag and self.config.persistent,
            peer_intent=frame.go_intent),
            GO_NEG_RESPONSE, "goneg-response", "confirmation-guard")

    def _on_crossed_goneg_request(self, frame: Frame) -> None:
        # crossed requests: the lower address keeps the initiator role, the
        # other drops its own request and answers
        neg = self._sessions.get(frame.src)
        if (neg is not None and neg.role == "initiator"
                and frame.src < self.address):
            self.medium.cancel_pending(self.address, frame.src)
            self._on_goneg_request(frame)

    def _on_goneg_response(self, frame: Frame) -> None:
        neg = self._sessions.get(frame.src)
        if neg is None or neg.role != "initiator":
            return
        neg.peer_intent = frame.go_intent
        neg.persistent = self.config.persistent and frame.persistent_flag
        self._reply("goneg-confirmation", GO_NEG_CONFIRMATION, neg.peer,
                    lambda: self._negotiation_complete(neg),
                    persistent_flag=neg.persistent)

    def _on_goneg_confirmation(self, frame: Frame) -> None:
        neg = self._sessions.get(frame.src)
        if neg is None or neg.role != "responder":
            return
        neg.persistent = neg.persistent and frame.persistent_flag
        self._negotiation_complete(neg)

    def _negotiation_complete(self, neg: _Negotiation) -> None:
        role = decide_go_role(self.config.go_intent, neg.peer_intent,
                              self.address, neg.peer)
        if neg.role == "initiator":
            self.history.negotiation(
                self.engine.now, self.address, self.config.go_intent,
                neg.peer, neg.peer_intent,
                self.address if role == GO else neg.peer)
        if role == GO:
            self._become_go(None, neg.persistent)
        # either end's provisioning run replaces the negotiation; a client
        # starts it once the owner's first beacon arrives
        self._provision(neg.peer, False, persistent=neg.persistent,
                        ssid=self.config.group_ssid or "",
                        awaiting_beacon=role == CLIENT)
        if role == CLIENT:
            self._arm_guard("beacon-guard", neg.peer)

    # -- group owner operation ------------------------------------------------------
    # GoOperating is terminal, so an owner's group stays set and its sessions
    # are only ever its runs with clients.

    def _become_go(self, ssid: Optional[str], persistent: bool,
                   autonomous: bool = False) -> None:
        """Own group *ssid*, or this device's own group if None.  An
        autonomous owner answers probes only from its first beacon on, a
        start offset away; any other owner at once, its first beacon a
        quarter interval away."""
        if ssid is None:
            ssid = self.config.group_ssid or f"DIRECT-{self.address}"
        self._end_session()
        self._set_state(GO_OPERATING)
        self.group = GroupView(ssid=ssid, members={self.address},
                               persistent=persistent, announced=not autonomous)
        self.history.go_established(self.engine.now, self.address, ssid)
        self._beacon = Frame(kind=BEACON, src=self.address, dst=BROADCAST,
                             group_ssid=ssid, persistent_flag=persistent)
        first_beacon = self.config.beacon_start_offset if autonomous \
            else self.config.beacon_interval // 4
        engine = self.engine
        engine.schedule(engine.now + first_beacon, self._beacon_tick, "beacon")

    def _beacon_tick(self) -> None:
        self.group.announced = True
        self.medium.transmit(self._beacon)
        engine = self.engine
        engine.schedule(engine.now + self.config.beacon_interval,
                        self._beacon_tick, "beacon")

    def _on_owner_probe_request(self, frame: Frame) -> None:
        group = self.group
        if (not group.announced
                or frame.group_ssid and frame.group_ssid != group.ssid
                or self.medium.has_pending(self.address, frame.src)):
            return
        self.medium.send_with_ack(Frame(
            kind=PROBE_RESPONSE, src=self.address, dst=frame.src,
            group_ssid=group.ssid, persistent_flag=group.persistent,
            from_go=True),
            lambda outcome: None)

    def _member_joined(self, prov: _Provisioning) -> None:
        client = prov.peer
        self.group.members.add(client)
        self.history.member_added(self.engine.now, self.group.ssid,
                                  self.address, client)
        if prov.persistent:
            self.store_record(client, self.group.ssid, GO)

    # -- joining ------------------------------------------------------------------

    def _start_joining(self, go: str, ssid: str, channel: int,
                       persistent_fast: bool = False) -> None:
        self._open(JOINING, go, _JoinAttempt(ssid, persistent_fast))
        self.medium.tune(self.address, channel)
        self._reply("pd-request", PROVISION_DISCOVERY_REQUEST, go,
                    lambda: self._arm_guard("pd-guard", go),
                    group_ssid=ssid or None,
                    persistent_flag=persistent_fast or self.config.persistent)

    def _on_stored_client_pd_request(self, frame: Frame) -> None:
        # a stored client is back: restore the owner role it remembers
        record = self.lookup_record(frame.src, frame.group_ssid)
        if not frame.persistent_flag or record is None or record.my_role != GO:
            return
        self._become_go(record.ssid, persistent=True)
        self._on_owner_pd_request(frame)

    def _on_owner_pd_request(self, frame: Frame) -> None:
        if frame.group_ssid and frame.group_ssid != self.group.ssid:
            return
        record = self.lookup_record(frame.src, self.group.ssid)
        phase2_only = (frame.persistent_flag and record is not None
                       and record.my_role == GO)
        client = frame.src
        prov = self._provision(
            client, phase2_only, persistent=phase2_only
            or (frame.persistent_flag and self.group.persistent))
        self._reply("pd-response", PROVISION_DISCOVERY_RESPONSE, client,
                    lambda: None, group_ssid=self.group.ssid,
                    persistent_flag=prov.persistent)

    def _on_pd_response(self, frame: Frame) -> None:
        join = self._sessions.get(frame.src)
        if join is None:
            return
        prov = self._provision(
            frame.src, join.persistent_fast, persistent=join.persistent_fast
            or (self.config.persistent and frame.persistent_flag),
            ssid=frame.group_ssid or join.ssid)
        self._send_auth(prov, "auth-start")

    # -- provisioning -----------------------------------------------------------
    # Both ends run the same exchange on a _Provisioning: the client sends
    # the odd Authentication frames and the owner the even ones, and a frame
    # counts once its ACK arrives (at the sender) or it arrives (at the
    # addressee).

    def _provision(self, peer: str, fast: bool, **fields) -> _Provisioning:
        """Open a provisioning run with *peer*: phase 2 alone on the
        persistent fast path, phases 1 and 2 otherwise.  An owner keeps it
        beside its runs with other clients.  Any other device opens it in
        the run's phase, in place of the negotiation or join attempt with
        *peer* that led to it."""
        total = self.config.provisioning_frames
        prov = _Provisioning(peer, phase2_frames(total) if fast else total,
                             **fields)
        if self.state is GO_OPERATING:
            self._sessions[peer] = prov
        else:
            self._open(PROVISIONING_PHASE2 if fast else PROVISIONING_PHASE1,
                       peer, prov)
            self._update_provisioning_phase(prov)
        return prov

    def _update_provisioning_phase(self, prov: _Provisioning) -> None:
        # a fast-path session starts in phase 2, so it never moves here
        if (self.state is PROVISIONING_PHASE1
                and prov.done >= prov.total // 2):
            self._set_state(PROVISIONING_PHASE2)

    def _on_provisioning_beacon(self, frame: Frame) -> None:
        prov = self._sessions.get(frame.src)
        if prov is not None and prov.awaiting_beacon:
            prov.awaiting_beacon = False
            if frame.group_ssid:
                prov.ssid = frame.group_ssid
            self._send_auth(prov, "auth-start")

    def _send_auth(self, prov: _Provisioning, tag: str) -> None:
        """Send the next Authentication frame of *prov* after a reply delay;
        its number is fixed now."""
        seq = prov.done + 1

        def acked() -> None:
            if prov.done >= seq:
                return  # the counterpart's answer arrived before this ACK
            # an owner serves many clients and waits on none of them
            if self._auth_counted(prov, seq) and self.state is not GO_OPERATING:
                self._arm_guard("auth-guard", prov.peer)
        self._reply(tag, AUTH, prov.peer, acked, auth_seq=seq)

    def _auth_counted(self, prov: _Provisioning, seq: int) -> bool:
        """Count auth frame *seq* as exchanged.  Returns True while frames
        remain; after the last one the run ends, an owner adds the client to
        its group and a client is associated."""
        prov.done = seq
        self._update_provisioning_phase(prov)
        if prov.done < prov.total:
            return True
        if self.state is GO_OPERATING:
            del self._sessions[prov.peer]
            self._member_joined(prov)
        else:
            self._complete_association(prov)
        return False

    def _on_auth(self, frame: Frame) -> None:
        prov = self._sessions.get(frame.src)
        if prov is None or frame.auth_seq <= prov.done:
            return
        if self._auth_counted(prov, frame.auth_seq):
            self._send_auth(prov, "auth")

    def _complete_association(self, prov: _Provisioning) -> None:
        self._end_session()
        self._set_state(CLIENT_ASSOCIATED)
        self.go_address = prov.peer
        if prov.persistent and prov.ssid:
            self.store_record(prov.peer, prov.ssid, CLIENT)
        self.history.association(self.engine.now, self.address, prov.peer,
                                 prov.ssid)

    # -- data plane: the traffic layer routes by ``state`` ---------------------

    def _on_data(self, frame: Frame) -> None:
        if self.traffic is not None:
            self.traffic.on_data(self, frame)

    # -- frame dispatch ----------------------------------------------------------

    #: Per state, the frame kinds the peer reacts to and the handler for
    #: each; every other frame is ignored.  Idle reacts to nothing: a device
    #: that does not use Wi-Fi Direct never leaves it.  Every other state
    #: also takes Data, added below.
    HANDLERS = {
        _S.IDLE: {},
        _S.SCAN: {
            _K.BEACON: _join_owner,
            _K.PROBE_RESPONSE: _on_scan_probe_response},
        _S.FIND_LISTEN: {
            _K.BEACON: _join_owner,
            _K.PROBE_REQUEST: _on_listener_probe_request,
            _K.GO_NEG_REQUEST: _on_goneg_request,
            _K.PROVISION_DISCOVERY_REQUEST: _on_stored_client_pd_request},
        _S.FIND_SEARCH: {
            _K.BEACON: _join_owner,
            _K.PROBE_RESPONSE: _on_search_probe_response},
        _S.NEGOTIATING: {
            _K.GO_NEG_REQUEST: _on_crossed_goneg_request,
            _K.GO_NEG_RESPONSE: _on_goneg_response,
            _K.GO_NEG_CONFIRMATION: _on_goneg_confirmation},
        _S.JOINING: {_K.PROVISION_DISCOVERY_RESPONSE: _on_pd_response},
        _S.PROVISIONING_PHASE1: {
            _K.BEACON: _on_provisioning_beacon,
            _K.AUTH: _on_auth},
        _S.PROVISIONING_PHASE2: {
            _K.BEACON: _on_provisioning_beacon,
            _K.AUTH: _on_auth},
        _S.GO_OPERATING: {
            _K.PROBE_REQUEST: _on_owner_probe_request,
            _K.PROVISION_DISCOVERY_REQUEST: _on_owner_pd_request,
            _K.AUTH: _on_auth},
        _S.CLIENT_ASSOCIATED: {},
    }
    for _state, _table in HANDLERS.items():
        if _state is not _S.IDLE:
            _table[_K.DATA] = _on_data
    del _state, _table

    #: A join-only device's tables: it only ever joins an operating group,
    #: so as a listener it answers no prober and takes no negotiation, and
    #: as a searcher it takes an owner's Probe Response alone, as a scan does.
    JOIN_ONLY_HANDLERS = {**HANDLERS, _S.FIND_SEARCH: HANDLERS[_S.SCAN],
                          _S.FIND_LISTEN: dict(HANDLERS[_S.FIND_LISTEN])}
    del JOIN_ONLY_HANDLERS[_S.FIND_LISTEN][_K.PROBE_REQUEST]
    del JOIN_ONLY_HANDLERS[_S.FIND_LISTEN][_K.GO_NEG_REQUEST]

    def on_frame(self, frame: Frame) -> None:
        """The medium's entry point: run the handler the current state has
        for the frame's kind, if any."""
        handler = self.handlers[self.state].get(frame.kind)
        if handler is not None:
            handler(self, frame)
