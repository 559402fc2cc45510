"""Wi-Fi Direct peer state machine.

A peer walks through scan, find (listen/search alternation), group-owner
negotiation, provisioning and finally group operation, either as group owner
or as associated client.  Late devices join an operating group through the
provision-discovery exchange; devices holding a persistent record for a
rediscovered peer skip negotiation and run the shortened phase-2 exchange.

All behaviour is event-driven: the peer reacts to delivered frames and to its
own timers, and never blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

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
    negotiation can deadlock.  The tie-break bit carried in the frames does
    not participate in the decision.
    """
    if not (0 <= my_intent <= 15 and 0 <= peer_intent <= 15):
        raise ValueError("GO intent out of range 0..15")
    if my_intent != peer_intent:
        return GO if my_intent > peer_intent else CLIENT
    return GO if my_addr < peer_addr else CLIENT


@dataclass
class PeerConfig:
    """Per-device protocol configuration."""

    address: str = ""
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
    go: str
    members: set[str]


@dataclass
class _Negotiation:
    peer: str
    role: str                  # "initiator" or "responder"
    my_tiebreak: int
    persistent: bool = False
    peer_intent: Optional[int] = None


@dataclass
class _JoinAttempt:
    go: str
    ssid: str
    persistent_fast: bool


@dataclass
class _ClientProvisioning:
    go: str
    ssid: str
    total: int
    done: int = 0
    persistent: bool = False
    phase2_only: bool = False
    awaiting_beacon: bool = False


@dataclass
class _GoSideProvisioning:
    total: int
    done: int = 0
    persistent: bool = False


_Session = Union[_Negotiation, _JoinAttempt, _ClientProvisioning]


def phase2_frames(n: int) -> int:
    """Auth frames in provisioning phase 2 alone (phases 1 + 2 use n)."""
    return (n + 1) // 2


class Peer:
    """One Wi-Fi Direct device attached to an engine and a medium."""

    def __init__(self, index: int, config: PeerConfig, engine: Engine,
                 medium: Medium, rng: Rng, history: Optional[History] = None):
        self.index = index
        self.config = config
        self.address = config.address or f"host[{index}]"
        self.engine = engine
        self.medium = medium
        self.rng = rng
        self.history = history if history is not None else History()
        self.traffic = None  # set by TrafficManager.attach

        self.state = IDLE
        self.group: Optional[GroupView] = None
        self.group_persistent = False
        self.go_address: Optional[str] = None
        self.records: dict[tuple[str, str], PersistentGroupRecord] = {}

        self._announced = False
        # the handshake in progress: a negotiation while Negotiating, a join
        # attempt while Joining, a provisioning run while Provisioning*
        self._session: Optional[_Session] = None
        self._go_sessions: dict[str, _GoSideProvisioning] = {}

        # the one pending step of the current state: a scan dwell, a listen
        # dwell, a search gap or the delayed negotiation send
        self._step_timer: Optional[list] = None
        # the probe sweep in progress: (channels left, wait between probes,
        # timer tag, what follows the last probe)
        self._sweep_plan: Optional[tuple] = None
        self._guard_timer: Optional[list] = None
        # the channels a find phase listens on and searches
        self._find_channels = SOCIAL_CHANNELS if config.social_channels_only \
            else tuple(range(medium.params.channel_count))

        medium.register(self.address, self.on_frame)

    # -- small helpers -----------------------------------------------------

    def _set_state(self, new: PeerState) -> None:
        if new is self.state:
            return
        old = self.state
        self.state = new
        self.history.transition(self.engine.now, self.address,
                                _STATE_NAMES[old], _STATE_NAMES[new])

    def _cancel(self, attr: str) -> None:
        timer = getattr(self, attr)
        if timer is not None:
            self.engine.cancel(timer)
            setattr(self, attr, None)

    def _end_session(self) -> None:
        self._cancel("_step_timer")
        self._cancel("_guard_timer")
        self._session = None

    def _send(self, kind: FrameKind, dst: str, on_acked: Callable[[], None],
              **fields) -> None:
        """Send an acknowledged handshake frame on the current channel.  Its
        outcome counts only if the session that sent it is still current: an
        ACK runs *on_acked*, a failure runs the recovery rule."""
        session = self._session

        def settled(outcome: str) -> None:
            if self._session is not session:
                return
            if outcome == "failed":
                self._fail()
            else:
                on_acked()
        self.medium.send_with_ack(Frame(
            kind=kind, src=self.address, dst=dst,
            channel=self.medium.channel_of(self.address), **fields), settled)

    def _later(self, tag: str, action: Callable[[], None]) -> list:
        """Run *action* one reply delay from now, unless the current session
        has ended by then."""
        session = self._session

        def fire() -> None:
            if self._session is session:
                action()
        engine = self.engine
        return engine.schedule(engine.now + self.medium.params.reply_delay,
                               fire, tag)

    def _arm_guard(self, tag: str) -> None:
        """Wait at most PROTOCOL_GUARD for the counterpart's next frame; on
        expiry, fail if the peer is still in the state and session it was
        armed in."""
        self._cancel("_guard_timer")
        state, session = self.state, self._session

        def expired() -> None:
            self._guard_timer = None
            if self.state is state and self._session is session:
                self._fail()
        engine = self.engine
        self._guard_timer = engine.schedule(engine.now + PROTOCOL_GUARD,
                                            expired, tag)

    def _fail(self) -> None:
        """Recovery rule: a broken join or provisioning run starts over with
        a scan; anything else (a negotiation, an unanswered rendezvous) goes
        back to listening."""
        if self.state in _RESCAN_ON_FAILURE:
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
            self._become_go(
                ssid=self.config.group_ssid or f"DIRECT-{self.address}",
                persistent=self.config.persistent,
                first_beacon_at=self.engine.now + self.config.beacon_start_offset,
                announce_immediately=False,
            )
        else:
            self._begin_scan()

    # -- scan and find -------------------------------------------------------

    def _begin_scan(self) -> None:
        """Probe every channel, dwelling on each, then enter find."""
        self._end_session()
        self._set_state(SCAN)
        channels = self.medium.params.channel_count
        self._sweep_plan = (iter(range(channels)),
                            self.config.scan_duration // channels,
                            "scan-dwell", self._enter_find)
        self._sweep()

    def _sweep(self) -> None:
        """Probe the next channel of the sweep, or move on after the last."""
        channels, wait, tag, then = self._sweep_plan
        channel = next(channels, None)
        if channel is None:
            then()
            return
        self.medium.tune(self.address, channel)
        self.medium.transmit(Frame(
            kind=PROBE_REQUEST, src=self.address, dst=BROADCAST,
            channel=channel, group_ssid=self.config.group_ssid or None,
            persistent_flag=self.config.persistent or bool(self.records)))
        engine = self.engine
        self._step_timer = engine.schedule(engine.now + wait, self._sweep, tag)

    def _enter_find(self) -> None:
        if self.rng.bit():
            self._enter_find_search()
        else:
            self._enter_find_listen()

    def _enter_find_listen(self) -> None:
        self._cancel("_step_timer")
        self._set_state(FIND_LISTEN)
        channel = self.rng.choice(self._find_channels)
        self.medium.tune(self.address, channel)
        dwell = self.rng.choice(self.config.listen_dwell_choices)
        engine = self.engine
        self._step_timer = engine.schedule(engine.now + dwell,
                                           self._enter_find_search, "listen-dwell")

    def _enter_find_search(self) -> None:
        """Probe the find channels back to back, then listen."""
        self._cancel("_step_timer")
        self._set_state(FIND_SEARCH)
        self._sweep_plan = (iter(self._find_channels),
                            self.medium.params.frame_airtime
                            + self.config.search_probe_gap,
                            "search-gap", self._enter_find_listen)
        self._sweep()

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
        if self.config.join_only:
            return
        record = self.lookup_record(frame.src)
        self._cancel("_step_timer")
        self.medium.send_with_ack(Frame(
            kind=PROBE_RESPONSE, src=self.address, dst=frame.src,
            channel=frame.channel, group_ssid=self.config.group_ssid or None,
            persistent_flag=self.config.persistent or record is not None,
            persistent_role=record.my_role if record else None),
            self._probe_answer_settled)

    def _probe_answer_settled(self, outcome: str) -> None:
        if self.state is not FIND_LISTEN:
            return
        if outcome == "acked":
            # stay parked on this channel for the peer's follow-up
            self._arm_guard("rendezvous-guard")
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
        if self.config.join_only:
            return
        if frame.group_ssid and self.config.group_ssid and \
                frame.group_ssid != self.config.group_ssid:
            return
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
        self._negotiate(_Negotiation(peer=frame.src, role="initiator",
                                     my_tiebreak=self.rng.bit()),
                        GO_NEG_REQUEST, "goneg-request", "response-guard")

    # -- group-owner negotiation -------------------------------------------------------

    def _negotiate(self, neg: _Negotiation, kind: FrameKind, tag: str,
                   guard: str) -> None:
        """Open *neg* and send its first frame (*kind*) after a reply delay."""
        self._end_session()
        self._set_state(NEGOTIATING)
        self._session = neg
        self._step_timer = self._later(
            tag, lambda: self._send_negotiation(kind, guard))

    def _send_negotiation(self, kind: FrameKind, guard: str) -> None:
        """Send a request or response carrying this device's intent, then
        wait up to the guard for the counterpart's next frame."""
        neg = self._session
        self._send(kind, neg.peer, lambda: self._arm_guard(guard),
                   go_intent=self.config.go_intent, tiebreak=neg.my_tiebreak,
                   persistent_flag=self.config.persistent)

    def _on_goneg_request(self, frame: Frame) -> None:
        if self.config.join_only:
            return
        self._negotiate(_Negotiation(
            peer=frame.src, role="responder", my_tiebreak=self.rng.bit(),
            persistent=frame.persistent_flag and self.config.persistent,
            peer_intent=frame.go_intent),
            GO_NEG_RESPONSE, "goneg-response", "confirmation-guard")

    def _on_crossed_goneg_request(self, frame: Frame) -> None:
        # crossed requests: the lower address keeps the initiator role, the
        # other drops its own request and answers
        neg = self._session
        if (neg.role == "initiator" and frame.src == neg.peer
                and frame.src < self.address):
            self.medium.cancel_pending(self.address, frame.src)
            self._on_goneg_request(frame)

    def _on_goneg_response(self, frame: Frame) -> None:
        neg = self._session
        if neg.role != "initiator" or frame.src != neg.peer:
            return
        self._cancel("_guard_timer")
        neg.peer_intent = frame.go_intent
        neg.persistent = self.config.persistent and frame.persistent_flag
        self._later("goneg-confirmation", lambda: self._send(
            GO_NEG_CONFIRMATION, neg.peer,
            lambda: self._negotiation_complete(neg),
            persistent_flag=neg.persistent))

    def _on_goneg_confirmation(self, frame: Frame) -> None:
        neg = self._session
        if neg.role != "responder" or frame.src != neg.peer:
            return
        self._cancel("_guard_timer")
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
        self._session = None
        if role == GO:
            ssid = self.config.group_ssid or f"DIRECT-{self.address}"
            self._become_go(ssid, persistent=neg.persistent)
            self._go_sessions[neg.peer] = _GoSideProvisioning(
                total=self.config.provisioning_frames, persistent=neg.persistent)
        else:
            self._set_state(PROVISIONING_PHASE1)
            prov = _ClientProvisioning(
                go=neg.peer, ssid=self.config.group_ssid or "",
                total=self.config.provisioning_frames,
                persistent=neg.persistent, awaiting_beacon=True)
            self._session = prov
            self._update_provisioning_phase(prov)

    # -- group owner operation ------------------------------------------------------
    # GoOperating is terminal, so an owner's session stays None and its
    # group stays set.

    def _become_go(self, ssid: str, persistent: bool,
                   first_beacon_at: Optional[int] = None,
                   announce_immediately: bool = True) -> None:
        self._end_session()
        self._set_state(GO_OPERATING)
        self.group = GroupView(ssid=ssid, go=self.address, members={self.address})
        self.group_persistent = persistent
        self._announced = announce_immediately
        self.history.go_established(self.engine.now, self.address, ssid)
        if first_beacon_at is None:
            first_beacon_at = self.engine.now + self.config.beacon_interval // 4
        self.engine.schedule(first_beacon_at, self._beacon_tick, "beacon")

    def _beacon_tick(self) -> None:
        self._announced = True
        self.medium.transmit(Frame(
            kind=BEACON, src=self.address, dst=BROADCAST,
            channel=self.medium.channel_of(self.address),
            group_ssid=self.group.ssid, persistent_flag=self.group_persistent))
        engine = self.engine
        engine.schedule(engine.now + self.config.beacon_interval,
                        self._beacon_tick, "beacon")

    def _on_owner_probe_request(self, frame: Frame) -> None:
        if (not self._announced
                or frame.group_ssid and frame.group_ssid != self.group.ssid
                or self.medium.has_pending(self.address, frame.src)):
            return
        self.medium.send_with_ack(Frame(
            kind=PROBE_RESPONSE, src=self.address, dst=frame.src,
            channel=frame.channel, group_ssid=self.group.ssid,
            persistent_flag=self.group_persistent, from_go=True),
            lambda outcome: None)

    def _member_joined(self, client: str, session: _GoSideProvisioning) -> None:
        self.group.members.add(client)
        self.history.member_added(self.engine.now, self.group.ssid,
                                  self.address, client)
        if session.persistent:
            self.store_record(client, self.group.ssid, GO)
        self._go_sessions.pop(client, None)

    # -- joining ------------------------------------------------------------------

    def _start_joining(self, go: str, ssid: str, channel: int,
                       persistent_fast: bool = False) -> None:
        self._end_session()
        self._set_state(JOINING)
        self._session = _JoinAttempt(go=go, ssid=ssid, persistent_fast=persistent_fast)
        self.medium.tune(self.address, channel)
        self._later("pd-request", lambda: self._send(
            PROVISION_DISCOVERY_REQUEST, go,
            lambda: self._arm_guard("pd-guard"), group_ssid=ssid or None,
            persistent_flag=persistent_fast or self.config.persistent))

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
        total = phase2_frames(self.config.provisioning_frames) \
            if phase2_only else self.config.provisioning_frames
        self._go_sessions[frame.src] = _GoSideProvisioning(
            total=total,
            persistent=phase2_only
            or (frame.persistent_flag and self.group_persistent))
        self._later("pd-response", lambda: self._send_pd_response(frame.src))

    def _send_pd_response(self, client: str) -> None:
        session = self._go_sessions.get(client)
        if session is None:
            return
        self.medium.send_with_ack(Frame(
            kind=PROVISION_DISCOVERY_RESPONSE, src=self.address,
            dst=client, channel=self.medium.channel_of(self.address),
            group_ssid=self.group.ssid, persistent_flag=session.persistent),
            lambda outcome: self._pd_response_settled(client, outcome))

    def _pd_response_settled(self, client: str, outcome: str) -> None:
        if outcome == "failed":
            self._go_sessions.pop(client, None)

    def _on_pd_response(self, frame: Frame) -> None:
        join = self._session
        if frame.src != join.go:
            return
        self._cancel("_guard_timer")
        total = self.config.provisioning_frames
        if join.persistent_fast:
            total = phase2_frames(total)
        prov = _ClientProvisioning(
            go=frame.src, ssid=frame.group_ssid or join.ssid, total=total,
            persistent=join.persistent_fast
            or (self.config.persistent and frame.persistent_flag),
            phase2_only=join.persistent_fast)
        self._session = prov
        if join.persistent_fast:
            self._set_state(PROVISIONING_PHASE2)
        else:
            self._set_state(PROVISIONING_PHASE1)
            self._update_provisioning_phase(prov)
        self._later("auth-start", self._send_client_auth)

    # -- provisioning -----------------------------------------------------------

    def _update_provisioning_phase(self, prov: _ClientProvisioning) -> None:
        if prov.phase2_only:
            return
        if (self.state is PROVISIONING_PHASE1
                and prov.done >= prov.total // 2):
            self._set_state(PROVISIONING_PHASE2)

    def _on_provisioning_beacon(self, frame: Frame) -> None:
        prov = self._session
        if prov.awaiting_beacon and frame.src == prov.go:
            prov.awaiting_beacon = False
            if frame.group_ssid:
                prov.ssid = frame.group_ssid
            self._later("auth-start", self._send_client_auth)

    def _send_client_auth(self) -> None:
        prov = self._session
        seq = prov.done + 1

        def acked() -> None:
            if self._auth_counted(prov, seq):
                self._arm_guard("auth-guard")
        self._send(AUTH, prov.go, acked, auth_seq=seq)

    def _auth_counted(self, prov: _ClientProvisioning, seq: int) -> bool:
        """Count auth frame *seq* as exchanged.  Returns True while frames
        remain; after the last one the client is associated."""
        prov.done = seq
        self._update_provisioning_phase(prov)
        if prov.done < prov.total:
            return True
        self._complete_association()
        return False

    def _on_client_auth(self, frame: Frame) -> None:
        prov = self._session
        if frame.src != prov.go or frame.auth_seq != prov.done + 1:
            return
        self._cancel("_guard_timer")
        if self._auth_counted(prov, frame.auth_seq):
            self._later("auth", self._send_client_auth)

    def _on_owner_auth(self, frame: Frame) -> None:
        session = self._go_sessions.get(frame.src)
        if session is None or frame.auth_seq != session.done + 1:
            return
        session.done = frame.auth_seq
        if session.done >= session.total:
            self._member_joined(frame.src, session)
        else:
            next_seq = session.done + 1
            self._later("auth", lambda: self._send_go_auth(frame.src, next_seq))

    def _send_go_auth(self, client: str, seq: int) -> None:
        session = self._go_sessions.get(client)
        if session is None:
            return
        self.medium.send_with_ack(Frame(
            kind=AUTH, src=self.address, dst=client,
            channel=self.medium.channel_of(self.address), auth_seq=seq),
            lambda outcome: self._go_auth_settled(client, session, seq, outcome))

    def _go_auth_settled(self, client: str, session: _GoSideProvisioning,
                         seq: int, outcome: str) -> None:
        if self._go_sessions.get(client) is not session:
            return
        if outcome == "failed":
            self._go_sessions.pop(client, None)
            return
        session.done = seq
        if session.done >= session.total:
            self._member_joined(client, session)

    def _complete_association(self) -> None:
        prov = self._session
        self._cancel("_guard_timer")
        self._set_state(CLIENT_ASSOCIATED)
        self.go_address = prov.go
        if prov.persistent and prov.ssid:
            self.store_record(prov.go, prov.ssid, CLIENT)
        self.history.association(self.engine.now, self.address, prov.go, prov.ssid)
        self._session = None

    # -- data-plane helpers used by the traffic layer ---------------------------

    @property
    def associated(self) -> bool:
        return self.state is CLIENT_ASSOCIATED

    @property
    def is_go(self) -> bool:
        return self.state is GO_OPERATING

    def _on_data(self, frame: Frame) -> None:
        if self.traffic is not None:
            self.traffic.on_data(self, frame)

    # -- frame dispatch ----------------------------------------------------------

    _CLIENT_PROVISIONING = {
        _K.BEACON: _on_provisioning_beacon,
        _K.AUTH: _on_client_auth,
        _K.DATA: _on_data}

    #: Per state, the frame kinds the peer reacts to and the handler for
    #: each; every other frame is ignored.  Idle reacts to nothing: a device
    #: that does not use Wi-Fi Direct never leaves it.
    HANDLERS = {
        _S.IDLE: {},
        _S.SCAN: {
            _K.BEACON: _join_owner,
            _K.PROBE_RESPONSE: _on_scan_probe_response,
            _K.DATA: _on_data},
        _S.FIND_LISTEN: {
            _K.BEACON: _join_owner,
            _K.PROBE_REQUEST: _on_listener_probe_request,
            _K.GO_NEG_REQUEST: _on_goneg_request,
            _K.PROVISION_DISCOVERY_REQUEST: _on_stored_client_pd_request,
            _K.DATA: _on_data},
        _S.FIND_SEARCH: {
            _K.BEACON: _join_owner,
            _K.PROBE_RESPONSE: _on_search_probe_response,
            _K.DATA: _on_data},
        _S.NEGOTIATING: {
            _K.GO_NEG_REQUEST: _on_crossed_goneg_request,
            _K.GO_NEG_RESPONSE: _on_goneg_response,
            _K.GO_NEG_CONFIRMATION: _on_goneg_confirmation,
            _K.DATA: _on_data},
        _S.JOINING: {
            _K.PROVISION_DISCOVERY_RESPONSE: _on_pd_response,
            _K.DATA: _on_data},
        _S.PROVISIONING_PHASE1: _CLIENT_PROVISIONING,
        _S.PROVISIONING_PHASE2: _CLIENT_PROVISIONING,
        _S.GO_OPERATING: {
            _K.PROBE_REQUEST: _on_owner_probe_request,
            _K.PROVISION_DISCOVERY_REQUEST: _on_owner_pd_request,
            _K.AUTH: _on_owner_auth,
            _K.DATA: _on_data},
        _S.CLIENT_ASSOCIATED: {_K.DATA: _on_data},
    }

    def on_frame(self, frame: Frame) -> None:
        """The medium's entry point: run the handler the current state has
        for the frame's kind, if any."""
        handler = self.HANDLERS[self.state].get(frame.kind)
        if handler is not None:
            handler(self, frame)
