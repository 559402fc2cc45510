"""Which frames a peer reacts to in which state, and which run an owner's
frame or send outcome acts on.

The ignored (state, kind) pairs below are written out by hand from the
protocol, not read from the peer's dispatch table, so a table entry added or
lost by mistake shows up here.
"""

import pytest

from wfdsim.engine import Engine, Rng
from wfdsim.history import History
from wfdsim.medium import BROADCAST, Frame, FrameKind, Medium, MediumParams
from wfdsim.peer import (GroupView, Peer, PeerConfig, PeerState, _JoinAttempt,
                         _Negotiation, _Provisioning)

K = FrameKind
HANDSHAKE_KINDS = (K.BEACON, K.PROBE_REQUEST, K.PROBE_RESPONSE, K.GO_NEG_REQUEST,
                   K.GO_NEG_RESPONSE, K.GO_NEG_CONFIRMATION,
                   K.PROVISION_DISCOVERY_REQUEST, K.PROVISION_DISCOVERY_RESPONSE,
                   K.AUTH)
PROVISIONING_IGNORES = (K.PROBE_REQUEST, K.PROBE_RESPONSE, K.GO_NEG_REQUEST,
                        K.GO_NEG_RESPONSE, K.GO_NEG_CONFIRMATION,
                        K.PROVISION_DISCOVERY_REQUEST,
                        K.PROVISION_DISCOVERY_RESPONSE)

# frames a peer in each state drops whatever they carry
IGNORED = {
    PeerState.IDLE: HANDSHAKE_KINDS,
    PeerState.SCAN: (K.PROBE_REQUEST, K.GO_NEG_REQUEST, K.GO_NEG_RESPONSE,
                     K.GO_NEG_CONFIRMATION, K.PROVISION_DISCOVERY_REQUEST,
                     K.PROVISION_DISCOVERY_RESPONSE, K.AUTH),
    PeerState.FIND_LISTEN: (K.PROBE_RESPONSE, K.GO_NEG_RESPONSE,
                            K.GO_NEG_CONFIRMATION,
                            K.PROVISION_DISCOVERY_RESPONSE, K.AUTH),
    PeerState.FIND_SEARCH: (K.PROBE_REQUEST, K.GO_NEG_REQUEST, K.GO_NEG_RESPONSE,
                            K.GO_NEG_CONFIRMATION, K.PROVISION_DISCOVERY_REQUEST,
                            K.PROVISION_DISCOVERY_RESPONSE, K.AUTH),
    PeerState.NEGOTIATING: (K.BEACON, K.PROBE_REQUEST, K.PROBE_RESPONSE,
                            K.PROVISION_DISCOVERY_REQUEST,
                            K.PROVISION_DISCOVERY_RESPONSE, K.AUTH),
    PeerState.JOINING: (K.BEACON, K.PROBE_REQUEST, K.PROBE_RESPONSE,
                        K.GO_NEG_REQUEST, K.GO_NEG_RESPONSE,
                        K.GO_NEG_CONFIRMATION, K.PROVISION_DISCOVERY_REQUEST,
                        K.AUTH),
    PeerState.PROVISIONING_PHASE1: PROVISIONING_IGNORES,
    PeerState.PROVISIONING_PHASE2: PROVISIONING_IGNORES,
    PeerState.GO_OPERATING: (K.BEACON, K.PROBE_RESPONSE, K.GO_NEG_REQUEST,
                             K.GO_NEG_RESPONSE, K.GO_NEG_CONFIRMATION,
                             K.PROVISION_DISCOVERY_RESPONSE),
    PeerState.CLIENT_ASSOCIATED: HANDSHAKE_KINDS,
}

SUBJECT, OTHER = "host[0]", "host[1]"


class TrafficSpy:
    def __init__(self):
        self.calls = []

    def on_data(self, peer, frame):
        self.calls.append((peer, frame))


def staged_peer(state: PeerState, address: str = SUBJECT, **config):
    """A peer at *address* put straight into *state*, holding the session
    that state expects with host[1] as its counterpart, so that any handler
    run by mistake finds something to act on."""
    engine = Engine()
    medium = Medium(engine, MediumParams(), Rng(0))
    peer = Peer(int(address[5:-1]), PeerConfig(**config), engine, medium,
                Rng(7), History())
    medium.register(OTHER, lambda frame: None)
    peer.traffic = TrafficSpy()
    peer.state = state
    if state is PeerState.NEGOTIATING:
        peer._sessions[OTHER] = _Negotiation(peer=OTHER, role="initiator")
    elif state is PeerState.JOINING:
        peer._sessions[OTHER] = _JoinAttempt(ssid="", persistent_fast=False)
    elif state in (PeerState.PROVISIONING_PHASE1, PeerState.PROVISIONING_PHASE2):
        peer._sessions[OTHER] = _Provisioning(peer=OTHER, total=4,
                                              awaiting_beacon=True)
    elif state is PeerState.GO_OPERATING:
        peer.group = GroupView(ssid="DIRECT-host[0]", members={SUBJECT},
                               announced=True)
        peer._sessions[OTHER] = _Provisioning(peer=OTHER, total=4)
    elif state is PeerState.CLIENT_ASSOCIATED:
        peer.go_address = OTHER
    return peer


def frame_from_other(kind: FrameKind, src: str = OTHER) -> Frame:
    """A frame of *kind* from *src*, by default host[1], that the state
    expecting it acts on when it comes from the counterpart."""
    broadcast = kind in (K.BEACON, K.PROBE_REQUEST)
    intent = 7 if kind in (K.GO_NEG_REQUEST, K.GO_NEG_RESPONSE) else None
    return Frame(kind=kind, src=src, dst=BROADCAST if broadcast else SUBJECT,
                 channel=0, go_intent=intent, persistent_flag=True,
                 from_go=kind is K.PROBE_RESPONSE, auth_seq=1,
                 payload_tag="ping0", final_dst=SUBJECT, orig_src=OTHER)


def snapshot(peer: Peer):
    sessions = peer._sessions
    medium, engine = peer.medium, peer.engine
    return (peer.state, dict(sessions), repr(sessions), peer.rng._state,
            engine.scheduled_count, engine.cancelled_count,
            medium._tuned[peer.address],
            {src: [(p.frame, p.retries_left) for p in queue]
             for src, queue in medium._pending.items()},
            repr(vars(peer.history)), repr(peer.group), repr(peer.records),
            peer.traffic.calls[:])


# ids from the member names, e.g. ClientAssociated-ProbeRequest, since a
# kind's value is its spaced trace name
@pytest.mark.parametrize("state,kind", [
    (state, kind) for state, kinds in IGNORED.items() for kind in kinds],
    ids=lambda member: member.name.title().replace("_", ""))
def test_ignored_frame_changes_nothing(state, kind):
    peer = staged_peer(state)
    before = snapshot(peer)
    peer.on_frame(frame_from_other(kind))
    assert snapshot(peer) == before


@pytest.mark.parametrize("state", [s for s in PeerState if s is not PeerState.IDLE],
                         ids=lambda state: state.value)
def test_data_reaches_the_traffic_layer(state):
    peer = staged_peer(state)
    frame = frame_from_other(K.DATA)
    peer.on_frame(frame)
    assert peer.traffic.calls == [(peer, frame)]


def test_host_without_wifi_direct_reacts_to_nothing():
    peer = staged_peer(PeerState.IDLE, wifi_direct_used=False)
    peer.start()
    before = snapshot(peer)
    for kind in HANDSHAKE_KINDS + (K.DATA,):
        peer.on_frame(frame_from_other(kind))
    assert snapshot(peer) == before
    assert peer.state is PeerState.IDLE and peer.engine.scheduled_count == 0


THIRD = "host[2]"


# each handshake frame from a host that is not the session's counterpart,
# staged so that the frame would be acted on had the counterpart sent it
@pytest.mark.parametrize("state,kind", [
    (PeerState.NEGOTIATING, K.GO_NEG_REQUEST),
    (PeerState.NEGOTIATING, K.GO_NEG_RESPONSE),
    (PeerState.NEGOTIATING, K.GO_NEG_CONFIRMATION),
    (PeerState.JOINING, K.PROVISION_DISCOVERY_RESPONSE),
    (PeerState.PROVISIONING_PHASE1, K.BEACON),
    (PeerState.PROVISIONING_PHASE1, K.AUTH),
    (PeerState.PROVISIONING_PHASE2, K.BEACON),
    (PeerState.PROVISIONING_PHASE2, K.AUTH)],
    ids=lambda member: member.name.title().replace("_", ""))
def test_third_party_handshake_frame_changes_nothing(state, kind):
    # a crossed request is answered only from a lower address than ours
    peer = staged_peer(state, address="host[3]")
    if kind is K.GO_NEG_CONFIRMATION:
        peer._sessions[OTHER].role = "responder"
        peer._sessions[OTHER].peer_intent = 7
    before = snapshot(peer)
    peer.on_frame(frame_from_other(kind, src=THIRD))
    assert snapshot(peer) == before


@pytest.mark.parametrize("sender", [THIRD, OTHER],
                         ids=["other-client-has-a-run", "no-run-at-all"])
def test_owner_ignores_authentication_from_a_sender_without_a_run(sender):
    owner = staged_peer(PeerState.GO_OPERATING)
    if sender == OTHER:
        del owner._sessions[OTHER]
    before = snapshot(owner)
    owner.on_frame(Frame(kind=K.AUTH, src=sender, dst=SUBJECT, channel=0,
                         auth_seq=1))
    assert snapshot(owner) == before


def test_stale_pd_response_failure_keeps_the_newer_run():
    """A failed PD Response drops only the run that sent it: a newer run
    with the same client, opened while it was retried, survives."""
    owner = staged_peer(PeerState.GO_OPERATING)
    engine, medium = owner.engine, owner.medium
    dropped = []

    def drop_first_response(frame, receiver):
        if frame.kind is K.PROVISION_DISCOVERY_RESPONSE and \
                (not dropped or frame is dropped[0]):
            dropped.append(frame)
            return True
        return False

    medium.drop_filter = drop_first_response
    request = Frame(kind=K.PROVISION_DISCOVERY_REQUEST, src=OTHER, dst=SUBJECT,
                    channel=0)
    owner.on_frame(request)
    # the first response is on the air and lost, its retries still to come
    engine.run_until(medium.params.reply_delay + medium.params.frame_airtime)
    assert len(dropped) == 1
    owner.on_frame(request)
    newer = owner._sessions[OTHER]
    engine.run_until(engine.now + 10 * medium.params.ack_timeout)
    assert len(dropped) == medium.params.max_retries + 1  # it failed
    assert owner._sessions.get(OTHER) is newer


# a frame from the counterpart that the staged state answers after a reply
# delay, the kind of that answer, and a fresh session to replace the old one
REPLIES = {
    "confirmation": (PeerState.NEGOTIATING, K.GO_NEG_RESPONSE,
                     K.GO_NEG_CONFIRMATION,
                     lambda: _Negotiation(peer=OTHER, role="initiator")),
    "authentication": (PeerState.GO_OPERATING, K.AUTH, K.AUTH,
                       lambda: _Provisioning(peer=OTHER, total=4)),
}


def _spy(medium: Medium, name: str, calls: list) -> None:
    """Record the frame of every call of *medium*'s method *name*."""
    real = getattr(medium, name)

    def spy(frame, *args):
        calls.append(frame)
        return real(frame, *args)
    setattr(medium, name, spy)


@pytest.mark.parametrize("change", ["kept", "replaced", "ended"])
@pytest.mark.parametrize("reply", sorted(REPLIES))
def test_reply_is_sent_only_while_its_session_is_current(reply, change):
    """A handshake reply goes out one reply delay after the frame it answers,
    and not at all if its session ended or was replaced in between."""
    state, heard, kind, fresh_session = REPLIES[reply]
    peer = staged_peer(state)
    engine, medium = peer.engine, peer.medium
    acked_sends, transmitted = [], []
    _spy(medium, "send_with_ack", acked_sends)
    _spy(medium, "transmit", transmitted)
    peer.on_frame(frame_from_other(heard))
    if change == "replaced":
        peer._sessions[OTHER] = fresh_session()
    elif change == "ended":
        del peer._sessions[OTHER]
    engine.run_until(engine.now + medium.params.reply_delay)
    sent = [frame for frame in transmitted if frame.kind is kind]
    if change == "kept":
        assert [frame.kind for frame in acked_sends] == [kind]
        assert sent == acked_sends
    else:
        assert acked_sends == [] and sent == []
