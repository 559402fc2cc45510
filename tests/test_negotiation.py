"""Three-way handshake: ordering, role election, failure recovery and the
crossed-request race."""

from conftest import run_standard, transmissions
from wfdsim import Simulation, default_scenario, parse_config, seconds
from wfdsim.engine import Engine, Rng
from wfdsim.history import History
from wfdsim.medium import Frame, FrameKind, Medium, MediumParams
from wfdsim.peer import Peer, PeerConfig, PeerState, _Negotiation
from wfdsim.validate import check_intent_argmax

HANDSHAKE = ["GO Negotiation Request Frame", "ACK",
             "GO Negotiation Response Frame", "ACK",
             "GO Negotiation Confirmation Frame", "ACK"]


def handshake_index(names):
    for i in range(len(names) - len(HANDSHAKE) + 1):
        if names[i:i + len(HANDSHAKE)] == HANDSHAKE:
            return i
    return None


def test_handshake_order_and_first_beacon():
    result = run_standard(hosts=2, seed=1, until=10)
    txs = transmissions(result.trace)
    names = [name for name, _s, _t, _r in txs]
    start = handshake_index(names)
    assert start is not None, names
    request_src = txs[start][1]
    confirmation_src = txs[start + 4][1]
    assert request_src == confirmation_src  # initiator sends both
    winner = result.history.negotiations[0].winner
    beacons = [(i, src) for i, (name, src, _t, _r) in enumerate(txs)
               if name == "Beacon"]
    assert beacons, "winner must beacon after the handshake"
    first_beacon_index, first_beacon_src = beacons[0]
    assert first_beacon_src == winner
    assert first_beacon_index > start + 5


def test_alternating_handshake_endpoints():
    result = run_standard(hosts=2, seed=1, until=10)
    txs = transmissions(result.trace)
    names = [name for name, _s, _t, _r in txs]
    start = handshake_index(names)
    sources = [txs[start + i][1] for i in range(6)]
    # request/ack/response/ack/confirmation/ack strictly alternate sides
    assert sources[0] == sources[3] == sources[4]
    assert sources[1] == sources[2] == sources[5]
    assert sources[0] != sources[1]


def test_equal_intents_elect_smaller_address():
    result = run_standard(hosts=2, seed=1, until=10)
    neg = result.history.negotiations[0]
    assert neg.initiator_intent == neg.responder_intent == 7
    assert neg.winner == "host[0]"
    assert result.final_states["host[0]"] == "GoOperating"


def test_configured_intents_decide_owner():
    text = ("**.host[0].wlan[0].mgmt.GOIntent = 2\n"
            "**.host[1].wlan[0].mgmt.GOIntent = 11\n")
    config = parse_config(text, host_count=2)
    result = Simulation(config, seed=1).run(until=seconds(10))
    assert result.final_states["host[1]"] == "GoOperating"
    assert result.final_states["host[0]"] == "ClientAssociated"
    assert check_intent_argmax(result.history) == []


def test_lost_response_recovers_to_find_and_eventually_forms():
    config = default_scenario(2)
    sim = Simulation(config, seed=1)
    dropped = []

    def drop_first_response(frame, receiver):
        if frame.kind is FrameKind.GO_NEG_RESPONSE and len(dropped) < 4:
            dropped.append(frame)
            return True
        return False

    sim.medium.drop_filter = drop_first_response
    result = sim.run(until=seconds(30))
    assert dropped, "the filter must have fired"
    # both sides fell back to the find phase at least once...
    falls = [t for t in result.history.transitions
             if (t.old, t.new) == ("Negotiating", "FindListen")]
    assert falls
    # ...and a later attempt completed the formation
    assert sorted(result.final_states.values()) == \
        ["ClientAssociated", "GoOperating"]


def test_lost_confirmation_acks_do_not_stall_the_responder():
    # The responder completes on the Confirmation, the initiator only on its
    # ACK.  With every copy of that ACK lost, the initiator falls back to
    # find; on these seeds it was the owner-to-be, so the responder waits
    # in ProvisioningPhase1 for a beacon that never comes, until its guard
    # sends it back to Scan.
    for seed in (1, 2, 5, 6, 8):
        sim = Simulation(default_scenario(2), seed=seed)
        dropped = []

        def drop_confirmation_acks(frame, receiver):
            if (frame.kind is FrameKind.ACK
                    and frame.acks.kind is FrameKind.GO_NEG_CONFIRMATION):
                dropped.append(frame)
                return True
            return False

        sim.medium.drop_filter = drop_confirmation_acks
        result = sim.run(until=seconds(20))
        assert dropped, "the filter must have fired"
        assert sorted(result.final_states.values()) == \
            ["ClientAssociated", "GoOperating"], (seed, result.final_states)


def test_beacon_during_negotiation_is_ignored():
    # three standard hosts: two negotiate, the third's later beacons must not
    # disturb them; conversely a beacon seen while negotiating is ignored by
    # the state machine (no Joining transition out of Negotiating exists)
    result = run_standard(hosts=3, seed=1, until=20)
    for t in result.history.transitions:
        assert (t.old, t.new) != ("Negotiating", "Joining")


def build_crossed_initiators():
    """Two peers that both believe they initiated negotiation with the other:
    unreachable through organic discovery (searchers never answer searchers),
    so the race is staged directly."""
    engine = Engine()
    medium = Medium(engine, MediumParams(), Rng(0))
    history = History()
    peers = []
    for i in range(2):
        config = PeerConfig(go_intent=7)
        peer = Peer(i, config, engine, medium, Rng(i), history)
        peers.append(peer)
    for peer in peers:
        peer.state = PeerState.NEGOTIATING
        other = peers[1 - peers.index(peer)].address
        peer._sessions[other] = _Negotiation(peer=other, role="initiator")
        peer._reply("goneg-request", FrameKind.GO_NEG_REQUEST, other,
                    lambda peer=peer, other=other: peer._arm_guard(
                        "response-guard", other),
                    go_intent=7, persistent_flag=False)
    return engine, medium, history, peers


def test_crossed_requests_yield_single_handshake():
    engine, medium, history, peers = build_crossed_initiators()
    collector = []
    medium.on_delivery = lambda eid, t, frame, receivers: collector.append(frame)
    engine.run_until(seconds(5))
    kinds = [f.kind for f in collector]
    assert kinds.count(FrameKind.GO_NEG_REQUEST) == 2  # both fired
    assert kinds.count(FrameKind.GO_NEG_RESPONSE) == 1  # one survived
    assert kinds.count(FrameKind.GO_NEG_CONFIRMATION) == 1
    assert sorted(p.state.value for p in peers) == \
        ["ClientAssociated", "GoOperating"]
    # the lower address kept the initiator role and, on equal intents, owns
    assert peers[0].state is PeerState.GO_OPERATING
