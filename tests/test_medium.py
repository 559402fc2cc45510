"""Channel filtering, broadcast delivery, the ACK layer and retransmission."""

from collections import Counter
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfdsim import Simulation, default_scenario
from wfdsim.engine import Engine, Rng
from wfdsim.medium import (
    ALL_KINDS,
    BROADCAST,
    BROADCAST_KINDS,
    Frame,
    FrameKind,
    Medium,
    MediumParams,
    bare_frame,
)
from wfdsim.peer import Peer
from wfdsim.simtime import SECOND


def make_medium(params=None, devices=("a", "b", "c"), sink=None):
    engine = Engine()
    medium = Medium(engine, params or MediumParams(), Rng(99), on_delivery=sink)
    received = {d: [] for d in devices}
    for d in devices:
        medium.register(d, lambda frame, d=d: received[d].append(frame))
    return engine, medium, received


def probe(src):
    return Frame(kind=FrameKind.PROBE_REQUEST, src=src, dst=BROADCAST)


def test_broadcast_reaches_devices_on_channel():
    engine, medium, received = make_medium()
    medium.tune("b", 0)
    medium.tune("c", 3)
    medium.transmit(probe("a"))
    engine.run_until(SECOND)
    assert len(received["b"]) == 1
    assert received["c"] == []
    assert received["a"] == []  # no self-delivery


def test_tune_changes_delivery_immediately():
    engine, medium, received = make_medium()
    medium.tune("b", 3)
    medium.transmit(probe("a"))
    engine.run_until(SECOND)
    assert received["b"] == []


def test_tune_rejects_out_of_range_channel():
    _engine, medium, _received = make_medium()
    with pytest.raises(ValueError, match="out of range"):
        medium.tune("a", 11)
    with pytest.raises(ValueError, match="unknown device"):
        medium.tune("nobody", 0)


def test_delivery_takes_one_airtime():
    engine, medium, received = make_medium()
    rows = []
    medium.on_delivery = lambda eid, t, frame, receivers: rows.append(
        (t, receivers))
    medium.transmit(probe("a"))
    engine.run_until(SECOND)
    assert rows == [(MediumParams().frame_airtime, ["b", "c"])]


def test_receiver_set_snapshot_at_transmit_time():
    engine, medium, received = make_medium()
    medium.transmit(probe("a"))
    medium.tune("b", 5)  # after transmit, before delivery
    engine.run_until(SECOND)
    assert len(received["b"]) == 1  # still delivered: set was fixed at transmit


def test_full_loss_delivers_nothing():
    engine, medium, received = make_medium(MediumParams(loss_probability=1.0))
    medium.transmit(probe("a"))
    engine.run_until(SECOND)
    assert received["b"] == [] and received["c"] == []


def test_unicast_is_acked_after_turnaround_plus_airtime():
    engine, medium, received = make_medium()
    params = MediumParams()
    outcomes = []
    frame = Frame(kind=FrameKind.GO_NEG_REQUEST, src="a", dst="b",
                  go_intent=7)
    medium.send_with_ack(frame, outcomes.append)
    engine.run_until(SECOND)
    assert outcomes == ["acked"]
    # the protocol handler saw the frame exactly once
    assert [f.kind for f in received["b"]] == [FrameKind.GO_NEG_REQUEST]
    # ACKs are link business: they never reach the protocol layer
    assert received["a"] == []


def test_ack_equals_the_frame_the_constructor_builds():
    engine, medium, _received = make_medium()
    acks = []
    medium.on_delivery = lambda eid, t, frame, receivers: acks.extend(
        [frame] if frame.kind is FrameKind.ACK else [])
    frame = Frame(kind=FrameKind.AUTH, src="a", dst="b", auth_seq=1)
    medium.send_with_ack(frame, lambda outcome: None)
    engine.run_until(SECOND)
    expected = Frame(kind=FrameKind.ACK, src="b", dst="a", acks=frame,
                     channel=0)
    [ack] = acks
    assert ack == expected and repr(ack) == repr(expected)
    assert ack.acks is frame and ack.dispatched is False
    built = bare_frame(FrameKind.ACK, "b", "a")
    built.acks = frame
    built.channel = 0
    assert built == expected and repr(built) == repr(expected)


@pytest.mark.parametrize("kind", sorted(
    ALL_KINDS - BROADCAST_KINDS - {FrameKind.GO_NEG_REQUEST,
                                   FrameKind.GO_NEG_RESPONSE},
    key=lambda kind: kind.value), ids=lambda kind: kind.name)
def test_bare_frame_equals_the_frame_the_constructor_builds(kind):
    # every field it leaves unset reads the constructor's default
    built = bare_frame(kind, "a", "b")
    expected = Frame(kind=kind, src="a", dst="b")
    assert built == expected and repr(built) == repr(expected)
    assert built.dispatched is False and "dispatched" not in vars(built)


def test_broadcast_address_is_not_a_device_name():
    # a device named BROADCAST would be sent unicast frames and ACKs that
    # read as broadcasts
    _engine, medium, _received = make_medium()
    with pytest.raises(ValueError, match="broadcast address"):
        medium.register(BROADCAST, lambda frame: None)
    assert BROADCAST not in medium.hears


def test_ack_arrival_time():
    engine, medium, _received = make_medium()
    params = MediumParams()
    done = []
    medium.send_with_ack(
        Frame(kind=FrameKind.AUTH, src="a", dst="b", auth_seq=1),
        lambda outcome: done.append(engine.now))
    engine.run_until(SECOND)
    # airtime out, turnaround, airtime back
    assert done == [2 * params.frame_airtime + params.ack_turnaround]


def test_unreachable_peer_fails_after_all_retries():
    engine, medium, _received = make_medium()
    params = MediumParams()
    medium.tune("b", 7)  # b cannot hear channel 0
    attempts = []
    medium.on_delivery = lambda eid, t, frame, receivers: attempts.append(
        (frame.kind, receivers))
    outcomes = []
    medium.send_with_ack(
        Frame(kind=FrameKind.AUTH, src="a", dst="b", auth_seq=1),
        outcomes.append)
    engine.run_until(SECOND)
    assert outcomes == ["failed"]
    # 1 + max_retries transmissions, observed only by device c
    assert attempts == [(FrameKind.AUTH, ["c"])] * (1 + params.max_retries)


def test_lost_ack_triggers_retransmission_but_single_dispatch():
    engine, medium, received = make_medium()
    dropped = []

    def drop_first_ack(frame, receiver):
        if frame.kind is FrameKind.ACK and not dropped:
            dropped.append(frame)
            return True
        return False

    medium.drop_filter = drop_first_ack
    outcomes = []
    medium.send_with_ack(
        Frame(kind=FrameKind.AUTH, src="a", dst="b", auth_seq=1),
        outcomes.append)
    engine.run_until(SECOND)
    assert outcomes == ["acked"]
    # duplicate reached b but was dispatched to the protocol only once
    assert len(received["b"]) == 1


@pytest.mark.parametrize("s", [1, 2, 3])
def test_lossy_runs_dispatch_each_received_unicast_frame_once(s):
    config = default_scenario(10)
    config = replace(config, medium=replace(config.medium,
                                            loss_probability=0.2))
    sim = Simulation(config, seed=s << 16, collect_trace=False)
    medium = sim.medium
    # counts keyed by id(frame); *frames* keeps every counted frame alive
    copies, dispatches, frames = Counter(), Counter(), []

    def count_copies(_event_id, _time, frame, receivers):
        if frame.kind is not FrameKind.ACK and frame.dst in receivers:
            frames.append(frame)
            copies[id(frame)] += 1

    def counting(handler):
        def count_dispatch(frame):
            if frame.dst != BROADCAST:
                dispatches[id(frame)] += 1
            handler(frame)
        return count_dispatch

    medium.on_delivery = count_copies
    for device, handler in medium._handlers.items():
        medium._handlers[device] = counting(handler)
    sim.run(until=20 * SECOND)
    assert max(copies.values()) > 1, "no duplicate reached an addressee"
    assert dispatches == dict.fromkeys(copies, 1)


def test_sender_serializes_acknowledged_frames():
    engine, medium, _received = make_medium()
    order = []
    medium.on_delivery = lambda eid, t, frame, receivers: order.extend(
        (frame.kind, frame.dst, rx) for rx in receivers)
    medium.send_with_ack(Frame(kind=FrameKind.AUTH, src="a", dst="b",
                               auth_seq=1), lambda o: None)
    medium.send_with_ack(Frame(kind=FrameKind.AUTH, src="a", dst="c",
                               auth_seq=1), lambda o: None)
    engine.run_until(SECOND)
    auth_rows = [(dst, rx) for kind, dst, rx in order if kind is FrameKind.AUTH]
    ack_rows = [rx for kind, _dst, rx in order if kind is FrameKind.ACK]
    # second frame went on air only after the first was acknowledged
    assert auth_rows == [("b", "b"), ("b", "c"), ("c", "b"), ("c", "c")]
    assert ack_rows.index("a") < len(ack_rows)


def test_bystander_hears_unicast_in_trace_only():
    engine, medium, received = make_medium()
    heard = []
    medium.on_delivery = lambda eid, t, frame, receivers: heard.append(
        (frame.kind, list(receivers)))
    outcomes = []
    medium.send_with_ack(
        Frame(kind=FrameKind.AUTH, src="a", dst="b", auth_seq=1),
        outcomes.append)
    engine.run_until(SECOND)
    assert outcomes == ["acked"]
    assert heard == [(FrameKind.AUTH, ["b", "c"]), (FrameKind.ACK, ["a", "c"])]
    assert [f.kind for f in received["b"]] == [FrameKind.AUTH]
    assert received["c"] == []  # the bystander's handler never sees it


def test_dropped_receiver_is_not_traced_dispatched_or_acked():
    engine, medium, received = make_medium()
    medium.drop_filter = lambda frame, receiver: receiver == "b"
    heard = []
    medium.on_delivery = lambda eid, t, frame, receivers: heard.append(
        (frame.kind, list(receivers)))
    outcomes = []
    medium.send_with_ack(
        Frame(kind=FrameKind.AUTH, src="a", dst="b", auth_seq=1),
        outcomes.append)
    engine.run_until(SECOND)
    assert outcomes == ["failed"]
    attempts = 1 + MediumParams().max_retries
    assert heard == [(FrameKind.AUTH, ["c"])] * attempts  # no ACK ever sent
    assert received["b"] == [] and received["c"] == []


def test_trace_hook_sees_all_receivers_before_any_handler():
    engine = Engine()
    heard = []
    medium = Medium(engine, MediumParams(), Rng(99),
                    on_delivery=lambda eid, t, frame, receivers: heard.extend(
                        receivers))

    def crash(frame):
        raise RuntimeError("handler failed")

    received = []
    medium.register("a", received.append)
    medium.register("b", crash)
    medium.register("c", received.append)
    medium.transmit(probe("a"))
    with pytest.raises(RuntimeError, match="handler failed"):
        engine.run_until(SECOND)
    # c is traced although b's handler raised before c's handler ran
    assert heard == ["b", "c"]
    assert received == []


def beacon(src):
    return Frame(kind=FrameKind.BEACON, src=src, dst=BROADCAST)


def test_a_plainly_registered_device_hears_every_kind():
    _engine, medium, _received = make_medium()
    for kind in FrameKind:
        assert kind in medium.hears["a"]


def test_broadcast_skips_the_handler_of_a_receiver_deaf_to_its_kind():
    # r2 hears probe requests but not beacons: it keeps its trace row and
    # its loss draw for both, and the receivers that hear a frame are called
    # in registration order
    seed, p, frames = 77, 0.3, 8
    receivers = [f"r{i}" for i in range(6)]
    engine = Engine()
    rows, calls = [], []
    medium = Medium(engine, MediumParams(loss_probability=p), Rng(seed),
                    on_delivery=lambda eid, t, frame, rx: rows.append(list(rx)))
    for device in ["s"] + receivers:
        medium.register(device, lambda frame, d=device: calls.append(
            (frame.kind, d)))
    medium.hears["r2"] = frozenset(FrameKind) - {FrameKind.BEACON}
    sent = [beacon if i % 2 == 0 else probe for i in range(frames)]
    for i, build in enumerate(sent):
        engine.schedule(i * SECOND, lambda build=build: medium.transmit(build("s")))
    engine.run_until(frames * SECOND)
    expected, draws = reference_survivors(seed, p, receivers, set(), frames)
    assert rows == expected
    assert drawn(medium) == draws
    heard = [(build("s").kind, r) for build, row in zip(sent, expected)
             for r in row]
    assert (FrameKind.BEACON, "r2") in heard
    assert (FrameKind.PROBE_REQUEST, "r2") in heard
    assert calls == [(kind, r) for kind, r in heard
                     if (kind, r) != (FrameKind.BEACON, "r2")]


def test_unicast_reaches_its_addressee_whatever_it_hears():
    engine, medium, received = make_medium()
    medium.hears["b"] = frozenset()
    outcomes = []
    medium.send_with_ack(
        Frame(kind=FrameKind.AUTH, src="a", dst="b", auth_seq=1),
        outcomes.append)
    engine.run_until(SECOND)
    assert outcomes == ["acked"]
    assert [f.kind for f in received["b"]] == [FrameKind.AUTH]


def test_every_broadcast_a_peer_is_given_finds_a_handler(monkeypatch):
    on_frame = Peer.on_frame
    broadcasts, unhandled = [], []

    def spy(peer, frame):
        if frame.dst == BROADCAST:
            broadcasts.append(frame.kind)
            if frame.kind not in peer.handlers[peer.state]:
                unhandled.append((peer.state, frame.kind))
        on_frame(peer, frame)

    # the medium registers each peer's bound on_frame, so patch before the
    # peers are built
    monkeypatch.setattr(Peer, "on_frame", spy)
    Simulation(default_scenario(40), seed=1 << 16).run()
    assert {FrameKind.BEACON, FrameKind.PROBE_REQUEST} <= set(broadcasts)
    assert unhandled == []


def test_broadcast_may_not_use_send_with_ack():
    _engine, medium, _received = make_medium()
    with pytest.raises(ValueError):
        medium.send_with_ack(probe("a"), lambda o: None)


def test_cancel_pending_suppresses_outcome():
    engine, medium, _received = make_medium()
    medium.tune("b", 7)
    outcomes = []
    medium.send_with_ack(
        Frame(kind=FrameKind.AUTH, src="a", dst="b", auth_seq=1),
        outcomes.append)
    assert medium.has_pending("a", "b")
    assert medium.cancel_pending("a", "b") is True
    assert not medium.has_pending("a", "b")
    engine.run_until(SECOND)
    assert outcomes == []


def test_cancel_pending_without_a_send_to_dst_keeps_the_queue():
    engine, medium, _received = make_medium()
    medium.tune("b", 7)
    medium.send_with_ack(
        Frame(kind=FrameKind.AUTH, src="a", dst="b", auth_seq=1),
        lambda outcome: None)
    queue = list(medium._pending["a"])
    counts = (engine.scheduled_count, engine.cancelled_count)
    assert medium.cancel_pending("a", "c") is False
    assert list(medium._pending["a"]) == queue
    assert (engine.scheduled_count, engine.cancelled_count) == counts


def test_cancel_pending_of_the_head_sends_the_next_at_once():
    engine, medium, _received = make_medium()
    medium.tune("b", 7)  # b never hears a, so a's head waits for its timeout
    deliveries, outcomes = [], []
    medium.on_delivery = lambda eid, t, frame, receivers: deliveries.append(
        (t, frame.kind, frame.dst))
    for dst in ("b", "c"):
        medium.send_with_ack(
            Frame(kind=FrameKind.AUTH, src="a", dst=dst, auth_seq=1),
            lambda outcome, dst=dst: outcomes.append((dst, outcome)))
    head = medium._pending["a"][0]
    assert medium.cancel_pending("a", "b") is True
    assert head.timeout_event[2] is None
    assert [p.frame.dst for p in medium._pending["a"]] == ["c"]
    engine.run_until(SECOND)
    # the head's first attempt was already on air; c's frame went out with
    # it, not an ACK timeout later, and b's is never resent or reported
    airtime = medium.params.frame_airtime
    assert deliveries[:2] == [(airtime, FrameKind.AUTH, "b"),
                              (airtime, FrameKind.AUTH, "c")]
    assert [d for d in deliveries if d[2] == "b"] == deliveries[:1]
    assert outcomes == [("c", "acked")]


def test_transmit_stamps_the_senders_channel():
    engine, medium, received = make_medium()
    medium.tune("a", 4)
    medium.tune("b", 4)
    frame = probe("a")
    assert frame.channel is None  # no caller names a channel
    medium.transmit(frame)
    engine.run_until(SECOND)
    assert frame.channel == 4
    assert received["b"] == [frame] and received["c"] == []


def test_retune_abandons_queued_exchanges_silently():
    engine, medium, _received = make_medium()
    medium.tune("b", 7)  # b never hears a, so a's head waits for its timeout
    senders, outcomes = [], []
    medium.on_delivery = lambda eid, t, frame, receivers: senders.append(
        frame.src)
    for dst in ("b", "c"):
        medium.send_with_ack(
            Frame(kind=FrameKind.AUTH, src="a", dst=dst, auth_seq=1),
            outcomes.append)
    head = medium._pending["a"][0]
    medium.tune("a", 3)
    engine.run_until(SECOND)
    assert senders == ["a"]  # only the head's first attempt, already on air
    assert outcomes == []
    assert head.timeout_event[2] is None and engine.cancelled_count == 1
    assert not medium.has_pending("a", "b")
    assert not medium.has_pending("a", "c")


def test_ack_is_not_sent_after_its_sender_retunes():
    engine, medium, received = make_medium()
    params = MediumParams()
    heard = []
    medium.on_delivery = lambda eid, t, frame, receivers: heard.append(
        (frame.kind, frame.channel))
    outcomes = []
    medium.send_with_ack(
        Frame(kind=FrameKind.AUTH, src="a", dst="b", auth_seq=1),
        outcomes.append)
    engine.run_until(params.frame_airtime)  # b has heard the frame
    assert [f.kind for f in received["b"]] == [FrameKind.AUTH]
    medium.tune("b", 3)  # within the ACK turnaround
    engine.run_until(SECOND)
    # every attempt went out on channel 0 and none was acknowledged
    assert heard == [(FrameKind.AUTH, 0)] * (1 + params.max_retries)
    assert outcomes == ["failed"]


def test_medium_params_are_frozen():
    # the medium fixes its loss threshold when it is built, so a loss
    # probability set afterwards would be ignored
    params = MediumParams()
    with pytest.raises(FrozenInstanceError):
        params.loss_probability = 0.5
    assert replace(params, loss_probability=0.5).loss_probability == 0.5


def test_reply_delay_follows_the_params():
    params = MediumParams(ack_turnaround=60_000_000)
    assert params.reply_delay == params.ack_turnaround + params.frame_airtime
    wider = replace(params, frame_airtime=400_000_000)
    assert wider.reply_delay == 460_000_000
    # derived, not a field: equality and repr see the fields alone
    assert "reply_delay" not in repr(params)
    assert params == MediumParams(ack_turnaround=60_000_000)


def test_frame_field_validation():
    with pytest.raises(ValueError):
        Frame(kind=FrameKind.BEACON, src="a", dst="b")  # must broadcast
    with pytest.raises(ValueError):
        Frame(kind=FrameKind.AUTH, src="a", dst=BROADCAST, auth_seq=1)
    with pytest.raises(ValueError):
        Frame(kind=FrameKind.AUTH, src="a", dst="b", auth_seq=1,
              go_intent=5)  # intent only on negotiation frames
    with pytest.raises(ValueError):
        Frame(kind=FrameKind.GO_NEG_REQUEST, src="a", dst="b",
              go_intent=16)


def test_loss_outcomes_reproducible_with_fixed_seed():
    def run(seed):
        engine = Engine()
        medium = Medium(engine, MediumParams(loss_probability=0.5), Rng(seed))
        for d in ("a", "b"):
            medium.register(d, lambda frame: None)
        outcomes = []
        for i in range(20):
            engine.schedule(i * SECOND, lambda i=i: medium.send_with_ack(
                Frame(kind=FrameKind.AUTH, src="a", dst="b",
                      auth_seq=1), outcomes.append))
        engine.run_until(25 * SECOND)
        return outcomes

    assert run(4242) == run(4242)
    assert run(4242) != run(777) or run(4242).count("failed") in (0, 20)


def reference_survivors(seed, p, receivers, filtered, frames):
    """Loss outcomes by the documented rule: every receiver the filter
    passes draws ``Rng.random() < p`` once, except at p = 0 and p = 1.
    Returns the survivors of each frame and the number of draws made."""
    rng = Rng(seed)
    out, draws = [], 0
    for _ in range(frames):
        survivors = []
        for receiver in receivers:
            if receiver in filtered or p >= 1.0:
                continue
            if p > 0.0:
                draws += 1
                if rng.random() < p:
                    continue
            survivors.append(receiver)
        out.append(survivors)
    return out, draws


def drawn(medium):
    """The loss draws *medium* has made; it has no loss stream at p = 0 or
    p = 1, where no draw is made."""
    p = medium.params.loss_probability
    assert (medium.losses is None) == (p in (0.0, 1.0))
    return 0 if medium.losses is None else medium.losses.drawn


def check_loss_path(seed, p, count, with_filter, frames=3):
    receivers = [f"r{i}" for i in range(count)]
    filtered = set(receivers[1::3]) if with_filter else set()
    engine = Engine()
    rows = []
    medium = Medium(engine, MediumParams(loss_probability=p), Rng(seed),
                    on_delivery=lambda eid, t, frame, rx: rows.append(rx))
    for device in ["s", "off-channel"] + receivers:
        medium.register(device, lambda frame: None)
    medium.tune("off-channel", 6)  # never a receiver, so never draws
    if with_filter:
        medium.drop_filter = lambda frame, receiver: receiver in filtered
    for i in range(frames):
        engine.schedule(i * SECOND, lambda: medium.transmit(probe("s")))
    engine.run_until(frames * SECOND)
    expected, draws = reference_survivors(seed, p, receivers, filtered, frames)
    assert rows == expected
    assert drawn(medium) == draws


@pytest.mark.parametrize("p", [0.0, 2.0**-53, 0.05, 0.5, 1.0 - 2.0**-53, 1.0])
@pytest.mark.parametrize("with_filter", [False, True])
@pytest.mark.parametrize("count", [2, 5, 12])
def test_loss_draws_match_reference(p, with_filter, count):
    check_loss_path(seed=1234, p=p, count=count, with_filter=with_filter)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1),
       p=st.one_of(st.sampled_from([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]),
                   st.floats(0.0, 1.0)),
       count=st.integers(2, 12), with_filter=st.booleans())
def test_loss_draws_match_reference_property(seed, p, count, with_filter):
    check_loss_path(seed, p, count, with_filter)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(steps=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2),
                                st.integers(0, 4)), min_size=1, max_size=30))
@example(steps=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 1), (0, 0, 2)])
def test_receivers_match_a_registration_order_scan(steps):
    # each step registers device d<mover> (first mention) and tunes it to
    # *channel*, then d<sender> transmits if registered; the reference
    # scans every registered device in registration order at transmit time
    engine = Engine()
    heard = []
    medium = Medium(engine, MediumParams(channel_count=3), Rng(1),
                    on_delivery=lambda eid, t, frame, receivers: heard.append(
                        receivers))
    order, tuned, expected = [], {}, []
    for mover, channel, sender in steps:
        device, src = f"d{mover}", f"d{sender}"
        if device not in tuned:
            medium.register(device, lambda frame: None)
            order.append(device)
        medium.tune(device, channel)
        tuned[device] = channel
        if src in tuned:
            medium.transmit(probe(src))
            expected.append([d for d in order
                             if d != src and tuned[d] == tuned[src]])
    # deliveries fire after every tune above, so a receiver list that shared
    # state with the index would show the later tunes
    engine.run_until(SECOND)
    assert heard == expected
