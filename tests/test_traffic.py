"""Ping generation, owner relaying, replies and round-trip statistics."""

import json
from collections import Counter

import pytest

from conftest import relay_config, transmissions
from wfdsim import Simulation, parse_config, seconds
from wfdsim.medium import ACK, BROADCAST, DATA, Frame
from wfdsim.traffic import TAG_RE


def relay_scenario(extra=""):
    text = ("**.host[0].wlan[0].mgmt.WiFiDirectGO = true\n"
            '*.host[1].pingApp[0].destAddr = "host[2]"\n'
            "*.host[1].pingApp[0].sendInterval = 1s\n" + extra)
    return parse_config(text, host_count=3)


def direct_scenario():
    text = ("**.host[0].wlan[0].mgmt.WiFiDirectGO = true\n"
            '*.host[0].pingApp[0].destAddr = "host[1]"\n'
            "*.host[0].pingApp[0].sendInterval = 1s\n"
            '*.host[1].pingApp[0].destAddr = "host[0]"\n'
            "*.host[1].pingApp[0].sendInterval = 1s\n")
    return parse_config(text, host_count=2)


def ping_transmissions(trace, tag):
    return [(src, rx) for name, src, _t, rx in transmissions(trace) if name == tag]


def test_client_to_client_ping_takes_two_hops_each_way():
    sim = Simulation(relay_scenario(), seed=3)
    result = sim.run(until=seconds(9))
    app = sim.traffic.apps[0]
    assert app.stats.sent > 0 and app.stats.replies > 0
    seq = 5  # a ping sent well after both clients associated
    requests = ping_transmissions(result.trace, f"ping{seq}")
    replies = ping_transmissions(result.trace, f"ping{seq}-reply")
    assert [src for src, _ in requests] == ["host[1]", "host[0]"]
    assert [src for src, _ in replies] == ["host[2]", "host[0]"]


def test_round_trip_is_eight_frames_through_the_owner():
    sim = Simulation(relay_scenario(), seed=3)
    result = sim.run(until=seconds(9))
    txs = transmissions(result.trace)
    seq = 5
    involved = [(name, src) for name, src, _t, _r in txs
                if name in (f"ping{seq}", f"ping{seq}-reply", "ACK")]
    start = involved.index((f"ping{seq}", "host[1]"))
    window = involved[start:start + 8]
    assert window == [
        (f"ping{seq}", "host[1]"), ("ACK", "host[0]"),
        (f"ping{seq}", "host[0]"), ("ACK", "host[2]"),
        (f"ping{seq}-reply", "host[2]"), ("ACK", "host[0]"),
        (f"ping{seq}-reply", "host[0]"), ("ACK", "host[1]"),
    ]


def test_owner_pings_client_directly_single_hop():
    sim = Simulation(direct_scenario(), seed=8)
    result = sim.run(until=seconds(9))
    seq = 6  # both apps use this seq; tell them apart by the sender
    requests = ping_transmissions(result.trace, f"ping{seq}")
    replies = ping_transmissions(result.trace, f"ping{seq}-reply")
    assert [src for src, _ in requests if src == "host[0]"] == ["host[0]"]
    assert [src for src, _ in replies if src == "host[1]"] == ["host[1]"]


def test_client_pings_owner_directly():
    sim = Simulation(direct_scenario(), seed=8)
    result = sim.run(until=seconds(9))
    app = next(a for a in sim.traffic.apps if a.config.owner == "host[1]")
    assert app.stats.replies > 0
    seq = 6
    requests = ping_transmissions(result.trace, f"ping{seq}")
    # two apps share the seq space; find host[1]'s request
    host1_requests = [r for r in requests if r[0] == "host[1]"]
    assert len(host1_requests) == 1


def test_first_ping_sent_only_after_association():
    sim = Simulation(relay_scenario(), seed=3)
    result = sim.run(until=seconds(9))
    assoc = {host: t for t, host, _go, _ssid in result.history.associations}
    first_data = next(r for r in result.trace if r.frame_name.startswith("ping"))
    assert first_data.time > assoc["host[1]"]
    app = sim.traffic.apps[0]
    # ticks run at 0s..9s inclusive; at least the t=0 tick was deferred
    assert app.stats.sent < 10
    # the sequence number keeps counting through deferred ticks
    assert first_data.frame_name != "ping0"


def test_replies_equal_sends_when_last_ping_can_settle():
    # both endpoints associate within the first second; a horizon half an
    # interval past the last tick leaves every round trip time to finish
    sim = Simulation(relay_scenario(), seed=3)
    sim.run(until=seconds(8.5))
    app = sim.traffic.apps[0]
    assert app.stats.sent > 0
    assert app.stats.replies == app.stats.sent
    assert app.stats.received == app.stats.sent


# host[1] pings host[2] twice over: with the default prefix and with "pong"
TWO_APPS = ('*.host[1].pingApp[1].destAddr = "host[2]"\n'
            "*.host[1].pingApp[1].sendInterval = 1s\n"
            '*.host[1].pingApp[1].payloadPrefix = "pong"\n')


def test_two_apps_of_one_host_pair_are_told_apart_by_prefix():
    sim = Simulation(relay_scenario(TWO_APPS), seed=3)
    sim.run(until=seconds(8.5))
    ping, pong = sim.traffic.apps
    assert pong.config.payload_prefix == "pong"
    for app in (ping, pong):
        assert app.stats.sent > 0
        assert app.stats.received == app.stats.replies == app.stats.sent


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 16: the metrics documents do not "
                   "tell apart two ping apps of one host pair")
def test_metrics_tell_apart_two_apps_of_one_host_pair():
    result = Simulation(relay_scenario(TWO_APPS), seed=3).run(until=seconds(8.5))
    keys = Counter(line.split(" = ")[0]
                   for line in result.metrics_flat().splitlines())
    assert [key for key, count in keys.items() if count > 1] == []
    apps = json.loads(result.metrics_json())["ping_apps"]
    assert all(app.get("payload_prefix") for app in apps)


@pytest.mark.parametrize("loss", [0.05, 0.3])
@pytest.mark.parametrize("seed", [1 << 16, 2 << 16, 3 << 16])
def test_direct_built_frames_equal_the_constructors(loss, seed):
    # Data frames and ACKs skip Frame.__post_init__; each one on air must be
    # the frame the constructor builds, and one that passes its checks
    sim = Simulation(relay_config(loss), seed=seed)
    built = Counter()
    record = sim.medium.on_delivery

    def check(event_id, time, frame, receivers):
        if frame.kind is DATA or frame.kind is ACK:
            expected = Frame(kind=frame.kind, src=frame.src, dst=frame.dst,
                             channel=frame.channel,
                             payload_tag=frame.payload_tag,
                             final_dst=frame.final_dst,
                             orig_src=frame.orig_src, acks=frame.acks)
            assert frame == expected and repr(frame) == repr(expected)
            assert frame.dst != BROADCAST
            if frame.kind is DATA:
                assert TAG_RE.fullmatch(frame.payload_tag)
            built[frame.kind] += 1
        record(event_id, time, frame, receivers)

    sim.medium.on_delivery = check
    sim.run(until=seconds(20))
    assert built[ACK] > 100
    # at loss 0.3 no client of these seeds associates within 20 s (ROADMAP
    # items 10 and 12), so only the management frames' ACKs are checked
    if loss < 0.1:
        assert built[DATA] > 100


def test_rtt_positive_and_two_hop_slower_than_one_hop():
    relay_sim = Simulation(relay_scenario(), seed=3)
    relay_sim.run(until=seconds(9))
    relay_rtts = relay_sim.traffic.apps[0].stats.rtts

    direct_sim = Simulation(direct_scenario(), seed=8)
    direct_sim.run(until=seconds(9))
    direct_rtts = direct_sim.traffic.apps[0].stats.rtts

    assert relay_rtts and direct_rtts
    assert all(rtt > 0 for rtt in relay_rtts + direct_rtts)
    assert min(relay_rtts) > max(direct_rtts)


def test_ping_to_nonmember_is_dropped_and_counted():
    extra = ("**.host[2].wlan[0].mgmt.WiFiDirectUsed = false\n")
    sim = Simulation(relay_scenario(extra), seed=3)
    result = sim.run(until=seconds(9))
    assert result.final_states["host[2]"] == "Idle"
    assert len(result.history.relay_drops) > 0
    assert result.metrics.relay_drops == len(result.history.relay_drops)
    # nothing was forwarded to the silent host
    forwarded = [r for r in result.trace
                 if r.frame_name.startswith("ping") and r.src == "host[0]"]
    assert forwarded == []
    assert sim.traffic.apps[0].stats.replies == 0
