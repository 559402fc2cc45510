"""Joining an operating group: provision discovery, late arrivals, the
autonomous scenario."""

from conftest import (
    GOLDEN_AUTONOMOUS_SEED,
    count_frames,
    run_standard,
    transmissions,
)
from wfdsim import Simulation, parse_config, seconds


def test_third_host_joins_instead_of_negotiating():
    result = run_standard(hosts=3, seed=1, until=20)
    assert len(result.history.negotiations) == 1
    assert len(result.history.go_events) == 1
    go = result.history.go_events[0][1]
    members = {m for _t, _ssid, _go, m in result.history.memberships}
    assert len(members) == 2
    assert count_frames(result.trace, "Provision Request") >= 1
    late = [h for h, s in result.final_states.items()
            if s == "ClientAssociated" and h != go]
    assert len(late) == 2


def test_join_exchange_precedes_authentication():
    result = run_standard(hosts=3, seed=1, until=20)
    txs = transmissions(result.trace)
    joiners = {src for name, src, _t, _r in txs if name == "Provision Request"}
    for joiner in joiners:
        order = [name for name, src, _t, _r in txs if src == joiner]
        assert order.index("Provision Request") < order.index("Authentication")


def test_autonomous_owner_beacons_first(autonomous_config):
    result = Simulation(autonomous_config,
                        seed=GOLDEN_AUTONOMOUS_SEED).run(until=seconds(8))
    host0_frames = [r.frame_name for r in result.trace if r.src == "host[0]"]
    assert host0_frames[0] == "Beacon"
    assert result.final_states == {"host[0]": "GoOperating",
                                   "host[1]": "ClientAssociated",
                                   "host[2]": "ClientAssociated"}


def test_autonomous_owner_never_scans(autonomous_config):
    result = Simulation(autonomous_config,
                        seed=GOLDEN_AUTONOMOUS_SEED).run(until=seconds(8))
    states = [t.new for t in result.history.transitions if t.host == "host[0]"]
    assert states == ["GoOperating"]
    assert count_frames(result.trace, "Probe Request") > 0  # joiners probed


def test_both_joiners_become_members(autonomous_config):
    result = Simulation(autonomous_config,
                        seed=GOLDEN_AUTONOMOUS_SEED).run(until=seconds(8))
    members = [(m, go) for _t, _ssid, go, m in result.history.memberships]
    assert sorted(m for m, _ in members) == ["host[1]", "host[2]"]
    assert all(go == "host[0]" for _, go in members)


def test_provision_requests_precede_owner_responses(autonomous_config):
    result = Simulation(autonomous_config,
                        seed=GOLDEN_AUTONOMOUS_SEED).run(until=seconds(8))
    txs = transmissions(result.trace)
    for joiner in ("host[1]", "host[2]"):
        request_at = next(i for i, (name, src, _t, _r) in enumerate(txs)
                          if name == "Provision Request" and src == joiner)
        response_at = next(i for i, (name, src, _t, rx) in enumerate(txs)
                           if name == "Provision discovery Response"
                           and src == "host[0]" and joiner in rx)
        assert request_at < response_at


def test_join_via_active_scan_probe_response():
    # the group is up before the joiner starts: its scan probe is answered by
    # the owner and the join follows without any beacon having been heard
    text = ("**.host[0].wlan[0].mgmt.WiFiDirectGO = true\n"
            "**.host[0].wlan[0].mgmt.beaconStartOffset = 100ms\n")
    config = parse_config(text, host_count=2)
    for seed in range(6):
        result = Simulation(config, seed=seed).run(until=seconds(8))
        assert result.final_states["host[1]"] == "ClientAssociated", seed


def test_joining_shape_every_exchange_frame_is_acked(autonomous_config):
    from wfdsim.trace import parse_trace_text
    from wfdsim.validate import check_ack_pairing, group_transmissions

    result = Simulation(autonomous_config,
                        seed=GOLDEN_AUTONOMOUS_SEED).run(until=seconds(8))
    txs, ordering = group_transmissions(parse_trace_text(result.trace_text()))
    assert ordering == []
    violations, pairing = check_ack_pairing(txs)
    assert violations == []
    for event_id, _time, _src, name, _kind, _receivers in txs:
        if name == "Provision Request":
            assert pairing[event_id] == "host[0]"
        if name == "Provision discovery Response":
            assert pairing[event_id] in ("host[1]", "host[2]")
