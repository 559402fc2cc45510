"""Scan behaviour, listen/search alternation and the rendezvous that ends
the discovery phase."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_frames, frame_names, run_standard
from wfdsim import Simulation, default_scenario, parse_config, seconds, sweep_discovery
from wfdsim import runner
from wfdsim.peer import Peer
from wfdsim.simtime import PS_PER_SECOND
from wfdsim.validate import validate_history


def test_scan_probes_every_channel_then_enters_find():
    result = run_standard(hosts=1, seed=3, until=4)
    # a lone host probes into the void: no receivers, hence no trace rows,
    # and the transitions tell the story
    assert result.trace == []
    states = [(t.old, t.new) for t in result.history.transitions
              if t.host == "host[0]"]
    assert states[0] == ("Idle", "Scan")
    assert states[1][1] in ("FindListen", "FindSearch")
    assert result.final_states["host[0]"] in ("FindListen", "FindSearch")


def test_scan_finds_beaconing_owner_and_joins():
    config = parse_config(
        "**.host[0].wlan[0].mgmt.WiFiDirectGO = true\n", host_count=2)
    result = Simulation(config, seed=8).run(until=seconds(6))
    assert result.final_states["host[1]"] == "ClientAssociated"
    transitions = [(t.old, t.new) for t in result.history.transitions
                   if t.host == "host[1]"]
    assert ("Scan", "Joining") in transitions or \
        ("FindListen", "Joining") in transitions or \
        ("FindSearch", "Joining") in transitions


def test_joiner_with_pinned_group_ignores_foreign_owner():
    text = ("**.host[0].wlan[0].mgmt.WiFiDirectGO = true\n"
            '**.host[0].wlan[0].mgmt.strGroup = "alpha"\n'
            '**.host[1].wlan[0].mgmt.strGroup = "beta"\n'
            "**.host[1].wlan[0].mgmt.joinOnly = true\n")
    config = parse_config(text, host_count=2)
    result = Simulation(config, seed=4).run(until=seconds(8))
    # the only group on air is "alpha"; a joiner pinned to "beta" keeps looking
    assert result.final_states["host[1]"] in ("FindListen", "FindSearch", "Scan")
    assert result.history.associations == []


def test_matching_group_selected_among_two_owners():
    text = ("**.host[0].wlan[0].mgmt.WiFiDirectGO = true\n"
            '**.host[0].wlan[0].mgmt.strGroup = "alpha"\n'
            "**.host[1].wlan[0].mgmt.WiFiDirectGO = true\n"
            '**.host[1].wlan[0].mgmt.strGroup = "beta"\n'
            '**.host[2].wlan[0].mgmt.strGroup = "beta"\n')
    config = parse_config(text, host_count=3)
    result = Simulation(config, seed=6).run(until=seconds(10))
    assert result.final_states["host[2]"] == "ClientAssociated"
    assert result.history.associations[0][2] == "host[1]"
    assert result.history.associations[0][3] == "beta"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_social_channels_only_confines_find_but_not_scan(seed):
    # a lone host never leaves discovery, so it runs find phases throughout
    config = parse_config(
        "**.host[0].wlan[0].mgmt.socialChannelsOnly = true\n", host_count=1)
    sim = Simulation(config, seed=seed << 16)
    peer = sim.peers[0]
    tunes = []  # (state, channel) of each of the host's tune calls
    tune = sim.medium.tune

    def spy(device, channel):
        if device == peer.address:
            tunes.append((peer.state.value, channel))
        tune(device, channel)

    sim.medium.tune = spy
    sim.run(until=seconds(10))
    scan = [channel for state, channel in tunes if state == "Scan"]
    assert scan[:11] == list(range(11))
    find = {(state, channel) for state, channel in tunes
            if state in ("FindListen", "FindSearch")}
    assert {state for state, _channel in find} == {"FindListen", "FindSearch"}
    assert {channel for _state, channel in find} <= {0, 5, 10}


def test_two_hosts_discover_each_other():
    result = run_standard(hosts=2, seed=7, until=10)
    # one probe answered with a probe response on a shared channel
    assert count_frames(result.trace, "Probe Response") >= 1
    names = frame_names(result.trace)
    assert "GO Negotiation Request Frame" in names


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_back_to_back_search_probes_still_form(s):
    # with no gap, a searcher has moved on to its next channel by the time
    # the listener's Probe Response lands; it negotiates on the channel it
    # heard the response on, where the listener waits
    config = parse_config("".join(
        f"**.host[{i}].wlan[0].mgmt.searchProbeGap = 0s\n" for i in range(2)))
    result = Simulation(config, seed=s << 16).run()
    assert result.metrics.formation_status == "ok"
    assert validate_history(result.history) == []


def test_rendezvous_requires_one_searcher(monkeypatch):
    # both devices pinned to listen: no probes after the scan, no discovery
    monkeypatch.setattr(Peer, "_enter_find_search",
                        lambda self: self._enter_find_listen())
    result = run_standard(hosts=2, seed=5, until=10)
    assert result.history.negotiations == []
    assert all(state in ("FindListen",) for state in result.final_states.values())


def test_discovery_time_statistics_with_frozen_defaults():
    sweep = sweep_discovery(default_scenario(2), seeds=range(100))
    mean = sweep.mean
    assert mean is not None
    assert 2.0 <= mean <= 3.0, f"calibrated mean drifted to {mean:.3f}s"
    assert sweep.timeouts == []
    assert sweep.seeds_completed_within(30 * PS_PER_SECOND) == 100


@pytest.mark.slow
def test_histogram_counts_half_second_buckets_from_zero():
    half = runner.HISTOGRAM_BUCKET
    assert half == PS_PER_SECOND // 2
    # a sample on a bucket edge opens the next bucket; empty buckets below
    # the last filled one are listed with a zero count; a seed outside the
    # sweep's seeds contributes nothing
    sweep = runner.SweepResult(
        seeds=[1, 2], durations={1: [0, half - 1, half], 2: [3 * half + 7],
                                 9: [20 * half]},
        timeouts=[], wall_seconds=0.0)
    assert sweep.histogram() == [(0.0, 2), (0.5, 1), (1.0, 0), (1.5, 1)]
    for durations in ({}, {1: []}):
        empty = runner.SweepResult(seeds=[1], durations=durations,
                                   timeouts=[1], wall_seconds=0.0)
        assert empty.histogram() == []


def test_discovery_completes_within_30s_for_1000_seeds():
    sweep = sweep_discovery(default_scenario(2), seeds=range(1000))
    assert sweep.timeouts == []
    assert sweep.seeds_completed_within(30 * PS_PER_SECOND) == 1000


@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(runs=st.integers(2, 24), hosts=st.integers(1, 200))
@example(runs=100, hosts=2)  # criterion 4's sweep
def test_no_two_runs_of_a_sweep_share_a_stream(runs, hosts):
    drawn = []
    substream = runner.substream

    def recording_substream(seed, index):
        rng = substream(seed, index)
        drawn.append(rng.seed)
        return rng

    with mock.patch.object(runner, "substream", recording_substream):
        sweep = sweep_discovery(default_scenario(hosts), seeds=range(runs),
                                horizon=0)
    assert len(sweep.seeds) == runs
    assert len(drawn) == runs * (hosts + 1)  # each host and the medium
    assert len(set(drawn)) == len(drawn)
