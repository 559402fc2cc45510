"""Property checks across many seeds: the invariants hold on every run, not
just the golden ones."""

import pytest

from conftest import live_events, run_standard
from wfdsim import Simulation, parse_config, seconds
from wfdsim.peer import PeerState
from wfdsim.validate import validate_history, validate_trace_text


@pytest.mark.parametrize("seed", range(20))
def test_three_host_runs_satisfy_all_invariants(seed):
    result = run_standard(hosts=3, seed=seed, until=20)
    assert validate_trace_text(result.trace_text()) == []
    assert validate_history(result.history) == []
    # liveness: with defaults and no loss the group always completes
    assert sorted(result.final_states.values()) == \
        ["ClientAssociated", "ClientAssociated", "GoOperating"]
    assert len(result.history.go_events) == 1


@pytest.mark.parametrize("seed", range(10))
def test_lossy_runs_never_break_state_legality(seed):
    config = parse_config("**.medium.lossProbability = 0.2\n", host_count=2)
    result = Simulation(config, seed=seed).run(until=seconds(30))
    # trace shape checks do not apply under loss, but state legality and
    # owner uniqueness must survive any drop pattern
    from wfdsim.validate import check_single_go_history, check_transition_legality
    assert check_transition_legality(result.history) == []
    assert check_single_go_history(result.history) == []


def test_engine_conservation_over_full_run():
    config = parse_config("", host_count=3)
    sim = Simulation(config, seed=4)
    sim.run(until=seconds(20))
    engine = sim.engine
    assert engine.fired_count + engine.cancelled_count + live_events(engine) \
        == engine.scheduled_count


def test_single_owner_at_every_instant():
    # replay the transition log: the set of simultaneously operating owners
    # per group never exceeds one
    result = run_standard(hosts=3, seed=2, until=20)
    operating = set()
    for tr in result.history.transitions:
        if tr.new == PeerState.GO_OPERATING.value:
            operating.add(tr.host)
            assert len(operating) == 1
        elif tr.old == PeerState.GO_OPERATING.value:
            operating.discard(tr.host)


def test_no_self_delivery_ever():
    result = run_standard(hosts=3, seed=6, until=20)
    for record in result.collector.records:
        assert record.src != record.dst
