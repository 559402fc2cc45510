"""Authentication-frame counts for standard, joining and persistent paths."""

import pytest

from conftest import count_frames, run_standard
from wfdsim import PersistentGroupRecord, Simulation, parse_config, seconds
from wfdsim.medium import FrameKind
from wfdsim.peer import phase2_frames


def persistent_pair_config(n=20):
    text = (f"**.host[0].wlan[0].mgmt.provisioningFrames = {n}\n"
            f"**.host[1].wlan[0].mgmt.provisioningFrames = {n}\n"
            "**.host[0].wlan[0].mgmt.persistent = true\n"
            "**.host[1].wlan[0].mgmt.persistent = true\n")
    return parse_config(text, host_count=2)


@pytest.mark.parametrize("n", [1, 5, 20])
def test_auth_count_equals_configured_n(n):
    text = (f"**.host[0].wlan[0].mgmt.provisioningFrames = {n}\n"
            f"**.host[1].wlan[0].mgmt.provisioningFrames = {n}\n")
    config = parse_config(text, host_count=2)
    result = Simulation(config, seed=1).run(until=seconds(10))
    assert sorted(result.final_states.values()) == \
        ["ClientAssociated", "GoOperating"]
    assert count_frames(result.trace, "Authentication") == n


def test_auth_alternates_between_client_and_owner():
    result = run_standard(hosts=2, seed=1, until=10)
    rows = {}
    for record in result.trace:
        if record.frame_name == "Authentication":
            rows.setdefault(record.event_id, record.src)
    sources = list(rows.values())
    assert len(sources) == 20
    assert len(set(sources[0::2])) == 1  # odd frames all from the client
    assert len(set(sources[1::2])) == 1  # even frames all from the owner
    assert sources[0] != sources[1]
    client = sources[0]
    assert result.final_states[client] == "ClientAssociated"


def test_client_passes_through_both_provisioning_phases():
    result = run_standard(hosts=2, seed=1, until=10)
    client = [h for h, s in result.final_states.items()
              if s == "ClientAssociated"][0]
    states = [t.new for t in result.history.transitions if t.host == client]
    i1 = states.index("ProvisioningPhase1")
    i2 = states.index("ProvisioningPhase2")
    assert i1 < i2 < states.index("ClientAssociated")


def one_frame_pair_config(persistent=False):
    text = "".join(f"**.host[{i}].wlan[0].mgmt.provisioningFrames = 1\n"
                   for i in range(2))
    if persistent:
        text += "".join(f"**.host[{i}].wlan[0].mgmt.persistent = true\n"
                        for i in range(2))
    return parse_config(text, host_count=2)


def client_steps(result):
    """(time, new state) of the associated client's transitions after its
    last find state."""
    client = next(h for h, s in result.final_states.items()
                  if s == "ClientAssociated")
    steps = [(t.time, t.new) for t in result.history.transitions
             if t.host == client]
    last_find = max(i for i, (_, new) in enumerate(steps)
                    if new in ("FindListen", "FindSearch"))
    return steps[last_find + 1:]


def test_one_frame_run_enters_both_phases_at_once():
    # phase 2 starts once half the frames, rounded down, are exchanged: for
    # a one-frame run that is at the start, so the client passes phase 1
    # in the instant it enters it
    result = Simulation(one_frame_pair_config(), seed=1 << 16).run()
    steps = client_steps(result)
    assert [new for _, new in steps] == [
        "Negotiating", "ProvisioningPhase1", "ProvisioningPhase2",
        "ClientAssociated"]
    assert steps[1][0] == steps[2][0] == 2_054_555_999_998  # ps
    assert count_frames(result.trace, "Authentication") == 1


def test_one_frame_persistent_rerun_starts_in_phase_two():
    config = one_frame_pair_config(persistent=True)
    first = Simulation(config, seed=1 << 16).run()
    second = Simulation(config, seed=(1 << 16) + 1,
                        persistent_records=first.persistent_records).run()
    assert [new for _, new in client_steps(second)] == [
        "Joining", "ProvisioningPhase2", "ClientAssociated"]
    assert count_frames(second.trace, "Authentication") == 1


def test_persistent_formation_stores_records_on_both_sides():
    result = Simulation(persistent_pair_config(), seed=5).run(until=seconds(10))
    records = result.persistent_records
    assert set(records) == {"host[0]", "host[1]"}
    roles = {host: [r.my_role for r in recs] for host, recs in records.items()}
    assert sorted(role for rs in roles.values() for role in rs) == ["Client", "GO"]
    ssids = {r.ssid for recs in records.values() for r in recs}
    assert len(ssids) == 1


def test_nonpersistent_formation_stores_nothing():
    result = run_standard(hosts=2, seed=5, until=10)
    assert result.persistent_records == {}


@pytest.mark.parametrize("n", [1, 5, 20])
def test_persistent_reinvocation_skips_negotiation_and_phase1(n):
    config = persistent_pair_config(n)
    first = Simulation(config, seed=5).run(until=seconds(10))
    assert count_frames(first.trace, "Authentication") == n
    rerun = Simulation(config, seed=321,
                       persistent_records=first.persistent_records)
    second = rerun.run(until=seconds(15))
    assert sorted(second.final_states.values()) == \
        ["ClientAssociated", "GoOperating"]
    assert count_frames(second.trace, "Authentication") == phase2_frames(n)
    for name in ("GO Negotiation Request Frame",
                 "GO Negotiation Response Frame",
                 "GO Negotiation Confirmation Frame"):
        assert count_frames(second.trace, name) == 0
    # the same device owns the group again
    assert second.final_states[first.history.go_events[0][1]] == "GoOperating"


def test_reinvoked_client_skips_phase1_state():
    config = persistent_pair_config()
    first = Simulation(config, seed=5).run(until=seconds(10))
    second = Simulation(config, seed=123,
                        persistent_records=first.persistent_records).run(
        until=seconds(15))
    client = [h for h, s in second.final_states.items()
              if s == "ClientAssociated"][0]
    states = [t.new for t in second.history.transitions if t.host == client]
    assert "ProvisioningPhase1" not in states
    assert "ProvisioningPhase2" in states


def test_without_records_full_standard_flow_runs():
    config = persistent_pair_config()
    result = Simulation(config, seed=5).run(until=seconds(10))
    assert count_frames(result.trace, "GO Negotiation Request Frame") >= 1
    assert count_frames(result.trace, "Authentication") == 20


def test_conflicting_stored_roles_fall_back_to_standard_formation():
    config = persistent_pair_config()
    both_go = {
        "host[0]": [PersistentGroupRecord("host[1]", "stale", "GO", "t0")],
        "host[1]": [PersistentGroupRecord("host[0]", "stale", "GO", "t1")],
    }
    result = Simulation(config, seed=9,
                        persistent_records=both_go).run(until=seconds(15))
    assert sorted(result.final_states.values()) == \
        ["ClientAssociated", "GoOperating"]
    assert count_frames(result.trace, "GO Negotiation Request Frame") >= 1
    assert count_frames(result.trace, "Authentication") == 20


def test_provisioning_failure_returns_client_to_scan():
    config = parse_config("", host_count=2)
    sim = Simulation(config, seed=1)
    state = {"dropped": 0}

    def drop_auths(frame, receiver):
        # kill the first provisioning attempt outright
        if frame.kind is FrameKind.AUTH and frame.auth_seq == 3 \
                and state["dropped"] < 8:
            state["dropped"] += 1
            return True
        return False

    sim.medium.drop_filter = drop_auths
    result = sim.run(until=seconds(40))
    rescans = [t for t in result.history.transitions if t.new == "Scan"
               and t.old in ("ProvisioningPhase1", "ProvisioningPhase2")]
    assert rescans, "client should retreat to Scan after a dead exchange"
    assert "ClientAssociated" in result.final_states.values()


def test_lost_ack_of_first_auth_does_not_stall_the_exchange():
    # The owner counts Authentication 1 on arrival and answers with 2 while
    # the client, its ACK lost, still retries 1.  Frame 2 counts 1 as well,
    # so the client answers with 3; were 2 dropped as out of sequence, both
    # ends would wait until the client's guard sent it back to Scan.
    sim = Simulation(parse_config("", host_count=2), seed=1)
    auth1, dropped = [], []

    def drop_ack_of_auth1(frame, receiver):
        if frame.kind is FrameKind.AUTH and frame.auth_seq == 1 and not auth1:
            auth1.append(frame)
        if (frame.kind is FrameKind.ACK and auth1 and not dropped
                and frame.acks is auth1[0]):
            dropped.append(frame)
            return True
        return False

    sim.medium.drop_filter = drop_ack_of_auth1
    result = sim.run(until=seconds(20))
    assert dropped, "the filter must have fired"
    rescans = [t for t in result.history.transitions if t.new == "Scan"
               and t.old in ("ProvisioningPhase1", "ProvisioningPhase2")]
    assert rescans == []
