"""Broadcast frames built once and sent again.

A probe sweep sends one Probe Request object on every channel, and an owner
one Beacon object every interval; the medium stamps each transmission with
the sender's channel of the moment.  Whatever object a transmission
reuses, its copies reach exactly the devices tuned to its own channel when
it went on air, also when a zero scan dwell puts a whole scan's probes on
air at once and so stamps the object again before its first copy lands.
"""

import pytest

from conftest import SWEEP_VARIANTS
from wfdsim import Simulation, default_scenario
from wfdsim.medium import BEACON, PROBE_REQUEST
from wfdsim.peer import SOCIAL_CHANNELS

# on one channel a sweep is one probe, so sharing shows only on several
VARIANTS = {"default": lambda config: config, "scan0": SWEEP_VARIANTS["scan0"],
            "social": SWEEP_VARIANTS["social"]}


def logged_run(config, seed):
    """Run *config* and return (sim, sent, delivered): per transmission, in
    order, (frame, sender state, the sender's transition count, channel,
    devices tuned there other than the sender), and per delivery (frame,
    receivers)."""
    sim = Simulation(config, seed=seed)
    medium = sim.medium
    peers = {peer.address: peer for peer in sim.peers}
    sent, delivered = [], []
    transmit, on_delivery = medium.transmit, medium.on_delivery

    def logged_transmit(frame):
        transmit(frame)
        src = frame.src
        tuned = [address for address in peers  # registration order
                 if address != src and medium._tuned[address] == frame.channel]
        stays = sum(1 for t in sim.history.transitions if t.host == src)
        sent.append((frame, peers[src].state.value, stays, frame.channel, tuned))

    def logged_delivery(event_id, time, frame, receivers):
        delivered.append((frame, list(receivers)))
        on_delivery(event_id, time, frame, receivers)

    medium.transmit = logged_transmit
    medium.on_delivery = logged_delivery
    sim.run()
    return sim, sent, delivered


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("hosts", [3, 10])
def test_each_sweep_sends_one_probe_to_each_channels_listeners(variant, hosts):
    config = VARIANTS[variant](default_scenario(hosts))
    _sim, sent, delivered = logged_run(config, 1 << 16)
    # lossless, and every delivery comes one airtime after its transmission,
    # so deliveries follow transmissions in order
    assert [(id(frame), receivers) for frame, receivers in delivered] == \
        [(id(frame), tuned) for frame, _state, _stays, _channel, tuned in sent]
    sweeps = {}  # (sender, its stay in Scan or FindSearch) -> probes
    for frame, state, stays, channel, _tuned in sent:
        if frame.kind is PROBE_REQUEST:
            sweeps.setdefault((frame.src, stays), []).append((frame, state, channel))
    assert len(sweeps) > hosts
    scan_order = range(config.medium.channel_count)
    find_order = SOCIAL_CHANNELS if variant == "social" else scan_order
    for probes in sweeps.values():
        frame = probes[0][0]
        assert all(probe is frame for probe, _state, _channel in probes)
        order = scan_order if probes[0][1] == "Scan" else find_order
        # a sweep that ends in a negotiation or join is cut short
        assert [channel for _frame, _state, channel in probes] == \
            list(order[:len(probes)])
    # a new sweep builds a new probe
    assert len({id(probes[0][0]) for probes in sweeps.values()}) == len(sweeps)


@pytest.mark.parametrize("hosts", [3, 10])
def test_an_owner_sends_one_beacon_on_its_own_channel(hosts):
    sim, sent, _delivered = logged_run(default_scenario(hosts), 2 << 16)
    beacons = {}  # owner -> (beacon, channel) per transmission
    for frame, _state, _stays, channel, _tuned in sent:
        if frame.kind is BEACON:
            beacons.setdefault(frame.src, []).append((frame, channel))
    assert beacons
    for owner, sends in beacons.items():
        frame = sends[0][0]
        assert len(sends) > 1
        assert all(beacon is frame for beacon, _channel in sends)
        assert {channel for _beacon, channel in sends} == \
            {sim.medium._tuned[owner]} == {frame.channel}
