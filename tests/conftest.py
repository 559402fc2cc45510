"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from wfdsim import Simulation, default_scenario, parse_config, seconds

# The autonomous three-host scenario exactly as a user would write it.
VERBATIM_AUTONOMOUS_CONFIG = """\
# ping app host[0] pinged by Host[1]
**.numPingApps = 1
*.host[1].pingApp[0].destAddr = "host[0]"
*.host[1].pingApp[0].sendInterval = 1s
# ping app host[1] pinged by host[2]
*.host[2].pingApp[0].destAddr = "host[1]"
*.host[2].pingApp[0].sendInterval = 1s
#Configure the P2P Group
**.host[0].wlan[0].mgmt.WiFiDirectUsed=true
**.host[0].wlan[0].mgmt.WiFiDirectGO=true
**.host[0].wlan[0].mgmt.strGroup="Groupe Wifi Direct"

**.host[1].wlan[0].mgmt.WiFiDirectUsed=true
**.host[1].wlan[0].mgmt.WiFiDirectGO=false
**.host[1].wlan[0].mgmt.strGroup="Groupe Wifi Direct"

**.host[2].wlan[0].mgmt.WiFiDirectUsed=true
**.host[2].wlan[0].mgmt.WiFiDirectGO=false
**.host[2].wlan[0].mgmt.strGroup="Groupe Wifi Direct"
"""

# Seeds pinned for the golden-shape scenarios (picked once, frozen).
GOLDEN_STANDARD_SEED = 1
GOLDEN_AUTONOMOUS_SEED = 15


def transmissions(trace):
    """One (name, sender, time, receivers) entry per on-air frame."""
    return [(tx.frame_name, tx.src, tx.time, list(tx.receivers)) for tx in trace]


def frame_names(trace):
    return [name for name, _src, _time, _rx in transmissions(trace)]


def count_frames(trace, name):
    return sum(1 for n in frame_names(trace) if n == name)


def live_events(engine):
    """Queue entries still due to fire, counted straight from the heap."""
    return sum(1 for _time, _seq, action in engine._queue if action is not None)


def run_standard(hosts=2, seed=1, until=10, **overrides):
    """Run an all-default standard scenario and return its result."""
    config = default_scenario(hosts, **overrides)
    return Simulation(config, seed=seed).run(until=seconds(until))


@pytest.fixture
def autonomous_config():
    return parse_config(VERBATIM_AUTONOMOUS_CONFIG)
