"""Shared helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace

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

# Probe sweeps that share one Probe Request object in unusual ways: every
# host scans with zero dwell, so a scan's probes are all on air at once and
# each is stamped again before its delivery (scan0); one channel, so every
# probe is heard (channels1); every host sweeps the 3 social channels alone
# (social).
SWEEP_VARIANTS = {
    "scan0": lambda config: replace(config, hosts=[
        replace(host, scan_duration=0) for host in config.hosts]),
    "channels1": lambda config: replace(
        config, medium=replace(config.medium, channel_count=1)),
    "social": lambda config: replace(config, hosts=[
        replace(host, social_channels_only=True) for host in config.hosts]),
}


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


def relay_config(loss):
    """An owner and six join-only clients, each pinging the next client
    through it every 100 ms."""
    lines = [f"**.medium.lossProbability = {loss}",
             "**.host[0].wlan[0].mgmt.WiFiDirectGO = true",
             '**.host[0].wlan[0].mgmt.strGroup = "G"']
    for i in range(1, 7):
        lines += [f"**.host[{i}].wlan[0].mgmt.joinOnly = true",
                  f'**.host[{i}].wlan[0].mgmt.strGroup = "G"',
                  f'*.host[{i}].pingApp[0].destAddr = "host[{i % 6 + 1}]"',
                  f"*.host[{i}].pingApp[0].sendInterval = 100ms"]
    config = parse_config("\n".join(lines) + "\n")
    assert not config.warnings, config.warnings
    return config


@pytest.fixture
def autonomous_config():
    return parse_config(VERBATIM_AUTONOMOUS_CONFIG)
