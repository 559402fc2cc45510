"""Byte-level reproducibility of traces and metrics under fixed seeds."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import VERBATIM_AUTONOMOUS_CONFIG, run_standard
from wfdsim import Simulation, default_scenario, parse_config, seconds

SRC = Path(__file__).resolve().parent.parent / "src"

# host[0] owns group "G"; join-only clients 1..3 ping the next client through
# it over a lossy medium
RELAY_CONFIG = "**.medium.lossProbability = 0.05\n" + "".join(
    f"**.host[{i}].wlan[0].mgmt.joinOnly = true\n"
    f'**.host[{i}].wlan[0].mgmt.strGroup = "G"\n'
    f'*.host[{i}].pingApp[0].destAddr = "host[{i % 3 + 1}]"\n'
    f"*.host[{i}].pingApp[0].sendInterval = 100ms\n" for i in (1, 2, 3)) + (
    "**.host[0].wlan[0].mgmt.WiFiDirectGO = true\n"
    '**.host[0].wlan[0].mgmt.strGroup = "G"\n')

# prints one sha256 over trace and metrics per run: a 3-host standard
# scenario and the relay config
DIGEST_SCRIPT = f"""
import hashlib
from wfdsim import Simulation, default_scenario, parse_config, seconds
relay = parse_config({RELAY_CONFIG!r})
assert not relay.warnings, relay.warnings
for config, seed in ((default_scenario(3), 1), (relay, 3)):
    result = Simulation(config, seed=seed).run(until=seconds(10))
    assert result.trace, "empty trace"
    text = result.trace_text() + result.metrics_json()
    print(hashlib.sha256(text.encode()).hexdigest())
"""


def run_autonomous(seed):
    config = parse_config(VERBATIM_AUTONOMOUS_CONFIG)
    return Simulation(config, seed=seed).run(until=seconds(10))


def test_standard_scenario_trace_is_byte_identical():
    first = run_standard(hosts=3, seed=1, until=20)
    second = run_standard(hosts=3, seed=1, until=20)
    assert first.trace_text() == second.trace_text()
    assert first.metrics_flat() == second.metrics_flat()
    assert first.metrics_json() == second.metrics_json()


def test_autonomous_scenario_trace_is_byte_identical():
    first = run_autonomous(15)
    second = run_autonomous(15)
    assert first.trace_text() == second.trace_text()
    assert first.metrics_flat() == second.metrics_flat()


@pytest.mark.parametrize("seed", [7, 23, 99, 123, 1234, 5150, 65537,
                                  2**31, 987654321, 31337])
def test_random_seeds_reproduce(seed):
    first = run_standard(hosts=3, seed=seed, until=12)
    second = run_standard(hosts=3, seed=seed, until=12)
    assert first.trace_text() == second.trace_text()
    assert first.metrics_flat() == second.metrics_flat()


def test_different_seeds_diverge():
    # adjacent seeds can legitimately coincide (few draws shape a short run),
    # but across a handful of seeds the traces must not all collapse
    traces = {run_standard(hosts=2, seed=s, until=10).trace_text()
              for s in range(6)}
    assert len(traces) > 3


def test_event_ids_dense_and_strictly_increasing():
    result = run_standard(hosts=3, seed=1, until=20)
    ids = []
    for record in result.trace:
        if not ids or record.event_id != ids[-1]:
            ids.append(record.event_id)
    assert all(b > a for a, b in zip(ids, ids[1:]))


def test_fired_time_sequence_is_monotone():
    result = run_standard(hosts=3, seed=1, until=20)
    times = [r.time for r in result.trace]
    assert times == sorted(times)


def test_persistent_second_run_reproducible():
    text = ("**.host[0].wlan[0].mgmt.persistent = true\n"
            "**.host[1].wlan[0].mgmt.persistent = true\n")
    config = parse_config(text, host_count=2)
    base = Simulation(config, seed=5).run(until=seconds(10))
    rerun1 = Simulation(config, seed=6,
                        persistent_records=base.persistent_records)
    rerun2 = Simulation(config, seed=6,
                        persistent_records=base.persistent_records)
    assert rerun1.run(until=seconds(10)).trace_text() == \
        rerun2.run(until=seconds(10)).trace_text()


def test_outputs_do_not_depend_on_the_hash_seed():
    digests = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]


def lossy_scenario(hosts, loss):
    config = default_scenario(hosts)
    return replace(config, medium=replace(config.medium,
                                          loss_probability=loss))


# The engine's (scheduled, fired, cancelled) counts of four 20 s runs,
# computed once.  Like the golden digests, they are not edited to follow a
# code change: a change that moves them on purpose names the runs it moves.
ENGINE_COUNTS = {
    "n3-standard": (lambda: default_scenario(3), 1, (695, 618, 76)),
    "n40-lossless": (lambda: default_scenario(40), 8 << 16,
                     (7155, 5732, 1420)),
    "relay-loss0.05": (lambda: parse_config(RELAY_CONFIG), 3,
                       (13270, 10828, 2431)),
    "n10-loss0.2": (lambda: lossy_scenario(10, 0.2), 1 << 16,
                    (2701, 2421, 277)),
}


@pytest.mark.parametrize("name", ENGINE_COUNTS)
def test_engine_counts_are_pinned(name):
    make_config, seed, counts = ENGINE_COUNTS[name]
    sim = Simulation(make_config(), seed=seed)
    sim.run(until=seconds(20))
    engine = sim.engine
    assert (engine.scheduled_count, engine.fired_count,
            engine.cancelled_count) == counts
