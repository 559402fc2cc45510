"""Any configuration text the parser accepts runs to its horizon.

The text is generated, not built through ``default_scenario``, so the
parser's own refusals are part of what is tested: a config either raises
``ConfigError`` or runs to its horizon without a ``SimulationError``, with
an empty ``validate_history`` and with a trace whose every frame name the
trace grammar accepts.  Ping prefixes are drawn inside and outside that
grammar, so a prefix the parser lets through must name frames the
validator reads back.  ``ackTimeout`` reaches below the
0.668 ms round trip of the defaults (2 x frameAirtime + ackTurnaround):
values from ``frameAirtime`` up to the round trip are accepted, and each
attempt then times out and is resent before its ACK arrives, while a value
below ``frameAirtime`` is refused, since a copy would be resent while the
last was still on air.  A run that stored persistent records is rerun from
them at the next seed, under the same checks.
"""

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from wfdsim import ConfigError, Simulation, parse_config
from wfdsim.validate import validate_history, validate_trace_text

# inside the tag grammar's prefix part, then outside it
PREFIXES = ["ping", "pong", "X", "my_ping", "", "p1ng", "a b", "ping-reply", "pïng"]


def scenario_text(hosts: int, seed: int, **medium) -> str:
    lines = [f"numHosts = {hosts}", f"seed = {seed}"]
    lines += [f"**.medium.{key} = {value}" for key, value in medium.items()]
    return "\n".join(lines) + "\n"


def host_key(index: int, key: str, value: str) -> str:
    return f"**.host[{index}].wlan[0].mgmt.{key} = {value}\n"


def ping_keys(src: int, app: int, dst: int, prefix=None) -> str:
    text = f'*.host[{src}].pingApp[{app}].destAddr = "host[{dst}]"\n'
    if prefix is not None:
        text += f'*.host[{src}].pingApp[{app}].payloadPrefix = "{prefix}"\n'
    return text


def microseconds(low: int, high: int):
    return st.integers(low, high).map(lambda us: f"{us}us")


# one value per host key; zero durations are accepted, a zero beacon
# interval or provisioning count is refused
HOST_VALUES = {
    "WiFiDirectGO": st.just("true"),
    "joinOnly": st.just("true"),
    "persistent": st.just("true"),
    "WiFiDirectUsed": st.just("false"),
    "GOIntent": st.integers(0, 16),
    "provisioningFrames": st.integers(0, 25),
    "beaconInterval": st.sampled_from(["0s", "20ms", "100ms", "1s"]),
    "beaconStartOffset": st.sampled_from(["0s", "10ms", "100ms", "2s"]),
    "scanDuration": st.sampled_from(["0s", "1ms", "2s", "5s"]),
    "searchProbeGap": st.sampled_from(["0s", "1ms", "10ms", "50ms"]),
    "listenDwellChoices": st.sampled_from(
        ["0s", "0s, 100ms", "50ms", "100ms, 200ms, 300ms", "1s"]),
    "socialChannelsOnly": st.just("true"),
}


@st.composite
def config_texts(draw) -> str:
    hosts = draw(st.integers(2, 40))
    host = st.integers(0, hosts - 1)
    medium = draw(st.fixed_dictionaries({}, optional={
        "lossProbability": st.sampled_from([0, 0.05, 0.2, 0.3, 1]),
        "maxRetries": st.integers(0, 5),
        "channelCount": st.integers(0, 14),
        "ackTimeout": st.one_of(
            st.sampled_from(["0.5ms", "0.668ms", "0.7ms", "2ms"]),
            microseconds(1, 5000)),
        "frameAirtime": microseconds(50, 500),
        "ackTurnaround": microseconds(1, 100),
    }))
    lines = [scenario_text(hosts, draw(st.integers(0, 2**16)), **medium)]
    for index in draw(st.lists(host, max_size=4, unique=True)):
        key = draw(st.sampled_from(sorted(HOST_VALUES)))
        lines.append(host_key(index, key, draw(HOST_VALUES[key])))
    # a group name of its own per host: two owners of one configured name
    # are ROADMAP item 11, pinned by its own strict xfail
    for index in draw(st.lists(host, max_size=3, unique=True)):
        prefix = draw(st.sampled_from(["G", "net-", "x"]))
        lines.append(host_key(index, "strGroup", f'"{prefix}{index}"'))
    if draw(st.booleans()):
        # every pair that forms stores records, for the rerun
        lines += [host_key(index, "persistent", "true") for index in range(hosts)]
    for app in range(draw(st.integers(0, 3))):
        # a ping app aimed at its own host is refused by the parser, and so
        # are two apps of one host pair that share a prefix
        src, dst = draw(host), draw(host)
        lines.append(ping_keys(src, app, dst,
                               draw(st.none() | st.sampled_from(PREFIXES)))
                     + f"*.host[{src}].pingApp[{app}].sendInterval = "
                     f"{draw(st.sampled_from(['250ms', '1s']))}\n")
    return "".join(lines)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(text=config_texts())
# crash sites of a medium that let a retuned device keep its link exchanges:
# a FindListen host's queued Probe Response, resent after it retuned
@example(text=scenario_text(30, 6))
# a queued GO Negotiation Confirmation sent after its request failed
@example(text=scenario_text(2, 9, lossProbability=0.3))
# an ACK sent after its sender retuned, within the ACK turnaround
@example(text=scenario_text(3, 0, lossProbability=0.2, ackTimeout="0.5ms"))
# a negative retry budget, which would retransmit forever, is refused
@example(text=scenario_text(2, 0, maxRetries=-1))
# negative durations, each of which scheduled an event in the past, are
# refused
@example(text=scenario_text(2, 0) + host_key(0, "scanDuration", "-1s"))
@example(text=scenario_text(2, 0) + host_key(0, "listenDwellChoices", "-100ms"))
@example(text=scenario_text(2, 0) + host_key(0, "WiFiDirectGO", "true")
         + host_key(0, "beaconStartOffset", "-1s"))
@example(text=scenario_text(2, 0) + '*.host[1].pingApp[0].destAddr = "host[0]"\n'
         "*.host[1].pingApp[0].startTime = -1s\n")
@example(text=scenario_text(2, 0) + host_key(0, "searchProbeGap", "-1s")
         + host_key(1, "searchProbeGap", "-1s"))
@example(text=scenario_text(2, 0) + "horizon = -1s\n")
# prefixes outside the tag grammar, which named frames the validator refused
@example(text=scenario_text(2, 0) + host_key(0, "WiFiDirectGO", "true")
         + ping_keys(1, 0, 0, "my_ping") + ping_keys(0, 0, 1, ""))
@example(text=scenario_text(3, 0) + host_key(0, "WiFiDirectGO", "true")
         + ping_keys(1, 0, 2, "p1ng") + ping_keys(2, 0, 1, "a b"))
# zero scan, dwell and probe gap durations, and a rerun from stored records
@example(text=scenario_text(3, 0)
         + "".join(host_key(i, "persistent", "true") for i in range(3))
         + host_key(0, "scanDuration", "0s")
         + host_key(1, "listenDwellChoices", "0s")
         + host_key(2, "searchProbeGap", "0s"))
# a destination spelled with a padded index, which the app kept as written
# and the run could not find
@example(text=scenario_text(3, 0) + host_key(0, "WiFiDirectGO", "true")
         + '*.host[1].pingApp[0].destAddr = "host[02]"\n'
         + '*.host[2].pingApp[0].destAddr = "host[0001]"\n')
def test_accepted_config_runs_to_its_horizon(text):
    try:
        config = parse_config(text)
    except ConfigError:
        event("refused by the parser")
        return
    result = run_checked(config, config.seed)
    if result.persistent_records:
        event("rerun from stored records")
        run_checked(config, config.seed + 1, result.persistent_records)


def run_checked(config, seed, persistent_records=None):
    sim = Simulation(config, seed=seed, persistent_records=persistent_records)
    result = sim.run()
    assert sim.engine.now == config.horizon
    assert validate_history(result.history) == []
    assert [v for v in validate_trace_text(result.trace_text())
            if v.code == "grammar"] == []
    return result
