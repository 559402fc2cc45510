"""Configuration parsing: wildcard keys, units, defaults, errors, round-trip."""

import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import VERBATIM_AUTONOMOUS_CONFIG
from wfdsim import Simulation
from wfdsim.config import (
    _GLOBAL_KEYS,
    _HOST_KEYS,
    _MEDIUM_KEYS,
    _PING_KEYS,
    ConfigError,
    default_scenario,
    parse_config,
    serialize_config,
)
from wfdsim.simtime import (
    MILLISECOND,
    SECOND,
    format_duration,
    parse_duration,
    seconds,
)


def test_verbatim_autonomous_listing_parses():
    config = parse_config(VERBATIM_AUTONOMOUS_CONFIG)
    assert config.host_count == 3
    h0, h1, h2 = config.hosts
    assert h0.autonomous_go and h0.wifi_direct_used
    assert h0.group_ssid == "Groupe Wifi Direct"
    assert not h1.autonomous_go and h1.group_ssid == "Groupe Wifi Direct"
    assert not h2.autonomous_go and h2.group_ssid == "Groupe Wifi Direct"
    assert [(a.owner, a.dest) for a in config.ping_apps] == \
        [("host[1]", "host[0]"), ("host[2]", "host[1]")]
    assert all(a.send_interval == SECOND for a in config.ping_apps)
    # the simulator-agnostic key is ignored with a warning, not an error
    assert any("numPingApps" in w for w in config.warnings)


def test_empty_text_with_host_count_gives_defaults():
    config = parse_config("", host_count=2)
    assert config.host_count == 2
    for host in config.hosts:
        assert host.wifi_direct_used and not host.autonomous_go
        assert host.go_intent == 7
        assert host.provisioning_frames == 20
    assert config.ping_apps == []
    assert config.seed == 1


def test_duration_suffixes():
    text = '*.host[0].pingApp[0].destAddr = "host[1]"\n' \
           "*.host[0].pingApp[0].sendInterval = 250ms\n"
    config = parse_config(text, host_count=2)
    assert config.ping_apps[0].send_interval == 250 * MILLISECOND
    assert parse_duration("1s") == SECOND
    assert parse_duration("314us") == 314 * 10**6
    assert parse_duration("0.5") == SECOND // 2


def test_boolean_type_mismatch_is_hard_error_with_line_number():
    text = "**.host[0].wlan[0].mgmt.WiFiDirectUsed = true\n" \
           "**.host[0].wlan[0].mgmt.WiFiDirectGO = maybe\n"
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(text)


def test_dangling_ping_destination_is_hard_error():
    text = '*.host[0].pingApp[0].destAddr = "host[9]"\n'
    with pytest.raises(ConfigError, match="host\\[9\\]"):
        parse_config(text, host_count=2)


@pytest.mark.parametrize("spelling, host", [
    ("host[01]", "host[1]"), ("host[0003]", "host[3]"),
    ("host[\u0663]", "host[3]")])  # an Arabic-Indic three
def test_ping_destination_is_stored_by_index(spelling, host):
    text = f'*.host[0].pingApp[0].destAddr = "{spelling}"\n'
    config = parse_config(text, host_count=4)
    assert config.ping_apps[0].dest == host
    assert parse_config(serialize_config(config)) == config
    # the run finds the host the parser accepted
    Simulation(replace(config, horizon=SECOND), seed=1).run()


def test_missing_dest_addr_is_hard_error():
    text = "*.host[0].pingApp[0].sendInterval = 1s\n"
    with pytest.raises(ConfigError, match="destAddr"):
        parse_config(text, host_count=2)


def test_unknown_keys_warn_and_are_ignored():
    text = ('*.host[0].pingApp[0].destAddr = "host[1]"\n'
            "**.host[0].wlan[0].mgmt.radioChannel = 3\n"
            "*.host[0].pingApp[0].packetSize = 64\n"
            "**.medium.bitrate = 54\n"
            "**.numPingApps = 2\n"
            "**.output.scalarFile = out.sca\n"
            "output-scalar-file = out.sca\n")
    config = parse_config(text, host_count=2)
    assert config.warnings == [
        "line 2: unknown host key 'radioChannel' ignored",
        "line 3: unknown ping key 'packetSize' ignored",
        "line 4: unknown medium key 'bitrate' ignored",
        "line 5: unknown key 'numPingApps' ignored",
        "line 6: unknown key 'output.scalarFile' ignored",
        "line 7: unknown key 'output-scalar-file' ignored",
    ]
    assert config.host_count == 2


def test_host_index_beyond_count_is_hard_error():
    text = "**.host[5].wlan[0].mgmt.WiFiDirectUsed = true\n"
    with pytest.raises(ConfigError, match="out of range"):
        parse_config(text, host_count=2)


def test_host_count_inferred_from_highest_index():
    text = "**.host[4].wlan[0].mgmt.WiFiDirectUsed = true\n"
    assert parse_config(text).host_count == 5


def test_go_intent_and_provisioning_keys():
    text = "**.host[0].wlan[0].mgmt.GOIntent = 12\n" \
           "**.host[0].wlan[0].mgmt.provisioningFrames = 5\n" \
           "**.host[0].wlan[0].mgmt.persistent = true\n" \
           "**.host[0].wlan[0].mgmt.listenDwellChoices = 100ms, 200ms\n" \
           "**.medium.lossProbability = 0.25\n" \
           "seed = 42\n" \
           "horizon = 30s\n"
    config = parse_config(text, host_count=1)
    host = config.hosts[0]
    assert host.go_intent == 12
    assert host.provisioning_frames == 5
    assert host.persistent
    assert host.listen_dwell_choices == (100 * MILLISECOND, 200 * MILLISECOND)
    assert config.medium.loss_probability == 0.25
    assert config.seed == 42
    assert config.horizon == 30 * SECOND


def test_out_of_range_intent_rejected():
    text = "**.host[0].wlan[0].mgmt.GOIntent = 99\n"
    with pytest.raises(ConfigError, match="go_intent"):
        parse_config(text, host_count=1)


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\n" \
           '**.host[0].wlan[0].mgmt.strGroup = "a # value" # trailing\n'
    config = parse_config(text, host_count=1)
    assert config.hosts[0].group_ssid == "a # value"


@pytest.mark.parametrize("value", ['a"#b"', '"a"b"', 'a"b', 'ab"', '"a""'])
def test_quote_inside_string_value_rejected(value):
    # with no escapes, written back as "a"#b"" the '#' would start a comment
    text = f"**.host[0].wlan[0].mgmt.strGroup = {value}\n"
    with pytest.raises(ConfigError, match=re.escape(
            "line 1: bad value for host[0].wlan[0].mgmt.strGroup: "
            "a string cannot contain '\"'")):
        parse_config(text, host_count=1)


def test_round_trip_serialize_parse():
    config = parse_config(VERBATIM_AUTONOMOUS_CONFIG)
    assert parse_config(serialize_config(config)) == config


def test_round_trip_on_randomized_configs():
    rng = random.Random(20260808)
    for _ in range(40):
        host_count = rng.randint(1, 5)
        lines = [f"numHosts = {host_count}",
                 f"seed = {rng.randint(0, 2**32)}"]
        for i in range(host_count):
            if rng.random() < 0.5:
                lines.append(f"**.host[{i}].wlan[0].mgmt.GOIntent = {rng.randint(0, 15)}")
            if rng.random() < 0.3:
                lines.append(f"**.host[{i}].wlan[0].mgmt.WiFiDirectGO = true")
            if rng.random() < 0.3:
                lines.append(f"**.host[{i}].wlan[0].mgmt.persistent = true")
            if rng.random() < 0.4:
                lines.append(f'**.host[{i}].wlan[0].mgmt.strGroup = "g{rng.randint(0, 3)}"')
            if rng.random() < 0.3 and host_count > 1:
                dest = (i + 1) % host_count
                lines.append(f'*.host[{i}].pingApp[0].destAddr = "host[{dest}]"')
                lines.append(f"*.host[{i}].pingApp[0].sendInterval = "
                             f"{rng.choice(['1s', '250ms', '2s'])}")
        config = parse_config("\n".join(lines) + "\n")
        assert parse_config(serialize_config(config)) == config


def test_default_scenario_builder():
    config = default_scenario(3, seed=9)
    assert config.host_count == 3 and config.seed == 9


def test_host_count_is_derived_from_hosts():
    config = default_scenario(3)
    fewer = replace(config, hosts=config.hosts[:2])
    assert fewer.host_count == 2
    assert parse_config(serialize_config(fewer)) == fewer


def test_readme_documents_every_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Scenario configuration\n", 1)[1].split("\n## ", 1)[0]
    for keys in (_GLOBAL_KEYS, _HOST_KEYS, _PING_KEYS, _MEDIUM_KEYS):
        for name in keys:
            assert f"`{name}`" in section, name


@pytest.mark.parametrize("count", [0, -1])
def test_channel_count_below_one_rejected(count):
    with pytest.raises(ConfigError, match="medium: channel_count must be at least 1"):
        parse_config(f"**.medium.channelCount = {count}\n", host_count=2)


@pytest.mark.parametrize("retries", [-1, -5])
def test_negative_max_retries_rejected(retries):
    with pytest.raises(ConfigError, match="medium: max_retries must be at least 0"):
        parse_config(f"**.medium.maxRetries = {retries}\n", host_count=2)
    parse_config("**.medium.maxRetries = 0\n", host_count=2)


@pytest.mark.parametrize("timeout", ["1us", "313us"])
def test_ack_timeout_below_frame_airtime_rejected(timeout):
    # a timeout armed as the frame goes on air would resend it mid-air
    with pytest.raises(ConfigError,
                       match="medium: ack_timeout must be at least frame_airtime"):
        parse_config(f"**.medium.ackTimeout = {timeout}\n", host_count=2)
    # equality holds: the delivery is queued before the timeout
    parse_config("**.medium.ackTimeout = 314us\n", host_count=2)
    parse_config("**.medium.ackTimeout = 50us\n**.medium.frameAirtime = 50us\n",
                 host_count=2)


PING_1_TO_0 = '*.host[1].pingApp[0].destAddr = "host[0]"\n'


@pytest.mark.parametrize("text, message", [
    ('**.host[0].wlan[0].mgmt.strGroup = "abc\n', "unterminated string"),
    ("numHosts 2\n", "expected key = value, got 'numHosts 2'"),
    ("# no keys\n", "cannot determine host count"),
    (PING_1_TO_0 + "*.host[1].pingApp[0].sendInterval = 0s\n",
     "host[1].pingApp[0]: send_interval must be positive"),
    ('*.host[1].pingApp[0].destAddr = "host[1]"\n',
     "host[1].pingApp[0]: ping app owner and destination must differ"),
    ('*.host[0].pingApp[0].destAddr = "host[00]"\n',
     "host[0].pingApp[0]: ping app owner and destination must differ"),
    ('numHosts = 2\n*.host[0].pingApp[0].destAddr = "host[1]"\n'
     '*.host[0].pingApp[1].destAddr = "host[01]"\n',
     "host[0].pingApp[1]: host[0].pingApp[0] already pings 'host[1]'"),
    ("**.host[0].wlan[0].mgmt.provisioningFrames = 0\n",
     "host[0]: provisioning_frames must be >= 1"),
    ("numHosts = 2\n**.medium.frameAirtime = 0s\n",
     "medium: medium durations must be positive"),
    ("numHosts = 2\n**.medium.lossProbability = 1.5\n",
     "medium: loss_probability must lie in [0, 1]"),
    ("**.host[0].wlan[0].mgmt.scanDuration = abc\n",
     "bad value for host[0].wlan[0].mgmt.scanDuration: unparsable duration 'abc'"),
])
def test_refusals_name_their_cause(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)


@pytest.mark.parametrize("count", [1, 5, 10])
def test_social_channels_need_channel_count_above_ten(count):
    text = (f"**.medium.channelCount = {count}\n"
            "**.host[1].wlan[0].mgmt.socialChannelsOnly = true\n")
    with pytest.raises(ConfigError,
                       match=f"host\\[1\\]: socialChannelsOnly .* channelCount = {count}"):
        parse_config(text, host_count=2)
    # either key alone is fine, and so is the smallest count that holds 10
    parse_config(f"**.medium.channelCount = {count}\n", host_count=2)
    parse_config(text.replace(f"= {count}", "= 11"), host_count=2)


def test_negative_duration_rejected():
    for text in ("-1s", "-100ms", " -1 ", "-0.000000000001"):
        with pytest.raises(ValueError, match="negative duration"):
            parse_duration(text)
    assert parse_duration("0s") == parse_duration("-0") == 0
    with pytest.raises(ConfigError, match="line 1: bad value for horizon: "
                                          "negative duration '-1s'"):
        parse_config("horizon = -1s\n", host_count=2)


def test_negative_duration_is_not_written():
    # the writer refuses what the parser would refuse to read back
    with pytest.raises(ValueError, match="negative duration"):
        format_duration(-1)
    config = default_scenario(2)
    host = replace(config.hosts[0], search_probe_gap=-1)
    with pytest.raises(ValueError, match="negative duration"):
        serialize_config(replace(config, hosts=[host, *config.hosts[1:]]))


NON_FINITE = ["inf", "Infinity", "-inf", "nan", "NaN", "snan", "inf ms"]


@pytest.mark.parametrize("text", NON_FINITE)
def test_non_finite_duration_rejected(text):
    with pytest.raises(ValueError, match=f"non-finite duration '{text}'$"):
        parse_duration(text)


@pytest.mark.parametrize("text", NON_FINITE)
def test_non_finite_duration_key_rejected(text):
    with pytest.raises(ConfigError, match="line 2: bad value for horizon: "
                                          f"non-finite duration '{text}'$"):
        parse_config(f"# a lifetime\nhorizon = {text}\n", host_count=2)
    text = f'*.host[0].pingApp[0].destAddr = "host[1]"\n' \
           f"*.host[0].pingApp[0].sendInterval = {text}\n"
    with pytest.raises(ConfigError, match="line 2: bad value for .*sendInterval"):
        parse_config(text, host_count=2)


def test_duration_beyond_decimal_range_rejected():
    with pytest.raises(ValueError, match="duration '1e999999999s' out of range"):
        parse_duration("1e999999999s")


@pytest.mark.parametrize("value", [*NON_FINITE[:-1], float("inf"),
                                   float("-inf"), float("nan")])
def test_seconds_refuses_non_finite_duration(value):
    with pytest.raises(ValueError,
                       match=f"^non-finite duration {re.escape(repr(value))}$"):
        seconds(value)


@pytest.mark.parametrize("value", ["abc", "", "1s", None])
def test_seconds_refuses_unparsable_duration(value):
    with pytest.raises(ValueError,
                       match=f"^unparsable duration {re.escape(repr(value))}$"):
        seconds(value)


@pytest.mark.parametrize("value", ["1e999999999", "-1e999999"])
def test_seconds_refuses_duration_beyond_decimal_range(value):
    with pytest.raises(ValueError, match=f"^duration '{value}' out of range$"):
        seconds(value)


def test_seconds_keeps_its_precision_message():
    assert seconds("0.5") == 500_000_000_000 and seconds(2) == 2 * SECOND
    with pytest.raises(ValueError,
                       match=r"^duration '1e-13' has sub-picosecond precision$"):
        seconds("1e-13")


def test_negative_host_count_rejected():
    with pytest.raises(ConfigError, match="negative host count -1"):
        parse_config("numHosts = -1\n")
    with pytest.raises(ConfigError, match="negative host count -3"):
        parse_config("", host_count=-3)
    assert parse_config("numHosts = 0\n").hosts == []


@pytest.mark.parametrize("prefix", ["my_ping", "", "p1ng", "a b", "ping-reply"])
def test_prefix_outside_tag_grammar_rejected(prefix):
    text = ('*.host[1].pingApp[0].destAddr = "host[0]"\n'
            f'*.host[1].pingApp[0].payloadPrefix = "{prefix}"\n')
    with pytest.raises(ConfigError, match=r"host\[1\]\.pingApp\[0\]: payloadPrefix"):
        parse_config(text)


def test_apps_sharing_host_pair_and_prefix_rejected():
    text = ('*.host[1].pingApp[0].destAddr = "host[0]"\n'
            '*.host[1].pingApp[1].destAddr = "host[0]"\n'
            '*.host[1].pingApp[2].destAddr = "host[2]"\n')
    with pytest.raises(ConfigError, match=r"host\[1\]\.pingApp\[1\]: "
                       r"host\[1\]\.pingApp\[0\] already pings"):
        parse_config(text, host_count=3)
    distinct = text + '*.host[1].pingApp[1].payloadPrefix = "pong"\n'
    assert [app.payload_prefix
            for app in parse_config(distinct, host_count=3).ping_apps] == \
        ["ping", "pong", "ping"]
