"""Scenario configuration: INI-style ``key = value`` lines.

Keys use the dotted wildcard form familiar from network-simulator configs,
e.g. ``**.host[0].wlan[0].mgmt.WiFiDirectUsed = true`` or
``*.host[1].pingApp[0].destAddr = "host[0]"``.  Leading wildcard components
are accepted and normalized away.  Each key is one row, ``name -> (field,
kind)``, of its family's table (host, ping app, medium or global), and one
kind table parses and renders every value, for ``parse_config`` and
``serialize_config`` alike.  Unknown keys produce a warning and are
ignored; a type mismatch on a known key is a hard error carrying the line
number.  Durations accept ``s``/``ms``/``us``/``ns`` suffixes.  A string
may be enclosed in double quotes; with no escapes, any other ``"`` is
refused.  Numbers, durations and host indices are read in ASCII digits
only, the digits ``serialize_config`` writes.  ``ScenarioConfig.host_count``
is derived from ``hosts``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Optional

from .medium import MediumParams
from .peer import SOCIAL_CHANNELS, PeerConfig
from .simtime import SECOND, ascii_digits, format_duration, parse_duration
from .traffic import PingAppConfig

DEFAULT_HORIZON = 20 * SECOND
DEFAULT_SEED = 1


class ConfigError(ValueError):
    """Scenario text that cannot be turned into a valid configuration."""


@dataclass
class ScenarioConfig:
    hosts: list[PeerConfig]
    ping_apps: list[PingAppConfig]
    medium: MediumParams = field(default_factory=MediumParams)
    seed: int = DEFAULT_SEED
    horizon: int = DEFAULT_HORIZON
    warnings: list[str] = field(default_factory=list, compare=False)

    @property
    def host_count(self) -> int:
        return len(self.hosts)


_HOST_NAME_RE = re.compile(r"^host\[([0-9]+)\]$")

_GLOBAL_KEYS = {
    "numHosts": ("host_count", "int"),
    "seed": ("seed", "int"),
    "horizon": ("horizon", "duration"),
}

_HOST_KEYS = {
    "WiFiDirectUsed": ("wifi_direct_used", "bool"),
    "WiFiDirectGO": ("autonomous_go", "bool"),
    "strGroup": ("group_ssid", "str"),
    "GOIntent": ("go_intent", "int"),
    "persistent": ("persistent", "bool"),
    "joinOnly": ("join_only", "bool"),
    "provisioningFrames": ("provisioning_frames", "int"),
    "beaconInterval": ("beacon_interval", "duration"),
    "beaconStartOffset": ("beacon_start_offset", "duration"),
    "scanDuration": ("scan_duration", "duration"),
    "searchProbeGap": ("search_probe_gap", "duration"),
    "listenDwellChoices": ("listen_dwell_choices", "duration_list"),
    "socialChannelsOnly": ("social_channels_only", "bool"),
}

_PING_KEYS = {
    "destAddr": ("dest", "str"),
    "sendInterval": ("send_interval", "duration"),
    "startTime": ("start_offset", "duration"),
    "payloadPrefix": ("payload_prefix", "str"),
}

_MEDIUM_KEYS = {
    "frameAirtime": ("frame_airtime", "duration"),
    "ackTurnaround": ("ack_turnaround", "duration"),
    "lossProbability": ("loss_probability", "float"),
    "ackTimeout": ("ack_timeout", "duration"),
    "maxRetries": ("max_retries", "int"),
    "channelCount": ("channel_count", "int"),
}


# (pattern, keys, what a warning calls an unknown name): the pattern's
# groups are the key's indices, then its name
_FAMILIES = (
    (re.compile(r"^host\[([0-9]+)\]\.wlan\[0\]\.mgmt\.(\w+)$"), _HOST_KEYS, "host key"),
    (re.compile(r"^host\[([0-9]+)\]\.pingApp\[([0-9]+)\]\.(\w+)$"), _PING_KEYS, "ping key"),
    (re.compile(r"^medium\.(\w+)$"), _MEDIUM_KEYS, "medium key"),
    (re.compile(r"^(\w+)$"), _GLOBAL_KEYS, "key"),
)


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered not in ("true", "false"):
        raise ValueError(f"expected true/false, got {raw!r}")
    return lowered == "true"


def _parse_str(raw: str) -> str:
    text = raw
    if raw.startswith('"'):
        if len(raw) < 2 or not raw.endswith('"'):
            raise ValueError("unterminated string")
        text = raw[1:-1]
    if '"' in text:
        # there are no escapes: written back, an inner quote would end the
        # string early and move a later '#' out of it
        raise ValueError(f"a string cannot contain '\"', got {raw!r}")
    return text


def _parse_duration_list(raw: str) -> tuple[int, ...]:
    return tuple(parse_duration(part) for part in raw.split(","))


# kind -> (parse stripped text, render value)
_KINDS = {
    "bool": (_parse_bool, lambda value: "true" if value else "false"),
    "int": (lambda raw: int(ascii_digits(raw), 0), str),
    "float": (lambda raw: float(ascii_digits(raw)), str),
    "str": (_parse_str, lambda value: f'"{value}"'),
    "duration": (parse_duration, format_duration),
    "duration_list": (_parse_duration_list,
                      lambda value: ", ".join(map(format_duration, value))),
}


def _strip_comment(line: str) -> str:
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def _normalize_key(key: str) -> str:
    parts = key.split(".")
    while parts and parts[0] in ("*", "**"):
        parts.pop(0)
    return ".".join(parts)


def parse_config(text: str, host_count: Optional[int] = None) -> ScenarioConfig:
    """Parse scenario text into a validated :class:`ScenarioConfig`.

    *host_count* supplies the number of hosts when the text does not say;
    otherwise the highest referenced host index determines it.
    """
    warnings: list[str] = []
    # per family: the key's indices -> {field: value}
    host_fields, ping_fields, medium_fields, global_fields = \
        seen = [{} for _ in _FAMILIES]

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw_line!r}")
        key_part, value_part = line.split("=", 1)
        key = _normalize_key(key_part.strip())
        for family, (pattern, keys, what) in zip(seen, _FAMILIES):
            m = pattern.match(key)
            if m:
                break
        else:
            warnings.append(f"line {lineno}: unknown key {key!r} ignored")
            continue
        *indices, name = m.groups()
        if name not in keys:
            warnings.append(f"line {lineno}: unknown {what} {name!r} ignored")
            continue
        attr, kind = keys[name]
        try:
            value = _KINDS[kind][0](value_part.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
        family.setdefault(tuple(map(int, indices)), {})[attr] = value

    globals_seen = global_fields.get((), {})
    referenced = {indices[0] for indices in [*host_fields, *ping_fields]}
    if "host_count" in globals_seen:
        count = globals_seen["host_count"]
    elif host_count is not None:
        count = host_count
    elif referenced:
        count = max(referenced) + 1
    else:
        raise ConfigError("cannot determine host count: no host keys and no explicit count")
    if count < 0:
        raise ConfigError(f"negative host count {count}")
    if host_count is not None and "host_count" in globals_seen \
            and host_count != count:
        raise ConfigError(
            f"explicit host count {host_count} contradicts numHosts = {count}")
    out_of_range = sorted(i for i in referenced if i >= count)
    if out_of_range:
        raise ConfigError(f"host index {out_of_range[0]} out of range for {count} hosts")

    hosts = []
    for index in range(count):
        try:
            hosts.append(PeerConfig(**host_fields.get((index,), {})))
        except ValueError as exc:
            raise ConfigError(f"host[{index}]: {exc}") from None

    apps = []
    app_names: dict[tuple[str, str, str], str] = {}  # tag space -> first app
    for (index, app_index) in sorted(ping_fields):
        fields = dict(ping_fields[(index, app_index)])
        if "dest" not in fields:
            raise ConfigError(f"host[{index}].pingApp[{app_index}] has no destAddr")
        dest = fields["dest"]
        dest_match = _HOST_NAME_RE.match(dest)
        if dest_match is None or int(dest_match.group(1)) >= count:
            raise ConfigError(
                f"host[{index}].pingApp[{app_index}] destination {dest!r} "
                f"names no existing host")
        # the index's value names the host, as in a key: "host[01]" is host[1]
        dest = fields["dest"] = f"host[{int(dest_match.group(1))}]"
        fields["owner"] = f"host[{index}]"
        name = f"host[{index}].pingApp[{app_index}]"
        try:
            app = PingAppConfig(**fields)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
        first = app_names.setdefault((app.owner, app.dest, app.payload_prefix), name)
        if first != name:
            raise ConfigError(
                f"{name}: {first} already pings {dest!r} with payloadPrefix "
                f"{app.payload_prefix!r}; their tags could not be told apart")
        apps.append(app)

    try:
        medium = MediumParams(**medium_fields.get((), {}))
    except ValueError as exc:
        raise ConfigError(f"medium: {exc}") from None
    social = [index for index, host in enumerate(hosts)
              if host.social_channels_only]
    if social and medium.channel_count <= max(SOCIAL_CHANNELS):
        raise ConfigError(
            f"host[{social[0]}]: socialChannelsOnly needs channels "
            f"{', '.join(map(str, SOCIAL_CHANNELS))}, but channelCount = "
            f"{medium.channel_count}")

    return ScenarioConfig(
        hosts=hosts,
        ping_apps=apps,
        medium=medium,
        seed=globals_seen.get("seed", DEFAULT_SEED),
        horizon=globals_seen.get("horizon", DEFAULT_HORIZON),
        warnings=warnings,
    )


def default_scenario(host_count: int, **overrides) -> ScenarioConfig:
    """All-default standard-formation scenario with *host_count* peers."""
    config = parse_config("", host_count=host_count)
    return replace(config, **overrides) if overrides else config


def serialize_config(config: ScenarioConfig) -> str:
    """Render a configuration back to text; ``parse_config`` of the result
    reproduces the configuration exactly."""
    lines = _render_keys("", _GLOBAL_KEYS, config)
    lines += _render_keys("**.medium.", _MEDIUM_KEYS, config.medium)
    for index, host in enumerate(config.hosts):
        lines += _render_keys(f"**.host[{index}].wlan[0].mgmt.", _HOST_KEYS, host)
    app_counters: dict[int, int] = {}
    for app in config.ping_apps:
        owner_index = int(_HOST_NAME_RE.match(app.owner).group(1))
        app_index = app_counters.get(owner_index, 0)
        app_counters[owner_index] = app_index + 1
        lines += _render_keys(f"*.host[{owner_index}].pingApp[{app_index}].",
                              _PING_KEYS, app)
    return "\n".join(lines) + "\n"


def _render_keys(prefix: str, keys: dict, obj) -> list[str]:
    return [f"{prefix}{name} = {_KINDS[kind][1](getattr(obj, attr))}"
            for name, (attr, kind) in keys.items()]
