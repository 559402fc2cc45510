"""Scenario configuration: INI-style ``key = value`` lines.

Keys use the dotted wildcard form familiar from network-simulator configs,
e.g. ``**.host[0].wlan[0].mgmt.WiFiDirectUsed = true`` or
``*.host[1].pingApp[0].destAddr = "host[0]"``.  Leading wildcard components
are accepted and normalized away.  Unknown keys produce a warning and are
ignored; a type mismatch on a known key is a hard error carrying the line
number.  Durations accept ``s``/``ms``/``us``/``ns`` suffixes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Optional

from .medium import MediumParams
from .peer import SOCIAL_CHANNELS, PeerConfig
from .simtime import SECOND, format_duration, parse_duration
from .traffic import PingAppConfig

DEFAULT_HORIZON = 20 * SECOND
DEFAULT_SEED = 1


class ConfigError(ValueError):
    """Scenario text that cannot be turned into a valid configuration."""


@dataclass
class ScenarioConfig:
    host_count: int
    hosts: list[PeerConfig]
    ping_apps: list[PingAppConfig]
    medium: MediumParams = field(default_factory=MediumParams)
    seed: int = DEFAULT_SEED
    horizon: int = DEFAULT_HORIZON
    warnings: list[str] = field(default_factory=list, compare=False)


_HOST_KEY_RE = re.compile(r"^host\[(\d+)\]\.wlan\[0\]\.mgmt\.(\w+)$")
_PING_KEY_RE = re.compile(r"^host\[(\d+)\]\.pingApp\[(\d+)\]\.(\w+)$")
_MEDIUM_KEY_RE = re.compile(r"^medium\.(\w+)$")
_HOST_NAME_RE = re.compile(r"^host\[(\d+)\]$")

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


def _parse_value(raw: str, kind: str, lineno: int, key: str):
    raw = raw.strip()
    try:
        if kind == "bool":
            lowered = raw.lower()
            if lowered not in ("true", "false"):
                raise ValueError(f"expected true/false, got {raw!r}")
            return lowered == "true"
        if kind == "int":
            return int(raw, 0)
        if kind == "float":
            return float(raw)
        if kind == "str":
            if raw.startswith('"'):
                if len(raw) < 2 or not raw.endswith('"'):
                    raise ValueError("unterminated string")
                return raw[1:-1]
            return raw
        if kind == "duration":
            return parse_duration(raw)
        if kind == "duration_list":
            return tuple(parse_duration(part) for part in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    raise AssertionError(f"unhandled value kind {kind}")


def parse_config(text: str, host_count: Optional[int] = None) -> ScenarioConfig:
    """Parse scenario text into a validated :class:`ScenarioConfig`.

    *host_count* supplies the number of hosts when the text does not say;
    otherwise the highest referenced host index determines it.
    """
    warnings: list[str] = []
    host_fields: dict[int, dict] = {}
    ping_fields: dict[tuple[int, int], dict] = {}
    medium_fields: dict = {}
    globals_seen: dict = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw_line!r}")
        key_part, value_part = line.split("=", 1)
        key = _normalize_key(key_part.strip())
        value = value_part.strip()

        m = _HOST_KEY_RE.match(key)
        if m:
            index, name = int(m.group(1)), m.group(2)
            if name not in _HOST_KEYS:
                warnings.append(f"line {lineno}: unknown host key {name!r} ignored")
                continue
            attr, kind = _HOST_KEYS[name]
            host_fields.setdefault(index, {})[attr] = _parse_value(value, kind, lineno, key)
            continue
        m = _PING_KEY_RE.match(key)
        if m:
            index, app_index, name = int(m.group(1)), int(m.group(2)), m.group(3)
            if name not in _PING_KEYS:
                warnings.append(f"line {lineno}: unknown ping key {name!r} ignored")
                continue
            attr, kind = _PING_KEYS[name]
            ping_fields.setdefault((index, app_index), {})[attr] = \
                _parse_value(value, kind, lineno, key)
            continue
        m = _MEDIUM_KEY_RE.match(key)
        if m:
            name = m.group(1)
            if name not in _MEDIUM_KEYS:
                warnings.append(f"line {lineno}: unknown medium key {name!r} ignored")
                continue
            attr, kind = _MEDIUM_KEYS[name]
            medium_fields[attr] = _parse_value(value, kind, lineno, key)
            continue
        if key == "numHosts":
            globals_seen["host_count"] = _parse_value(value, "int", lineno, key)
            continue
        if key == "seed":
            globals_seen["seed"] = _parse_value(value, "int", lineno, key)
            continue
        if key == "horizon":
            globals_seen["horizon"] = _parse_value(value, "duration", lineno, key)
            continue
        warnings.append(f"line {lineno}: unknown key {key!r} ignored")

    referenced = set(host_fields) | {index for index, _ in ping_fields}
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
        fields = dict(host_fields.get(index, {}))
        fields["address"] = f"host[{index}]"
        try:
            hosts.append(PeerConfig(**fields))
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
        medium = MediumParams(**medium_fields)
    except ValueError as exc:
        raise ConfigError(f"medium: {exc}") from None
    social = [host.address for host in hosts if host.social_channels_only]
    if social and medium.channel_count <= max(SOCIAL_CHANNELS):
        raise ConfigError(
            f"{social[0]}: socialChannelsOnly needs channels "
            f"{', '.join(map(str, SOCIAL_CHANNELS))}, but channelCount = "
            f"{medium.channel_count}")

    return ScenarioConfig(
        host_count=count,
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
    lines = [f"numHosts = {config.host_count}",
             f"seed = {config.seed}",
             f"horizon = {format_duration(config.horizon)}"]
    for attr, (name, kind) in _invert(_MEDIUM_KEYS).items():
        lines.append(f"**.medium.{name} = {_render(getattr(config.medium, attr), kind)}")
    for index, host in enumerate(config.hosts):
        for attr, (name, kind) in _invert(_HOST_KEYS).items():
            value = getattr(host, attr)
            lines.append(f"**.host[{index}].wlan[0].mgmt.{name} = {_render(value, kind)}")
    app_counters: dict[int, int] = {}
    for app in config.ping_apps:
        owner_index = int(_HOST_NAME_RE.match(app.owner).group(1))
        app_index = app_counters.get(owner_index, 0)
        app_counters[owner_index] = app_index + 1
        prefix = f"*.host[{owner_index}].pingApp[{app_index}]"
        for attr, (name, kind) in _invert(_PING_KEYS).items():
            lines.append(f"{prefix}.{name} = {_render(getattr(app, attr), kind)}")
    return "\n".join(lines) + "\n"


def _invert(table: dict) -> dict:
    return {attr: (name, kind) for name, (attr, kind) in table.items()}


def _render(value, kind: str) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "str":
        return f'"{value}"'
    if kind == "duration":
        return format_duration(value)
    if kind == "duration_list":
        return ", ".join(format_duration(v) for v in value)
    return str(value)
