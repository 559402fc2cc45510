"""Per-run metrics: discovery durations, formation time, ping statistics.

Rendered twice: a flat ``key = value`` text document and a structured JSON
twin carrying a ``schema_version``.  All durations are integer picoseconds
internally and printed through the fixed-point formatter, so both documents
are byte-stable across runs.  The JSON twin is the report's own fields;
a field marked :data:`PS` holds picoseconds and its key ends in ``_ps``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

from .history import History
from .peer import JOINING, NEGOTIATING, SCAN
from .simtime import format_time

SCHEMA_VERSION = 1

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_NOT_APPLICABLE = "n/a"

#: Entering either state ends a host's discovery phase.
DISCOVERY_END_STATES = frozenset({NEGOTIATING.value, JOINING.value})
_SCAN = SCAN.value

#: Field metadata of a report value in picoseconds.
PS = {"unit": "ps"}


@dataclass
class HostMetrics:
    host: str
    final_state: str
    discovery_status: str
    discovery_duration: Optional[int] = field(metadata=PS)
    completion_status: str          # go, client, incomplete or inactive
    completion_time: Optional[int] = field(metadata=PS)


@dataclass
class PingAppMetrics:
    owner: str
    dest: str
    sent: int
    received: int
    replies: int
    rtt_min: Optional[int] = field(metadata=PS)
    rtt_mean: Optional[int] = field(metadata=PS)
    rtt_max: Optional[int] = field(metadata=PS)


@dataclass
class MetricsReport:
    seed: int
    horizon: int = field(metadata=PS)
    hosts: list[HostMetrics]
    ping_apps: list[PingAppMetrics]
    relay_drops: int
    formation_status: str
    formation_time: Optional[int] = field(metadata=PS)
    schema_version: int = SCHEMA_VERSION


def collect_metrics(seed: int, horizon: int, history: History,
                    final_states: dict[str, str],
                    wifi_direct_hosts: list[str],
                    ping_apps=None) -> MetricsReport:
    """Fold a finished run's history into a :class:`MetricsReport`."""
    scan_entry: dict[str, int] = {}
    discovery_end: dict[str, int] = {}
    for tr in history.transitions:
        if tr.new == _SCAN and tr.host not in scan_entry:
            scan_entry[tr.host] = tr.time
        if tr.new in DISCOVERY_END_STATES and tr.host not in discovery_end:
            discovery_end[tr.host] = tr.time

    go_time = {host: time for time, host, _ssid in history.go_events}
    association_time = {host: time for time, host, _go, _ssid in history.associations}

    hosts = []
    completion_times = []
    any_incomplete = False
    for host, final_state in final_states.items():
        active = host in wifi_direct_hosts
        if not active or host not in scan_entry:
            discovery_status = STATUS_NOT_APPLICABLE
            discovery = None
        elif host in discovery_end:
            discovery_status = STATUS_OK
            discovery = discovery_end[host] - scan_entry[host]
        else:
            discovery_status = STATUS_TIMEOUT
            discovery = None

        if not active:
            completion_status, completion = "inactive", None
        elif host in go_time:
            completion_status, completion = "go", go_time[host]
        elif host in association_time:
            completion_status, completion = "client", association_time[host]
        else:
            completion_status, completion = "incomplete", None
            any_incomplete = True
        if completion is not None:
            completion_times.append(completion)

        hosts.append(HostMetrics(host, final_state, discovery_status,
                                 discovery, completion_status, completion))

    if not wifi_direct_hosts:
        formation_status, formation_time = STATUS_NOT_APPLICABLE, None
    elif any_incomplete:
        formation_status, formation_time = STATUS_TIMEOUT, None
    else:
        formation_status, formation_time = STATUS_OK, max(completion_times)

    app_metrics = []
    for app in ping_apps or []:
        stats = app.stats
        rtts = stats.rtts
        app_metrics.append(PingAppMetrics(
            owner=app.config.owner, dest=app.config.dest,
            sent=stats.sent, received=stats.received, replies=stats.replies,
            rtt_min=min(rtts) if rtts else None,
            rtt_mean=sum(rtts) // len(rtts) if rtts else None,
            rtt_max=max(rtts) if rtts else None))

    return MetricsReport(seed=seed, horizon=horizon, hosts=hosts,
                         ping_apps=app_metrics,
                         relay_drops=len(history.relay_drops),
                         formation_status=formation_status,
                         formation_time=formation_time)


def _fmt(value: Optional[int], status: Optional[str] = None) -> str:
    if value is None:
        return status or STATUS_NOT_APPLICABLE
    return format_time(value)


def render_flat(report: MetricsReport) -> str:
    """One metric per line, deterministic order."""
    lines = [
        f"schema_version = {report.schema_version}",
        f"seed = {report.seed}",
        f"horizon = {format_time(report.horizon)}",
        f"formation_time = {_fmt(report.formation_time, report.formation_status)}",
        f"relay_drops = {report.relay_drops}",
    ]
    for host in report.hosts:
        prefix = host.host
        lines.append(f"{prefix}.final_state = {host.final_state}")
        lines.append(f"{prefix}.discovery_duration = "
                     f"{_fmt(host.discovery_duration, host.discovery_status)}")
        lines.append(f"{prefix}.completion = {host.completion_status}")
        lines.append(f"{prefix}.completion_time = {_fmt(host.completion_time)}")
    for app in report.ping_apps:
        prefix = f"pingApp[{app.owner}->{app.dest}]"
        lines.append(f"{prefix}.sent = {app.sent}")
        lines.append(f"{prefix}.received = {app.received}")
        lines.append(f"{prefix}.replies = {app.replies}")
        lines.append(f"{prefix}.rtt_min = {_fmt(app.rtt_min)}")
        lines.append(f"{prefix}.rtt_mean = {_fmt(app.rtt_mean)}")
        lines.append(f"{prefix}.rtt_max = {_fmt(app.rtt_max)}")
    return "\n".join(lines) + "\n"


def render_json(report: MetricsReport) -> str:
    """Structured twin of the flat document (durations in picoseconds)."""
    return json.dumps(_json_value(report), indent=2, sort_keys=True) + "\n"


def _json_value(value):
    if is_dataclass(value):
        return {f.name + ("_ps" if f.metadata == PS else ""):
                _json_value(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, list):
        return [_json_value(item) for item in value]
    return value
