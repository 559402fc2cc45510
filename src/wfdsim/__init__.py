"""wfdsim: a deterministic discrete-event simulator of Wi-Fi Direct group
formation, covering discovery, group-owner negotiation, provisioning,
autonomous and persistent groups, joining, and owner-relayed ping traffic."""

from .config import ConfigError, ScenarioConfig, default_scenario, parse_config, serialize_config
from .engine import Engine, Event, Rng, SimulationError, substream
from .history import History
from .medium import BROADCAST, Frame, FrameKind, Medium, MediumParams
from .metrics import MetricsReport, collect_metrics, render_flat, render_json
from .peer import (
    CLIENT,
    GO,
    LEGAL_TRANSITIONS,
    GroupView,
    Peer,
    PeerConfig,
    PeerState,
    PersistentGroupRecord,
    decide_go_role,
    phase2_frames,
)
from .runner import RunResult, Simulation, SweepResult, sweep_discovery
from .simtime import format_duration, format_time, parse_duration, seconds
from .trace import TraceCollector, TraceRecord, Transmission, parse_trace_text, rows
from .traffic import PingAppConfig, PingStats, TrafficManager
from .validate import Violation, validate_history, validate_trace_text

__version__ = "0.1.0"

__all__ = [
    "BROADCAST",
    "CLIENT",
    "ConfigError",
    "Engine",
    "Event",
    "Frame",
    "FrameKind",
    "GO",
    "GroupView",
    "History",
    "LEGAL_TRANSITIONS",
    "Medium",
    "MediumParams",
    "MetricsReport",
    "Peer",
    "PeerConfig",
    "PeerState",
    "PersistentGroupRecord",
    "PingAppConfig",
    "PingStats",
    "Rng",
    "RunResult",
    "ScenarioConfig",
    "Simulation",
    "SimulationError",
    "SweepResult",
    "TraceCollector",
    "TraceRecord",
    "TrafficManager",
    "Transmission",
    "Violation",
    "collect_metrics",
    "decide_go_role",
    "default_scenario",
    "format_duration",
    "format_time",
    "parse_config",
    "parse_duration",
    "parse_trace_text",
    "phase2_frames",
    "render_flat",
    "render_json",
    "rows",
    "seconds",
    "serialize_config",
    "substream",
    "sweep_discovery",
    "validate_history",
    "validate_trace_text",
]
