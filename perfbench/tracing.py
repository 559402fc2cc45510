"""Span tracer for the traced benchmark run.

The tracer wraps public entry points of the simulator's modules from the
outside (class attributes and module globals), so the program itself stays
untouched.  Every wrapped call records a span ``[name, start, end, parent]``;
spans stay in memory until the traced pass ends and are then folded into
per-layer counts, total times and self times (a span's duration minus the
durations of its direct children; calls are strictly nested on one thread, so
children never overlap).

Event actions are wrapped when they are scheduled and named by the prefix of
their event tag (``action:deliver``, ``action:ack-timeout``, ...), so the
engine loop's own time is the ``engine.run_until`` span minus its actions.
"""

from __future__ import annotations

import time
from collections import defaultdict

# tags whose actions belong to the medium or the traffic layer; every other
# tagged action is a peer timer (scan, search, listen, beacon, guards, ...)
MEDIUM_TAGS = frozenset({"deliver", "ack", "ack-timeout"})
TRAFFIC_TAGS = frozenset({"ping-tick", "relay", "ping-reply"})

# (module, owner attribute or None for a module global, function, span name)
WRAPPED = (
    ("engine", "Engine", "run_until", "engine.run_until"),
    ("medium", "Medium", "transmit", "medium.transmit"),
    ("peer", "Peer", "on_frame", "peer.on_frame"),
    ("traffic", "TrafficManager", "on_data", "traffic.on_data"),
    ("trace", "TraceCollector", "on_delivery", "trace.on_delivery"),
    ("runner", "RunResult", "trace_text", "trace.text"),
    ("runner", "Simulation", "__init__", "runner.construct"),
    ("runner", None, "collect_metrics", "metrics.collect"),
    ("validate", None, "parse_trace_text", "trace.parse"),
    ("validate", None, "group_transmissions", "validate.group"),
    ("validate", None, "check_ack_pairing", "validate.ack_pairing"),
    ("validate", None, "check_single_go", "validate.check"),
    ("validate", None, "check_relay_rule", "validate.check"),
    ("validate", None, "check_emission_order", "validate.check"),
)


class Tracer:
    """Records nested spans while installed into one imported ``wfdsim``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.outcomes: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            index = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(index)
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, wf) -> None:
        """Wrap the entry points of the imported package *wf*."""
        for module_name, owner_name, attr, span in WRAPPED:
            module = getattr(wf, module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            self._patch(owner, attr, self._wrap(span, getattr(owner, attr)))

        tracer = self
        schedule = wf.engine.Engine.schedule

        def traced_schedule(engine, fire_time, action, tag="", target=""):
            wrapped = tracer._wrap("action:" + tag.split(":", 1)[0], action)
            index = tracer._enter("engine.schedule")
            try:
                return schedule(engine, fire_time, wrapped, tag, target)
            finally:
                tracer._exit(index)
        self._patch(wf.engine.Engine, "schedule", traced_schedule)

        send_with_ack = wf.medium.Medium.send_with_ack

        def traced_send_with_ack(medium, frame, on_result):
            def settled(outcome):
                tracer.outcomes[outcome] += 1
                on_result(outcome)
            return send_with_ack(medium, frame, settled)
        self._patch(wf.medium.Medium, "send_with_ack", traced_send_with_ack)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- folding -----------------------------------------------------------

    def fold(self) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, ``total_s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        folded: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _parent), children in zip(self.spans, child_time):
            entry = folded[name]
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return folded


def layer_metrics(folded, outcomes) -> dict[str, float]:
    """Per-layer metrics that come from spans, for one traced pass."""
    def get(name, key):
        return folded[name][key] if name in folded else 0

    def mean_us(name):
        count = get(name, "count")
        return get(name, "total_s") / count * 1e6 if count else 0.0

    transmits = get("medium.transmit", "count")
    deliveries = get("trace.on_delivery", "count")
    settled = sum(outcomes.values())
    peer_timer_self = sum(
        entry["self_s"] for name, entry in folded.items()
        if name.startswith("action:")
        and name[len("action:"):] not in MEDIUM_TAGS | TRAFFIC_TAGS)
    return {
        "engine.loop_self_s": get("engine.run_until", "self_s"),
        "engine.schedule_us": mean_us("engine.schedule"),
        "medium.transmits": transmits,
        "medium.deliveries": deliveries,
        "medium.fanout_mean": deliveries / transmits if transmits else 0.0,
        "medium.transmit_us": mean_us("medium.transmit"),
        "medium.deliver_self_s": get("action:deliver", "self_s"),
        "medium.ack_timeouts": get("action:ack-timeout", "count"),
        "medium.acked_share": outcomes.get("acked", 0) / settled if settled else 0.0,
        "peer.on_frame_calls": get("peer.on_frame", "count"),
        "peer.on_frame_self_s": get("peer.on_frame", "self_s"),
        "peer.timer_self_s": peer_timer_self,
        "traffic.on_data_calls": get("traffic.on_data", "count"),
        "traffic.on_data_self_s": get("traffic.on_data", "self_s"),
        "trace.on_delivery_self_s": get("trace.on_delivery", "self_s"),
        "trace.text_s": get("trace.text", "total_s"),
        "trace.parse_s": get("trace.parse", "total_s"),
        "validate.group_s": get("validate.group", "total_s"),
        "validate.ack_pairing_s": get("validate.ack_pairing", "total_s"),
        "validate.checks_s": get("validate.check", "total_s"),
        "runner.construct_s": get("runner.construct", "total_s"),
        "metrics.collect_s": get("metrics.collect", "total_s"),
    }
