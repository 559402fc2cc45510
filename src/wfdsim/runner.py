"""Scenario execution: builds a simulation from a configuration, runs it and
packages the observable outputs (trace, history, metrics, stored persistent
records).

Seed handling: the run seed feeds per-device RNG substreams ``seed XOR
device_index`` plus a dedicated medium substream, so a device's draws do not
depend on how many other devices exist.  Run seeds that differ only in their
low bits therefore share streams (seeds 0 and 1 run the same two 2-host
streams, swapped), so a sweep spaces its run seeds ``1 << 16`` apart.
"""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass
from typing import Iterable, Optional

from .config import ScenarioConfig, default_scenario
from .engine import Engine, SimulationError, substream
from .history import History
from .medium import Medium
from .metrics import (DISCOVERY_END_STATES, MetricsReport, collect_metrics,
                      render_flat, render_json)
from .peer import Peer, PersistentGroupRecord
from .simtime import PS_PER_SECOND
from .trace import TraceCollector, Transmission
from .traffic import TrafficManager

# substream index for the medium's loss draws, far outside host indices
MEDIUM_STREAM = 0x4D454449554D


@dataclass
class RunResult:
    config: ScenarioConfig
    seed: int
    horizon: int
    collector: TraceCollector  # empty when the run kept no trace
    history: History
    metrics: MetricsReport
    final_states: dict[str, str]
    persistent_records: dict[str, list[PersistentGroupRecord]]
    events_fired: int

    @property
    def trace(self) -> list[Transmission]:
        """One transmission per on-air frame, built on each access;
        ``collector.records`` lists the lines."""
        return self.collector.transmissions

    def trace_text(self) -> str:
        return self.collector.text()

    def metrics_flat(self) -> str:
        return render_flat(self.metrics)

    def metrics_json(self) -> str:
        return render_json(self.metrics)


class Simulation:
    """One scenario wired up and ready to run, once: peers start with the
    run, so a second run would restart them mid-protocol."""

    def __init__(self, config: ScenarioConfig, seed: Optional[int] = None,
                 persistent_records: Optional[dict[str, Iterable[PersistentGroupRecord]]] = None,
                 collect_trace: bool = True):
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.engine = Engine()
        self.history = History()
        self.trace = TraceCollector() if collect_trace else None
        self.medium = Medium(self.engine, config.medium,
                             substream(self.seed, MEDIUM_STREAM),
                             on_delivery=self.trace.on_delivery if self.trace else None)
        self.traffic = TrafficManager(self.engine, self.medium, self.history)
        self.peers: list[Peer] = []
        for index, peer_config in enumerate(config.hosts):
            peer = Peer(index, peer_config, self.engine, self.medium,
                        substream(self.seed, index), self.history)
            if persistent_records and peer.address in persistent_records:
                for record in persistent_records[peer.address]:
                    peer.records[(record.peer, record.ssid)] = record
            self.peers.append(peer)
        for app_config in config.ping_apps:
            self.traffic.add_app(app_config)
        self._started = False

    def run(self, until: Optional[int] = None,
            stop_after_discovery: bool = False) -> RunResult:
        if self._started:
            raise SimulationError("a Simulation runs once; build a new one")
        self._started = True
        horizon = self.config.horizon if until is None else until
        if stop_after_discovery:
            self._arm_discovery_stop()
        for peer in self.peers:
            self.engine.schedule(self.engine.now, peer.start, "start")
        self.traffic.attach(self.peers)
        fired = self.engine.run_until(horizon)
        return self._result(horizon, fired)

    def _arm_discovery_stop(self) -> None:
        waiting = {peer.address for peer in self.peers
                   if peer.config.wifi_direct_used and not peer.config.autonomous_go}

        def watch(transition):
            if transition.new in DISCOVERY_END_STATES:
                waiting.discard(transition.host)
                if not waiting:
                    self.engine.request_stop()

        self.history.transition_watcher = watch

    def _result(self, horizon: int, fired: int) -> RunResult:
        final_states = {peer.address: peer.state.value for peer in self.peers}
        wifi_hosts = [peer.address for peer in self.peers
                      if peer.config.wifi_direct_used]
        metrics = collect_metrics(
            seed=self.seed, horizon=horizon, history=self.history,
            final_states=final_states, wifi_direct_hosts=wifi_hosts,
            ping_apps=self.traffic.apps)
        records = {peer.address: sorted(peer.records.values(),
                                        key=lambda r: (r.peer, r.ssid))
                   for peer in self.peers if peer.records}
        return RunResult(config=self.config, seed=self.seed, horizon=horizon,
                         collector=self.trace or TraceCollector(),
                         history=self.history, metrics=metrics,
                         final_states=final_states,
                         persistent_records=records,
                         events_fired=fired)


# -- discovery-time sweeps ---------------------------------------------------

#: width of a SweepResult.histogram bucket: half a second
HISTOGRAM_BUCKET = PS_PER_SECOND // 2


@dataclass
class SweepResult:
    seeds: list[int]                     # run seeds, in run order
    durations: dict[int, list[int]]      # seed -> per-host discovery durations
    timeouts: list[int]                  # seeds with incomplete discovery
    wall_seconds: float

    @property
    def samples(self) -> list[int]:
        return [d for seed in self.seeds for d in self.durations.get(seed, [])]

    @property
    def mean(self) -> Optional[float]:
        samples = self.samples
        if not samples:
            return None
        return sum(samples) / len(samples) / PS_PER_SECOND

    @property
    def minimum(self) -> Optional[float]:
        samples = self.samples
        return min(samples) / PS_PER_SECOND if samples else None

    @property
    def maximum(self) -> Optional[float]:
        samples = self.samples
        return max(samples) / PS_PER_SECOND if samples else None

    def seeds_completed_within(self, limit_ps: int) -> int:
        count = 0
        for seed in self.seeds:
            durations = self.durations.get(seed)
            if durations and seed not in self.timeouts \
                    and max(durations) <= limit_ps:
                count += 1
        return count

    def histogram(self) -> list[tuple[float, int]]:
        """(bucket start in seconds, sample count) pairs of HISTOGRAM_BUCKET
        wide buckets, from zero up to the last one holding a sample."""
        buckets: dict[int, int] = {}
        for sample in self.samples:
            buckets[sample // HISTOGRAM_BUCKET] = \
                buckets.get(sample // HISTOGRAM_BUCKET, 0) + 1
        if not buckets:
            return []
        top = max(buckets)
        return [(i * HISTOGRAM_BUCKET / PS_PER_SECOND, buckets.get(i, 0))
                for i in range(top + 1)]


def sweep_discovery(config: Optional[ScenarioConfig] = None,
                    seeds: Iterable[int] = range(100),
                    horizon: Optional[int] = None) -> SweepResult:
    """Run the scenario once per sweep index in *seeds*, stopping each run as
    soon as every non-autonomous device has discovered, and gather discovery
    durations.

    Index i runs with seed ``i << 16``.  Each host stream of a run with fewer
    than 65,536 hosts then lies in the run's own block of 65,536 stream
    seeds, so no two runs share a host or medium stream.  The result lists
    the run seeds, so ``Simulation(config, seed=...)`` reruns any sample."""
    if config is None:
        config = default_scenario(2)
    seed_list = [index << 16 for index in seeds]
    durations: dict[int, list[int]] = {}
    timeouts: list[int] = []
    started = _wallclock.monotonic()
    for seed in seed_list:
        sim = Simulation(config, seed=seed, collect_trace=False)
        result = sim.run(until=horizon, stop_after_discovery=True)
        durations[seed] = [h.discovery_duration for h in result.metrics.hosts
                           if h.discovery_status == "ok"]
        if any(h.discovery_status == "timeout" for h in result.metrics.hosts):
            timeouts.append(seed)
    return SweepResult(seeds=seed_list, durations=durations, timeouts=timeouts,
                       wall_seconds=_wallclock.monotonic() - started)
