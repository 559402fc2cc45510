"""The benchmark's workloads: inputs made from a seed, one op, output checks.

Every op is one closed-loop call into the simulator: one simulation
(``Simulation(...)`` + ``run()`` + result, plus ``trace_text()`` where a
trace is kept) or one ``validate_trace_text`` call.  Only the op itself is
timed; output checks and digests run outside the timed region.

A run draws a fixed list of ``inputs`` op seeds from ``random.Random(seed)``
and cycles through it, so the same benchmark seed gives the same inputs and
the same attempted and failed op counts however fast the host is.  Each
input counts as one attempted op; every later run of an input must
reproduce its first output digest.  The first ``identity_ops`` inputs form
the identity set: their outputs are hashed into one digest that two commits
must reproduce byte for byte, and the traced run replays exactly those ops.
"""

from __future__ import annotations

import hashlib
import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

DENSE_HOSTS = 40
RELAY_CLIENTS = 6
RELAY_LOSS = 0.05
DENSE_TRACES = 5                 # dense inputs trace_validate checks

SWEEP_MEAN_RANGE_S = (1.5, 3.5)        # paper criterion 4
SWEEP_DISCOVERED_WITHIN_S = 10
SWEEP_MIN_DISCOVERED_SHARE = 0.95


@dataclass
class OpResult:
    seconds: float                     # host time of the op
    error: str = ""                    # SimulationError text of a failed op
    events: int = 0                    # Engine.fired_count
    scheduled: int = 0
    cancelled: int = 0
    rows: int = 0                      # trace rows delivered or validated
    digest: bytes = b""                # hash of the op's outputs
    problems: list[str] = field(default_factory=list)
    pings_sent: int = 0
    pings_replied: int = 0
    violations: Counter = field(default_factory=Counter)
    discovery_s: list[float] = field(default_factory=list)
    discovered_within: bool = False


class Tally:
    """Totals over the ops of one run or pass.

    Work and time (events, rows, seconds) count every op run.  Attempted
    and failed ops, errors and the output checks count each input once, at
    its first run; a later run of an input only has to reproduce the first
    run's digest.  It keeps no per-op objects beyond one digest per input,
    so neither memory nor the garbage collector's work grows with the
    number of ops a faster program completes.
    """

    def __init__(self, workload: "Workload"):
        self.identity_ops = workload.identity_ops
        self.runs = 0                       # ops run, repeats included
        self.ops = self.failed = 0          # distinct inputs run, failed
        self.events = self.scheduled = self.cancelled = self.rows = 0
        self.seconds = 0.0
        self.op_seconds = array("d")
        self.errors: set[str] = set()
        self.problems: list[str] = []
        self.digests: list[bytes] = []      # one per input, in input order
        self.violations: Counter = Counter()
        self.pings_sent = self.pings_replied = 0
        self.discovery_sum = 0.0
        self.discovery_samples = self.discovered_within = 0

    def add(self, index: int, op: OpResult) -> None:
        """Count *op*, the run of input *index*; inputs run in order."""
        self.runs += 1
        self.events += op.events
        self.scheduled += op.scheduled
        self.cancelled += op.cancelled
        self.rows += op.rows
        self.seconds += op.seconds
        self.op_seconds.append(op.seconds)
        if index < len(self.digests):
            if op.digest != self.digests[index]:
                self.problems.append(f"input {index} gave another output "
                                     f"when run again")
            return
        self.ops += 1
        self.failed += bool(op.error)
        if op.error:
            self.errors.add(op.error)
        self.problems += op.problems
        self.digests.append(op.digest)
        self.violations += op.violations
        self.pings_sent += op.pings_sent
        self.pings_replied += op.pings_replied
        self.discovery_sum += sum(op.discovery_s)
        self.discovery_samples += len(op.discovery_s)
        self.discovered_within += op.discovered_within

    def digest(self) -> str:
        """The identity digest: over the outputs of the identity set."""
        return hashlib.sha256(
            b"".join(self.digests[:self.identity_ops])).hexdigest()


def op_seeds(seed: int, count: int) -> list[int]:
    """The first *count* op seeds drawn from the benchmark seed."""
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def relay_config_text(loss: float) -> str:
    """host[0] owns group "G"; join-only clients 1..N ping the next client."""
    lines = ["horizon = 20s",
             f"**.medium.lossProbability = {loss}",
             "**.host[0].wlan[0].mgmt.WiFiDirectGO = true",
             '**.host[0].wlan[0].mgmt.strGroup = "G"']
    for i in range(1, RELAY_CLIENTS + 1):
        lines += [f"**.host[{i}].wlan[0].mgmt.joinOnly = true",
                  f'**.host[{i}].wlan[0].mgmt.strGroup = "G"',
                  f'*.host[{i}].pingApp[0].destAddr = "host[{i % RELAY_CLIENTS + 1}]"',
                  f"*.host[{i}].pingApp[0].sendInterval = 100ms"]
    return "\n".join(lines) + "\n"


def relay_config(wf, loss: float):
    """The relay_traffic config, refused if the parser ignored any line."""
    config = wf.parse_config(relay_config_text(loss))
    if config.warnings:
        raise ValueError(f"relay_traffic config has warnings: {config.warnings}")
    return config


def simulate(wf, config, seed: int, keep_trace: bool,
             stop_after_discovery: bool = False) -> OpResult:
    """One simulation op; everything after the timed region is checking."""
    started = time.perf_counter()
    sim = wf.Simulation(config, seed=seed, collect_trace=keep_trace)
    try:
        result = sim.run(stop_after_discovery=stop_after_discovery)
        text = result.trace_text() if keep_trace else ""
    except wf.SimulationError as exc:
        seconds = time.perf_counter() - started
        result, text, error = None, "", f"{type(exc).__name__}: {exc}"
    else:
        seconds = time.perf_counter() - started
        error = ""

    engine = sim.engine
    op = OpResult(seconds, error=error, events=engine.fired_count,
                  scheduled=engine.scheduled_count,
                  cancelled=engine.cancelled_count,
                  rows=len(sim.trace.records) if sim.trace else 0)
    if result is None:
        op.digest = hashlib.sha256(f"seed {seed} {error}".encode()).digest()
        return op

    history_violations = wf.validate_history(result.history)
    if history_violations:
        op.problems.append(f"seed {seed}: validate_history: {history_violations[0]}")
    for app in result.metrics.ping_apps:
        op.pings_sent += app.sent
        op.pings_replied += app.replies
        if app.replies > app.sent:
            op.problems.append(f"seed {seed}: {app.owner}->{app.dest} has "
                               f"{app.replies} replies for {app.sent} pings")
    for host in result.metrics.hosts:
        if host.discovery_status == "ok":
            op.discovery_s.append(host.discovery_duration / wf.simtime.PS_PER_SECOND)
    timed_out = any(h.discovery_status == "timeout" for h in result.metrics.hosts)
    op.discovered_within = not timed_out and bool(op.discovery_s) \
        and max(op.discovery_s) <= SWEEP_DISCOVERED_WITHIN_S
    op.digest = hashlib.sha256(
        text.encode() + result.metrics_json().encode()).digest()
    return op


class Workload:
    name = ""
    item = "events"                  # what work_per_s counts: events or rows
    reported: tuple[str, ...] = ()   # the workload's own named metrics
    inputs = 1                       # distinct op inputs a run cycles through
    identity_ops = 1                 # the first inputs, hashed and traced
    per_input_rate = True            # rate from per-input medians, else chunks
    setup_repeats = 7

    def prepare(self, wf, seed: int):
        raise NotImplementedError

    def op(self, wf, state, index: int) -> OpResult:
        raise NotImplementedError

    def check(self, tally: Tally) -> list[str]:
        return tally.problems


class DenseFormation(Workload):
    name = "dense_formation"
    item = "rows"                    # host time follows deliveries here
    reported = ("sim_events_per_s", "deliveries_per_s")
    inputs = 32
    identity_ops = 3

    def prepare(self, wf, seed):
        return wf.default_scenario(DENSE_HOSTS), op_seeds(seed, self.inputs)

    def op(self, wf, state, index):
        config, seeds = state
        return simulate(wf, config, seeds[index], True)


class DiscoverySweep(Workload):
    name = "discovery_sweep"
    reported = ("sim_events_per_s", "run_ms_p50")
    inputs = 2000
    identity_ops = 100
    per_input_rate = False           # ops too short to time the kernel per op

    def prepare(self, wf, seed):
        return wf.default_scenario(2), op_seeds(seed, self.inputs)

    def op(self, wf, state, index):
        config, seeds = state
        return simulate(wf, config, seeds[index], False,
                        stop_after_discovery=True)

    def check(self, tally):
        problems = super().check(tally)
        mean = tally.discovery_sum / tally.discovery_samples \
            if tally.discovery_samples else float("nan")
        low, high = SWEEP_MEAN_RANGE_S
        if not low <= mean <= high:
            problems.append(f"mean discovery {mean:.3f} s outside [{low}, {high}] s")
        share = tally.discovered_within / tally.ops
        if share < SWEEP_MIN_DISCOVERED_SHARE:
            problems.append(f"only {share:.1%} of seeds discovered within "
                            f"{SWEEP_DISCOVERED_WITHIN_S} s")
        return problems


class RelayTraffic(Workload):
    name = "relay_traffic"
    reported = ("sim_events_per_s", "deliveries_per_s", "run_ms_p50")
    inputs = 24
    identity_ops = 2

    def prepare(self, wf, seed):
        return relay_config(wf, RELAY_LOSS), op_seeds(seed, self.inputs)

    def op(self, wf, state, index):
        config, seeds = state
        return simulate(wf, config, seeds[index], True)


class TraceValidate(Workload):
    name = "trace_validate"
    item = "rows"
    reported = ("validate_rows_per_s",)
    inputs = DENSE_TRACES + 1        # one input per trace text
    identity_ops = DENSE_TRACES + 1
    setup_repeats = 3

    def prepare(self, wf, seed):
        """Lossless traces of the seed's first dense_formation inputs and its
        first relay_traffic input; a crashed run leaves the rows it recorded."""
        dense = op_seeds(seed, DENSE_TRACES)
        runs = [(wf.default_scenario(DENSE_HOSTS), op_seed) for op_seed in dense]
        runs.append((relay_config(wf, 0.0), dense[0]))
        texts = []
        for config, op_seed in runs:
            sim = wf.Simulation(config, seed=op_seed)
            try:
                sim.run()
            except wf.SimulationError:
                pass
            texts.append(sim.trace.text())
        return texts

    def op(self, wf, texts, index):
        text = texts[index]
        started = time.perf_counter()
        violations = wf.validate_trace_text(text)
        op = OpResult(time.perf_counter() - started, rows=text.count("\n"),
                      violations=Counter(v.code for v in violations))
        counts = sorted(op.violations.items())
        op.digest = hashlib.sha256(text.encode() + repr(counts).encode()).digest()
        return op


WORKLOADS = {w.name: w for w in (DenseFormation(), DiscoverySweep(),
                                 RelayTraffic(), TraceValidate())}
