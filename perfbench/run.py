"""wfdsim benchmark: one workload, one process, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the simulator is imported from ``src/``
of that checkout and nowhere else.  The loop is closed: each op (one
simulation or one trace validation) starts when the previous one returns.

``--trace 0`` cycles through the workload's fixed inputs for ``--seconds``
seconds, at least once through all of them, with no tracing, and reports
the end-to-end metrics.  ``attempted`` and ``failed`` count each input
once, so they depend on the seed alone and not on host speed.
``--trace 1`` replays the workload's identity set, alternating untraced and
traced passes for ``--seconds`` seconds, and reports the per-layer metrics
plus the tracing overhead.
Human-readable lines come first; the last line of standard output is the
JSON result.  The exit code is 1 when an output check fails and 2 when the
simulator cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import ChunkRate, CycleRate, calibrated_seconds, reference_seconds
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Tally

SRC = Path(__file__).resolve().parent.parent / "src"

# per-layer metrics that are exact counts (or ratios of counts): they must
# repeat exactly between passes over the same ops
COUNT_METRICS = (
    "engine.events_fired", "engine.events_scheduled", "engine.cancelled_share",
    "medium.transmits", "medium.deliveries", "medium.fanout_mean",
    "medium.ack_timeouts", "medium.acked_share", "peer.on_frame_calls",
    "traffic.on_data_calls", "traffic.ping_reply_share", "validate.violations",
)
MAX_PROBLEMS_SHOWN = 20


def import_fresh():
    """Import ``wfdsim`` from the checkout, discarding any earlier import so
    that every set-up pays the import again."""
    for name in [n for n in sys.modules if n == "wfdsim" or n.startswith("wfdsim.")]:
        del sys.modules[name]
    wf = importlib.import_module("wfdsim")
    if Path(wf.__file__).resolve().parent != (SRC / "wfdsim").resolve():
        raise ImportError(f"wfdsim imported from {wf.__file__}, not from {SRC}")
    return wf


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def named_metrics(tally: Tally) -> dict[str, tuple[float, str]]:
    """The workload-specific metrics, each over every op of the run."""
    return {
        "sim_events_per_s": (tally.events / tally.seconds, "events/s"),
        "deliveries_per_s": (tally.rows / tally.seconds, "rows/s"),
        "run_ms_p50": (statistics.median(tally.op_seconds) * 1e3, "ms"),
        "validate_rows_per_s": (tally.rows / tally.seconds, "rows/s"),
        "ops_failed_share": (tally.failed / tally.ops, "ratio"),
    }


def op_counts(tally: Tally) -> dict[str, float]:
    """Per-layer metrics read from the simulator's own counters and outputs."""
    return {
        "engine.events_fired": tally.events,
        "engine.events_scheduled": tally.scheduled,
        "engine.cancelled_share": ratio(tally.cancelled, tally.scheduled),
        "traffic.ping_reply_share": ratio(tally.pings_replied, tally.pings_sent),
        "validate.violations": sum(tally.violations.values()),
    }


def run_timed(workload, wf, state, seconds: float):
    """Cycle through the workload's inputs for *seconds*, at least once."""
    tally = Tally(workload)
    inputs = workload.inputs
    rate = CycleRate(inputs) if workload.per_input_rate else ChunkRate()
    deadline = time.perf_counter() + seconds
    while tally.runs < inputs or time.perf_counter() < deadline:
        index = tally.runs % inputs
        op = workload.op(wf, state, index)
        tally.add(index, op)
        rate.add(op.rows if workload.item == "rows" else op.events, op.seconds)
    return tally, {"work_per_s": rate.value()}, []


def run_pass(workload, wf, state, tracer=None) -> Tally:
    """One pass over the identity set, traced when *tracer* is given."""
    tally = Tally(workload)
    if tracer is not None:
        tracer.install(wf)
    try:
        for i in range(workload.identity_ops):
            tally.add(i, workload.op(wf, state, i))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return tally


def run_traced(workload, wf, state, seconds: float):
    """Alternate untraced and traced passes over the identity set, swapping
    which goes first each time so neither always follows the other.  The
    first untraced pass gives the op counts and output checks; every other
    pass must reproduce its digest."""
    first = None
    plain_s, traced_s, passes, digests = [], [], [], set()
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        tracer = Tracer()
        if len(passes) % 2:
            traced = run_pass(workload, wf, state, tracer)
            plain = run_pass(workload, wf, state)
        else:
            plain = run_pass(workload, wf, state)
            traced = run_pass(workload, wf, state, tracer)
        metrics = layer_metrics(tracer.fold(), tracer.outcomes)
        del tracer
        metrics.update(op_counts(traced))
        passes.append(metrics)
        plain_s.append(plain.seconds)
        traced_s.append(traced.seconds)
        digests |= {plain.digest(), traced.digest()}
        first = first or plain

    problems = []
    if len(digests) != 1:
        problems.append("passes over the same ops gave different outputs")
    measured = {}
    for name in passes[0]:
        values = [metrics[name] for metrics in passes]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between passes: {values}")
            measured[name] = values[0]
        else:
            measured[name] = statistics.median(values)
    measured["tracing.overhead_share"] = \
        statistics.median(traced_s) / statistics.median(plain_s) - 1
    print(f"{len(passes)} untraced and {len(passes)} traced passes over "
          f"{workload.identity_ops} ops")
    return first, measured, problems


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_share", "_mean")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wfdsim" / "__init__.py").is_file():
        print(f"error: no simulator source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    setup_times = []
    reference_seconds()                         # warm the kernel up
    ref = reference_seconds()
    for _ in range(workload.setup_repeats):
        started = time.perf_counter()
        wf = import_fresh()
        state = workload.prepare(wf, args.seed)
        host_s = time.perf_counter() - started
        after = reference_seconds()
        setup_times.append(calibrated_seconds(host_s, ref, after))
        ref = after
    setup_s = statistics.median(setup_times)

    run = run_traced if args.trace else run_timed
    tally, measured, problems = run(workload, wf, state, args.seconds)
    problems += workload.check(tally)

    print(f"identity digest over the first {workload.identity_ops} ops: "
          f"{tally.digest()}")
    if tally.violations:
        print("trace violations by code: " + ", ".join(
            f"{code}={count}" for code, count in sorted(tally.violations.items())))
    for error in sorted(tally.errors):
        print(f"failed op: {error}")

    if args.trace:
        metrics = {name: (value, unit_of(name))
                   for name, value in sorted(measured.items())}
    else:
        named = named_metrics(tally)
        named["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        for name in workload.reported + ("ops_failed_share", "peak_rss_mb"):
            value, unit = named[name]
            print(f"{workload.name} {name} = {value:.6g} {unit}")
        metrics = {
            "work_per_s": (measured["work_per_s"], "items/s"),
            "setup_s": (setup_s, "s"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"attempted {tally.ops} distinct ops ({tally.runs} runs in all), "
          f"failed {tally.failed}")
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"CHECK FAILED: {len(problems) - MAX_PROBLEMS_SHOWN} more problems")
    print(json.dumps({
        "correct": not problems, "attempted": tally.ops, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
