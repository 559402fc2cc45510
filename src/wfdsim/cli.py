"""Command-line runner.

Subcommands:

* ``run``      execute one scenario, writing trace and metrics files
* ``sweep``    run many seeds and aggregate discovery-duration statistics
* ``validate`` replay a trace file through the protocol-shape checkers

Exit status: 0 on success, 1 when ``validate`` finds violations, 2 for
configuration or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .config import default_scenario, parse_config
from .engine import SimulationError
from .runner import Simulation, sweep_discovery
from .simtime import PS_PER_SECOND, parse_duration
from .trace import trace_parts
from .validate import validate_trace_text

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


def _load_config(path: Optional[str], hosts: Optional[int]):
    """The scenario at *path*, or the default; warnings go to stderr."""
    if path is None:
        return default_scenario(2 if hosts is None else hosts)
    text = Path(path).read_text(encoding="utf-8")
    config = parse_config(text, host_count=hosts)
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return config


def _cmd_run(args) -> int:
    config = _load_config(args.config, args.hosts)
    until = parse_duration(args.until) if args.until else None
    sim = Simulation(config, seed=args.seed)
    try:
        result = sim.run(until=until)
    finally:
        # also after a crash, so the rows up to it are kept
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as stream:
                stream.writelines(trace_parts(sim.trace.entries))
    if args.metrics:
        Path(args.metrics).write_text(result.metrics_flat(), encoding="utf-8")
        Path(args.metrics + ".json").write_text(result.metrics_json(),
                                                encoding="utf-8")
    print(f"seed {result.seed}: {result.events_fired} events, "
          f"{sim.trace.row_count()} trace rows, "
          f"formation {result.metrics.formation_status}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.seeds < 0:
        raise ValueError(f"negative seed count {args.seeds}")
    config = _load_config(args.config, args.hosts)
    horizon = parse_duration(args.until) if args.until else None
    result = sweep_discovery(config, seeds=range(args.seeds), horizon=horizon)
    mean = result.mean
    print(f"seeds: {len(result.seeds)} (run i uses seed i << 16)")
    print(f"run seeds: {' '.join(map(str, result.seeds))}")
    print(f"discovery samples: {len(result.samples)}")
    print(f"mean: {mean:.3f} s" if mean is not None else "mean: n/a")
    if result.minimum is not None:
        print(f"min: {result.minimum:.3f} s")
        print(f"max: {result.maximum:.3f} s")
    print(f"timeouts: {len(result.timeouts)}"
          + "".join(f" {seed}" for seed in result.timeouts))
    for bucket_start, count in result.histogram():
        bar = "#" * count
        print(f"{bucket_start:5.1f}s {count:4d} {bar}")
    if args.out:
        payload = {
            "seeds": len(result.seeds),
            "run_seeds": result.seeds,
            "mean_s": mean,
            "min_s": result.minimum,
            "max_s": result.maximum,
            "timeouts": result.timeouts,
            "within_10s": result.seeds_completed_within(10 * PS_PER_SECOND),
            "histogram": result.histogram(),
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n",
                                  encoding="utf-8")
    return EXIT_OK


def _cmd_validate(args) -> int:
    # the trace does not carry the medium's ACK timing and retry budget
    params = None
    if args.config:
        params = _load_config(args.config, None).medium
    text = Path(args.trace).read_text(encoding="utf-8")
    violations = validate_trace_text(text, params)
    if not violations:
        print("trace ok")
        return EXIT_OK
    for violation in violations:
        print(str(violation))
    print(f"{len(violations)} violation(s)")
    return EXIT_VIOLATIONS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfdsim",
        description="Deterministic Wi-Fi Direct group-formation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("--config", help="scenario configuration file")
    run.add_argument("--hosts", type=int, help="host count when the config does not say")
    run.add_argument("--seed", type=int, default=None, help="run seed")
    run.add_argument("--until", help="simulation horizon, e.g. 20s")
    run.add_argument("--trace", help="write the delivery trace to this file")
    run.add_argument("--metrics", help="write metrics here (flat text; JSON twin at <path>.json)")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="discovery-duration statistics over many seeds")
    sweep.add_argument("--config", help="scenario configuration file")
    sweep.add_argument("--hosts", type=int, help="host count when the config does not say")
    sweep.add_argument("--seeds", type=int, default=100,
                       help="number of runs; run i uses seed i << 16")
    sweep.add_argument("--until", help="per-run horizon")
    sweep.add_argument("--out", help="write aggregate JSON here")
    sweep.set_defaults(func=_cmd_sweep)

    validate = sub.add_parser("validate", help="check a trace file")
    validate.add_argument("--trace", required=True, help="trace file to check")
    validate.add_argument("--config", help="scenario configuration file the trace "
                          "was made with, for its medium's ACK timing and retries")
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, SimulationError, OSError) as exc:
        # a ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
