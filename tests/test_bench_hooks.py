"""The benchmark's span tracer must still find and wrap the simulator's
entry points, or ``perfbench/run.py --trace 1`` breaks."""

import hashlib
import importlib.util
from pathlib import Path

from conftest import VERBATIM_AUTONOMOUS_CONFIG
import wfdsim
from wfdsim import Simulation, parse_config, seconds

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_owners(tracing):
    """(owner, attribute, span name) for every entry the tracer wraps."""
    for module_name, owner_name, attr, span in tracing.WRAPPED:
        module = getattr(wfdsim, module_name)
        yield (module if owner_name is None else getattr(module, owner_name),
               attr, span)


def test_every_wrapped_entry_point_exists():
    for owner, attr, _span in wrapped_owners(load_tracing()):
        assert callable(getattr(owner, attr, None)), f"{owner!r} has no {attr}"


def run_three_hosts() -> str:
    """One 5 s run of the autonomous three-host scenario, checked; returns
    the sha256 of its trace and metrics."""
    result = Simulation(parse_config(VERBATIM_AUTONOMOUS_CONFIG),
                        seed=15).run(until=seconds(5))
    text = result.trace_text()
    assert wfdsim.validate_trace_text(text) == []
    return hashlib.sha256((text + result.metrics_json()).encode()).hexdigest()


def test_tracer_records_every_span_and_restores_the_originals():
    tracing = load_tracing()
    wrapped = list(wrapped_owners(tracing))
    patched = wrapped + [
        (wfdsim.engine.Engine, "schedule", None),
        (wfdsim.medium.Medium, "send_with_ack", None)]
    originals = [getattr(owner, attr) for owner, attr, _span in patched]
    untraced = run_three_hosts()

    tracer = tracing.Tracer()
    tracer.install(wfdsim)
    try:
        traced = run_three_hosts()
    finally:
        tracer.uninstall()

    assert traced == untraced  # tracing observes, it does not steer
    folded = tracer.fold()
    for _owner, _attr, span in wrapped:
        assert folded[span]["count"] > 0, span
    layers = tracing.layer_metrics(folded, tracer.outcomes)
    assert layers["peer.on_frame_calls"] > layers["traffic.on_data_calls"] > 0
    assert [getattr(owner, attr) for owner, attr, _span in patched] == originals
