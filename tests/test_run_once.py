"""A Simulation runs once: a second run is refused before it schedules
anything, so it cannot restart the peers of the first."""

import pytest

from conftest import live_events
from wfdsim import Simulation, SimulationError, default_scenario, seconds


def _refuses_second_run(sim):
    sim.run(until=seconds(5))
    engine = sim.engine
    before = (engine.scheduled_count, engine.fired_count, live_events(engine))
    with pytest.raises(SimulationError, match="runs once"):
        sim.run(until=seconds(10))
    assert (engine.scheduled_count, engine.fired_count,
            live_events(engine)) == before


def test_second_run_of_autonomous_scenario_is_refused(autonomous_config):
    # without the guard this raised "past event" from a ping-tick
    _refuses_second_run(Simulation(autonomous_config, seed=15))


def test_second_run_of_standard_scenario_is_refused():
    # without the guard every peer restarted, and validate_history
    # reported GoOperating -> Scan
    _refuses_second_run(Simulation(default_scenario(3), seed=1))
