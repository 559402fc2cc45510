"""Event queue ordering, cancellation, clock advancement and the RNG."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import live_events, run_standard
from wfdsim.engine import Engine, Rng, SimulationError, substream
from wfdsim.simtime import SECOND


def test_schedule_at_current_time_fires():
    engine = Engine()
    fired = []
    engine.schedule(0, lambda: fired.append("now"))
    assert engine.run_until(0) == 1
    assert fired == ["now"]


def test_equal_times_fire_in_insertion_order():
    engine = Engine()
    fired = []
    engine.schedule(SECOND, lambda: fired.append("a"))
    engine.schedule(SECOND, lambda: fired.append("b"))
    engine.schedule(SECOND // 2, lambda: fired.append("early"))
    engine.run_until(2 * SECOND)
    assert fired == ["early", "a", "b"]


def test_same_time_entries_with_cancels_and_nested_schedules():
    engine = Engine()
    fired = []
    handles = {}

    def action(name):
        return lambda: fired.append((name, engine.fired_count))

    def spawn():
        fired.append(("spawn", engine.fired_count))
        handles["n1"] = engine.schedule(SECOND, action("n1"))
        handles["n2"] = engine.schedule(engine.now, action("n2"))
        handles["n3"] = engine.schedule(SECOND, action("n3"))
        engine.cancel(handles["n2"])
        engine.cancel(handles["c2"])  # queued earlier, not yet fired

    for name in ("a", "c1", "spawn", "c2", "b"):
        handles[name] = engine.schedule(
            SECOND, spawn if name == "spawn" else action(name))
    engine.schedule(SECOND // 2, action("early"))
    engine.cancel(handles["c1"])
    assert engine.run_until(SECOND) == 6
    assert [name for name, _id in fired] == \
        ["early", "a", "spawn", "b", "n1", "n3"]
    assert [event_id for _name, event_id in fired] == [1, 2, 3, 4, 5, 6]
    assert (engine.scheduled_count, engine.fired_count,
            engine.cancelled_count) == (9, 6, 3)
    assert live_events(engine) == 0
    # c1, c2 and n2 are missing from `fired` above; every handle, fired or
    # cancelled, is spent, so none cancels again
    assert [engine.cancel(handle) for handle in handles.values()] == [False] * 8
    assert engine.cancelled_count == 3


def test_every_event_goes_through_schedule(monkeypatch):
    # wrappers that patch Engine.schedule on the class (timing, tracing)
    # must see every event, and can group actions by the tag prefix before
    # ":"; the benchmark's tracer passes all five arguments positionally
    seen = []
    engines = set()
    schedule = Engine.schedule

    def spy(engine, fire_time, action, tag="", target=""):
        seen.append((fire_time, tag, target))
        engines.add(engine)
        return schedule(engine, fire_time, action, tag, target)

    monkeypatch.setattr(Engine, "schedule", spy)
    engine = Engine()
    engine.run_until(SECOND)
    handle = engine.schedule(engine.now + 5, lambda: None, "deliver", "a")
    assert seen == [(SECOND + 5, "deliver", "a")]
    assert engine.run_until(2 * SECOND) == 1
    assert engine.cancel(handle) is False  # it fired

    seen.clear()
    engines.clear()
    run_standard(hosts=3, seed=1, until=12)
    (engine,) = engines
    assert len(seen) == engine.scheduled_count
    prefixes = {tag.split(":", 1)[0] for _time, tag, _target in seen}
    assert {"deliver", "ack", "ack-timeout"} <= prefixes


def test_scheduling_in_the_past_is_rejected():
    engine = Engine()
    engine.schedule(SECOND, lambda: None)
    engine.run_until(SECOND)
    with pytest.raises(SimulationError, match="past event"):
        engine.schedule(SECOND // 2, lambda: None)


def test_cancel_pending_event_prevents_firing():
    engine = Engine()
    fired = []
    handle = engine.schedule(SECOND, lambda: fired.append("x"))
    assert engine.cancel(handle) is True
    engine.run_until(2 * SECOND)
    assert fired == []


def test_cancel_is_idempotent():
    engine = Engine()
    handle = engine.schedule(SECOND, lambda: None)
    assert engine.cancel(handle) is True
    assert engine.cancel(handle) is False


def test_cancel_after_firing_returns_false():
    engine = Engine()
    handle = engine.schedule(SECOND, lambda: None)
    engine.run_until(SECOND)
    assert engine.cancel(handle) is False


def test_run_until_empty_queue_advances_clock():
    engine = Engine()
    assert engine.run_until(10 * SECOND) == 0
    assert engine.now == 10 * SECOND


def test_run_until_fires_only_due_events():
    engine = Engine()
    fired = []
    for t in (1, 2, 3):
        engine.schedule(t * SECOND, lambda t=t: fired.append(t))
    assert engine.run_until(2 * SECOND) == 2
    assert fired == [1, 2]
    assert engine.now == 2 * SECOND
    assert engine.run_until(3 * SECOND) == 1


def test_event_ids_are_dense_and_in_firing_order():
    engine = Engine()
    ids = []
    engine.schedule(2 * SECOND, lambda: ids.append(engine.fired_count))
    engine.schedule(SECOND, lambda: ids.append(engine.fired_count))
    engine.run_until(3 * SECOND)
    assert ids == [1, 2]


def test_events_scheduled_during_run_fire_within_horizon():
    engine = Engine()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            engine.schedule(engine.now + SECOND // 10, lambda: chain(n + 1))

    engine.schedule(0, lambda: chain(0))
    engine.run_until(SECOND)
    assert fired == [0, 1, 2, 3]


def test_conservation_of_scheduled_events():
    engine = Engine()
    handles = [engine.schedule(i * SECOND, lambda: None) for i in range(10)]
    for handle in handles[7:]:
        engine.cancel(handle)
    engine.run_until(20 * SECOND)
    assert engine.scheduled_count == 10
    assert engine.fired_count + engine.cancelled_count == 10
    assert live_events(engine) == 0


def test_request_stop_halts_loop():
    engine = Engine()
    fired = []
    engine.schedule(SECOND, lambda: (fired.append(1), engine.request_stop()))
    engine.schedule(2 * SECOND, lambda: fired.append(2))
    engine.run_until(10 * SECOND)
    assert fired == [1]
    assert live_events(engine) == 1


class ReferenceQueue:
    """The engine's contract restated as a list kept sorted by (time,
    insertion index): what is due fires in that order, and an entry is
    pending until it fires or is cancelled."""

    def __init__(self):
        self.now = self.scheduled_count = self.fired_count = 0
        self.cancelled_count = 0
        self.pending = []  # [time, index, action], sorted
        self.stop = False

    def schedule(self, time, action):
        entry = [time, self.scheduled_count, action]
        self.scheduled_count += 1
        self.pending.append(entry)
        self.pending.sort(key=lambda e: (e[0], e[1]))
        return entry

    def cancel(self, entry):
        if entry is None or not any(e is entry for e in self.pending):
            return False
        self.pending = [e for e in self.pending if e is not entry]
        self.cancelled_count += 1
        return True

    def request_stop(self):
        self.stop = True

    def run_until(self, stop):
        fired, self.stop = 0, False
        while self.pending and self.pending[0][0] <= stop:
            time, _index, action = self.pending.pop(0)
            self.now, self.fired_count, fired = time, self.fired_count + 1, fired + 1
            action()
            if self.stop:
                return fired
        self.now = stop
        return fired


def execute(queue, program, live):
    """Run *program* against *queue*; return everything it observed."""
    log, handles = [], []

    def do(step, running=None):
        kind = step[0]
        if kind == "schedule":
            _, at, inner = step
            label = len(handles)
            # a time before now becomes now: one more tie
            handles.append(queue.schedule(
                max(at, queue.now), lambda: fire(label, inner)))
        elif kind == "cancel":
            handle = handles[step[1] % len(handles)] \
                if handles and step[1] is not None else None
            log.append(("cancel", queue.cancel(handle)))
        elif kind == "cancel-self":
            log.append(("cancel-self", queue.cancel(handles[running])))
        elif kind == "stop":
            queue.request_stop()
        else:  # run
            fired = queue.run_until(max(step[1], queue.now))
            counts = (queue.scheduled_count, queue.fired_count,
                      queue.cancelled_count, live(queue))
            assert counts[1] + counts[2] + counts[3] == counts[0]
            log.append(("run", fired, queue.now, counts))

    def fire(label, inner):
        # the id an action sees is the fired count while it runs
        log.append(("fire", label, queue.fired_count, queue.now))
        for step in inner:
            do(step, label)

    for step in program:
        do(step)
    return log


TIMES = st.integers(0, 6)  # few instants, so many ties
CANCEL = st.tuples(st.just("cancel"), st.none() | st.integers(0, 40))


def program_steps(depth):
    """Steps at *depth*: 0 is outside any action, deeper ones run inside."""
    nested = st.just(()) if depth == 2 else \
        st.lists(program_steps(depth + 1), max_size=4).map(tuple)
    schedule = st.tuples(st.just("schedule"), TIMES, nested)
    if depth == 0:
        return st.one_of(schedule, CANCEL, st.tuples(st.just("run"), TIMES))
    return st.one_of(schedule, CANCEL, st.just(("cancel-self",)),
                     st.just(("stop",)))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(program=st.lists(program_steps(0), max_size=25))
def test_engine_matches_the_reference_queue(program):
    # a final long run drains whatever the program left pending
    program = program + [("run", 100)]
    assert execute(Engine(), program, live_events) == \
        execute(ReferenceQueue(), program, lambda ref: len(ref.pending))


class TestRng:
    def test_same_seed_same_sequence(self):
        a, b = Rng(1234), Rng(1234)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_different_seeds_differ(self):
        a, b = Rng(1), Rng(2)
        assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]

    def test_matches_reference_algorithm(self):
        # independent restatement of the documented generator: splitmix64
        # seed scramble, then xorshift64* with shifts (12, 25, 27)
        mask = (1 << 64) - 1

        def reference(seed, n):
            x = (seed + 0x9E3779B97F4A7C15) & mask
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
            state = (x ^ (x >> 31)) or 0x9E3779B97F4A7C15
            out = []
            for _ in range(n):
                state ^= state >> 12
                state = (state ^ (state << 25)) & mask
                state ^= state >> 27
                out.append((state * 0x2545F4914F6CDD1D) & mask)
            return out

        for seed in (0, 1, 42, 2**63):
            rng = Rng(seed)
            assert [rng.next_u64() for _ in range(10)] == reference(seed, 10)

    @pytest.mark.parametrize("k", [0, 1, 6, 40])
    def test_survivors_draws_like_next_u64_per_item(self, k):
        # the reference keeps an item iff its own next_u64() draw passes
        items = [f"r{i}" for i in range(k)]
        for lost_below in (0, 1, 1 << 52, (1 << 53) - 1, 1 << 53):
            fast, slow = Rng(2024), Rng(2024)
            kept = fast.survivors(items, lost_below)
            assert kept == [item for item in items
                            if slow.next_u64() >> 11 >= lost_below]
            assert fast._state == slow._state

    def test_survivors_keeps_a_draw_equal_to_the_threshold(self):
        # a draw whose top 53 bits equal lost_below survives; one above
        # the draw's bits loses it
        top = Rng(77).next_u64() >> 11
        assert Rng(77).survivors(["a"], top) == ["a"]
        assert Rng(77).survivors(["a"], top + 1) == []

    def test_survivors_of_nothing_draws_nothing(self):
        rng = Rng(5)
        before = rng._state
        assert rng.survivors([], 1 << 52) == []
        assert rng._state == before

    def test_random_lies_in_unit_interval(self):
        rng = Rng(7)
        values = [rng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_choice_is_uniform_ish(self):
        rng = Rng(11)
        counts = {0: 0, 1: 0, 2: 0}
        for _ in range(3000):
            counts[rng.choice((0, 1, 2))] += 1
        assert all(count > 800 for count in counts.values())

    def test_substream_derivation_is_seed_xor_index(self):
        assert substream(0b1100, 0b1010).seed == 0b0110
        direct = Rng(0b1100 ^ 0b1010)
        derived = substream(0b1100, 0b1010)
        assert [derived.next_u64() for _ in range(5)] == \
            [direct.next_u64() for _ in range(5)]
