"""Property-based tests of the event kernel (hypothesis), run
against every registered engine — the batched engine must behave as
a perfect event kernel for generic (non-NoC) workloads too."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import SimModule


class Recorder(SimModule):
    def __init__(self, simulator, name="recorder"):
        super().__init__(simulator, name)
        self.deliveries = []

    def handle_message(self, message):
        self.deliveries.append(
            (self.now, message.kind, message.message_id)
        )


schedule_entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),  # time
        st.integers(min_value=0, max_value=3),    # priority
    ),
    min_size=1,
    max_size=60,
)


ENGINES = ["wheel", "heap", "batched"]


@pytest.mark.parametrize("engine", ENGINES)
class TestOrderingProperties:
    @given(schedule_entries)
    @settings(max_examples=60, deadline=None)
    def test_deliveries_sorted_by_time_then_priority(self, engine, entries):
        sim = Simulator(engine=engine)
        recorder = Recorder(sim)
        keys = []
        for order, (time, priority) in enumerate(entries):
            message = Message(kind=priority)
            sim.schedule(time, recorder, message, priority=priority)
            keys.append((time, priority, order))
        sim.run()
        delivered = [
            (t, k) for t, k, _ in recorder.deliveries
        ]
        assert delivered == [(t, p) for t, p, _ in sorted(keys)]

    @given(schedule_entries)
    @settings(max_examples=40, deadline=None)
    def test_fifo_among_equal_keys(self, engine, entries):
        sim = Simulator(engine=engine)
        recorder = Recorder(sim)
        ids_by_key = {}
        for time, priority in entries:
            message = Message(kind=priority)
            sim.schedule(time, recorder, message, priority=priority)
            ids_by_key.setdefault((time, priority), []).append(
                message.message_id
            )
        sim.run()
        seen_by_key = {}
        for time, kind, message_id in recorder.deliveries:
            seen_by_key.setdefault((time, kind), []).append(message_id)
        assert seen_by_key == ids_by_key

    @given(
        schedule_entries,
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_runs_equal_single_run(self, engine, entries, split):
        def run(split_at):
            sim = Simulator(engine=engine)
            recorder = Recorder(sim)
            for time, priority in entries:
                sim.schedule(
                    time, recorder, Message(kind=priority),
                    priority=priority,
                )
            if split_at is None:
                sim.run()
            else:
                sim.run(until=split_at)
                sim.run()
            return [(t, k) for t, k, _ in recorder.deliveries]

        assert run(None) == run(split)
