"""Same-timestamp event ordering: the simulator's sequence tie-breaker.

Seeded Netem delay faults routinely land two deliveries on the exact
same timestamp; without a total order on (time, seq) the heap would
fall through to comparing unorderable handles and callbacks and chaos
replays would stop being byte-identical.
"""

from repro.chaos import Fault, FaultPlan, Match, run_scenario
from repro.packet import IPProto
from repro.sim.engine import Simulator


class TestEventOrdering:
    def test_same_time_events_pop_fifo(self):
        sim = Simulator()
        order = []
        for index in range(10):
            sim.schedule_at(1.0, order.append, index)
        sim.run()
        assert order == list(range(10))

    def test_ties_break_by_insertion_not_time_alone(self):
        sim = Simulator()
        order = []
        sim.schedule_at(2.0, order.append, "late-first-inserted")
        sim.schedule_at(1.0, order.append, "early")
        sim.schedule_at(2.0, order.append, "late-second-inserted")
        sim.run()
        assert order == ["early", "late-first-inserted", "late-second-inserted"]

    def test_event_scheduled_during_tie_runs_after_existing_ties(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            # Zero-delay reschedule at the same timestamp: must run
            # after the already-queued same-time event, not before.
            sim.schedule(0.0, order.append, "chained")

        sim.schedule_at(1.0, first)
        sim.schedule_at(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second", "chained"]

    def test_cancelled_tie_member_is_skipped(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, order.append, 0)
        middle = sim.schedule_at(1.0, order.append, 1)
        sim.schedule_at(1.0, order.append, 2)
        middle.cancel()
        sim.run()
        assert order == [0, 2]

    def test_ties_never_compare_payloads(self):
        # Handles and callbacks are unorderable, so every comparison
        # must be settled by the unique (time, seq) prefix — also when
        # cancel churn makes the engine rebuild its heap.
        sim = Simulator()
        order = []
        doomed = []
        for index in range(100):
            doomed.append(sim.schedule_at(1.0, order.append, "doomed"))
            sim.schedule_at(1.0, order.append, 2 * index)
            doomed.append(sim.schedule(1.0, order.append, "doomed"))
            sim.schedule_fast(1.0, order.append, 2 * index + 1)
            doomed.append(sim.schedule(1.0, order.append, "doomed"))
        for handle in doomed:  # 300 dead against 200 live: compacts
            handle.cancel()
        sim.run()
        assert order == list(range(200))

    def test_handle_carries_time_and_seq(self):
        sim = Simulator()
        first = sim.schedule_at(3.0, lambda: None)
        second = sim.schedule_at(3.0, lambda: None)
        assert (first.time, second.time) == (3.0, 3.0)
        assert second.seq > first.seq


class TestDelayFaultReplay:
    def test_identical_timestamp_delay_deliveries_replay_byte_identical(self):
        # Two delay faults with the *same* hold-back on the same link:
        # the re-injected packets collide on one timestamp, which is
        # exactly where an unstable tie-break would diverge.
        plan = FaultPlan()
        for nth in (2, 3):
            plan.link_faults.append(Fault(
                action="delay",
                link="ext_in",
                match=Match(protocol=IPProto.TCP, min_payload=1),
                nth=nth,
                count=2,
                delay=2e-3,
            ))
        first = run_scenario("tcp", 4242, plan=plan)
        second = run_scenario("tcp", 4242, plan=plan)
        assert first.digest == second.digest
        assert first.violations == second.violations
        assert first.faults_fired == second.faults_fired
