"""Tests for the discrete-event simulation oracle (``tests/oracles/des``)
and the corridor simulation front end."""

import pytest

from oracles.des.detectors import PhotoelectricBarrier
from oracles.des.engine import Simulator
from oracles.des.recorder import EnergyRecorder
from oracles.des.statemachine import NodeState, PowerStateMachine
from repro.corridor.layout import CorridorLayout
from repro.energy.scenario import OperatingMode, segment_energy
from repro.errors import ConfigurationError, SimulationError
from repro.simulation.corridor_sim import CorridorSimulation
from repro.traffic.timetable import Timetable, TrainRun, generate_timetable
from repro.traffic.trains import TrafficParams


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0]

    def test_run_until_clamps_clock(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        sim.run(until=50.0)
        assert sim.now == 50.0
        assert sim.pending == 1

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_callback_can_schedule(self):
        sim = Simulator()
        log = []

        def first():
            log.append(sim.now)
            sim.schedule(1.0, lambda: log.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [1.0, 2.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_past_schedule_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_process_generator(self):
        sim = Simulator()
        log = []

        def proc():
            log.append(sim.now)
            yield 2.0
            log.append(sim.now)
            yield 3.0
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [0.0, 2.0, 5.0]

    def test_processed_count(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed == 5

    def test_runaway_protection(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.001, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(until=1e9, max_events=1000)

    def test_processed_counts_fired_callbacks_only(self):
        # Lazily-cancelled events are discarded without firing and must not
        # count toward `processed`.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b")).cancel()
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "c"]
        assert sim.processed == 2

    def test_processed_excludes_same_time_mid_run_cancel(self):
        # A callback cancelling a later event scheduled at the same instant:
        # the victim is skipped at the queue head and never counted.
        sim = Simulator()
        fired = []
        victim = sim.schedule(1.0, lambda: fired.append("victim"))
        sim.schedule(0.5, victim.cancel)
        sim.schedule(1.0, lambda: fired.append("survivor"))
        sim.run()
        assert fired == ["survivor"]
        assert sim.processed == 2  # the canceller and the survivor

    def test_cancelled_event_beyond_until_stays_pending(self):
        # run(until=...) must not reach past its horizon, not even to discard
        # dead events — they are cleaned up lazily by a later run.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        late = sim.schedule(100.0, lambda: None)
        late.cancel()
        sim.run(until=50.0)
        assert sim.processed == 1
        assert sim.pending == 1
        sim.run()
        assert sim.processed == 1
        assert sim.pending == 0

    def test_step_skips_cancelled_without_counting(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        assert sim.step() is True
        assert sim.processed == 1
        assert sim.now == 2.0


class TestRecorder:
    def test_constant_power_integration(self):
        rec = EnergyRecorder()
        rec.register("x", 100.0, 0.0)
        rec.finalize(3600.0)
        assert rec.energy_wh("x") == pytest.approx(100.0)

    def test_power_change(self):
        rec = EnergyRecorder()
        rec.register("x", 100.0, 0.0)
        rec.update("x", 0.0, 1800.0)
        rec.finalize(3600.0)
        assert rec.energy_wh("x") == pytest.approx(50.0)

    def test_total_with_prefix(self):
        rec = EnergyRecorder()
        rec.register("a/1", 10.0, 0.0)
        rec.register("a/2", 10.0, 0.0)
        rec.register("b/1", 10.0, 0.0)
        rec.finalize(3600.0)
        assert rec.total_wh("a/") == pytest.approx(20.0)
        assert rec.total_wh() == pytest.approx(30.0)

    def test_double_registration_rejected(self):
        rec = EnergyRecorder()
        rec.register("x", 1.0, 0.0)
        with pytest.raises(SimulationError):
            rec.register("x", 1.0, 0.0)

    def test_unknown_unit_rejected(self):
        rec = EnergyRecorder()
        with pytest.raises(SimulationError):
            rec.update("ghost", 1.0, 0.0)

    def test_time_backwards_rejected(self):
        rec = EnergyRecorder()
        rec.register("x", 1.0, 100.0)
        with pytest.raises(SimulationError):
            rec.update("x", 2.0, 50.0)


class TestStateMachine:
    def _machine(self, sim, sleep_capable=True, transition=0.3):
        machine = PowerStateMachine(
            name="n", full_load_w=28.38, no_load_w=24.26, sleep_w=4.72,
            sleep_capable=sleep_capable, transition_s=transition)
        rec = EnergyRecorder()
        machine.attach(rec, sim)
        return machine, rec

    def test_starts_asleep(self):
        sim = Simulator()
        machine, _ = self._machine(sim)
        assert machine.state is NodeState.SLEEP
        assert machine.power_w == pytest.approx(4.72)

    def test_sleep_incapable_starts_idle(self):
        sim = Simulator()
        machine, _ = self._machine(sim, sleep_capable=False)
        assert machine.state is NodeState.NO_LOAD

    def test_wake_transition(self):
        sim = Simulator()
        machine, _ = self._machine(sim)
        machine.wake()
        assert machine.state is NodeState.WAKING
        sim.run()
        assert machine.state is NodeState.NO_LOAD

    def test_wake_into_full_load(self):
        sim = Simulator()
        machine, _ = self._machine(sim)
        machine.wake()
        machine.train_enter()
        sim.run()
        assert machine.state is NodeState.FULL_LOAD

    def test_exit_returns_to_sleep(self):
        sim = Simulator()
        machine, _ = self._machine(sim, transition=0.0)
        machine.wake()
        machine.train_enter()
        machine.train_exit()
        assert machine.state is NodeState.SLEEP

    def test_exit_sleep_incapable_returns_to_idle(self):
        sim = Simulator()
        machine, _ = self._machine(sim, sleep_capable=False)
        machine.train_enter()
        assert machine.state is NodeState.FULL_LOAD
        machine.train_exit()
        assert machine.state is NodeState.NO_LOAD

    def test_occupancy_counting(self):
        sim = Simulator()
        machine, _ = self._machine(sim, transition=0.0)
        machine.wake()
        machine.train_enter()
        machine.train_enter()
        machine.train_exit()
        assert machine.state is NodeState.FULL_LOAD  # second train still inside
        machine.train_exit()
        assert machine.state is NodeState.SLEEP

    def test_exit_without_enter_rejected(self):
        sim = Simulator()
        machine, _ = self._machine(sim)
        with pytest.raises(SimulationError):
            machine.train_exit()

    def test_enter_while_asleep_triggers_late_wake(self):
        sim = Simulator()
        machine, _ = self._machine(sim)
        machine.train_enter()  # no detector fired
        assert machine.state is NodeState.WAKING
        sim.run()
        assert machine.state is NodeState.FULL_LOAD

    def test_bad_power_ordering_rejected(self):
        with pytest.raises(SimulationError):
            PowerStateMachine(name="bad", full_load_w=1.0, no_load_w=2.0, sleep_w=3.0)

    def test_energy_accounting(self):
        sim = Simulator()
        machine, rec = self._machine(sim, transition=0.0)
        sim.schedule(3600.0, machine.wake)
        sim.schedule(3600.0, machine.train_enter)
        sim.schedule(7200.0, machine.train_exit)
        sim.run(until=10800.0)
        rec.finalize(10800.0)
        # 1 h sleep + 1 h full + 1 h sleep.
        assert rec.energy_wh("n") == pytest.approx(4.72 + 28.38 + 4.72, abs=0.01)


class TestBarrier:
    def test_events_ordering(self):
        barrier = PhotoelectricBarrier(500.0, 700.0, wake_lead_m=50.0)
        run = TrainRun(t0_s=0.0)
        wake, enter, exit_ = barrier.events_for(run, 2400.0)
        assert wake < enter < exit_

    def test_lead_time(self):
        barrier = PhotoelectricBarrier(500.0, 700.0, wake_lead_m=55.556)
        run = TrainRun(t0_s=0.0)
        wake, enter, _ = barrier.events_for(run, 2400.0)
        assert enter - wake == pytest.approx(1.0, abs=0.01)

    def test_reverse_direction(self):
        barrier = PhotoelectricBarrier(500.0, 700.0)
        run = TrainRun(t0_s=0.0, direction=-1)
        wake, enter, exit_ = barrier.events_for(run, 2400.0)
        assert wake < enter < exit_

    def test_rejects_inverted_section(self):
        with pytest.raises(ConfigurationError):
            PhotoelectricBarrier(700.0, 500.0)

    def test_lead_seconds(self):
        barrier = PhotoelectricBarrier(0.0, 100.0, wake_lead_m=100.0)
        assert barrier.lead_seconds(50.0) == pytest.approx(2.0)


class TestCorridorSimulation:
    def test_matches_analytic_sleep(self):
        layout = CorridorLayout.with_uniform_repeaters(2400.0, 8)
        analytic = segment_energy(layout, OperatingMode.SLEEP).w_per_km
        sim = CorridorSimulation(layout, mode=OperatingMode.SLEEP).run()
        assert sim.avg_w_per_km == pytest.approx(analytic, rel=0.02)

    def test_matches_analytic_continuous(self):
        layout = CorridorLayout.with_uniform_repeaters(1600.0, 3)
        analytic = segment_energy(layout, OperatingMode.CONTINUOUS).w_per_km
        sim = CorridorSimulation(layout, mode=OperatingMode.CONTINUOUS).run()
        assert sim.avg_w_per_km == pytest.approx(analytic, rel=0.02)

    def test_matches_analytic_conventional(self):
        layout = CorridorLayout.conventional()
        analytic = segment_energy(layout, OperatingMode.SLEEP).w_per_km
        sim = CorridorSimulation(layout).run()
        assert sim.avg_w_per_km == pytest.approx(analytic, rel=0.02)

    def test_solar_counts_only_hp(self):
        layout = CorridorLayout.with_uniform_repeaters(2650.0, 10)
        sim = CorridorSimulation(layout, mode=OperatingMode.SOLAR).run()
        assert sim.total_mains_wh == sim.hp_wh
        assert sim.service_wh > 0  # still consumed, just off-grid

    def test_slower_transition_costs_energy(self):
        layout = CorridorLayout.with_uniform_repeaters(2400.0, 8)
        fast = CorridorSimulation(layout, transition_s=0.0, wake_lead_m=0.0).run()
        slow = CorridorSimulation(layout, transition_s=5.0, wake_lead_m=300.0).run()
        assert slow.total_mains_wh > fast.total_mains_wh

    def test_empty_timetable_all_sleep(self):
        layout = CorridorLayout.with_uniform_repeaters(1250.0, 1)
        empty = generate_timetable(TrafficParams(trains_per_hour=0.0))
        sim = CorridorSimulation(layout, timetable=empty).run()
        # Everything asleep all day: mast 224 W + 2 nodes at 4.72 W.
        expected_wh = (224.0 + 2 * 4.72) * 24.0
        assert sim.total_mains_wh == pytest.approx(expected_wh, rel=1e-6)

    def test_stochastic_timetable_close_to_deterministic(self):
        layout = CorridorLayout.with_uniform_repeaters(2400.0, 8)
        det = CorridorSimulation(layout).run()
        sto = CorridorSimulation(
            layout,
            timetable=generate_timetable(stochastic=True, seed=3)).run()
        assert sto.avg_w_per_km == pytest.approx(det.avg_w_per_km, rel=0.05)

    def test_multi_day_scales_linearly(self):
        layout = CorridorLayout.with_uniform_repeaters(1250.0, 1)
        one = CorridorSimulation(layout).run()
        two = CorridorSimulation(
            layout, timetable=generate_timetable(days=2)).run()
        assert two.total_mains_wh == pytest.approx(2 * one.total_mains_wh, rel=0.001)
        assert two.avg_w_per_km == pytest.approx(one.avg_w_per_km, rel=0.001)
