"""Unit tests for the Budget / CancellationToken / fault primitives."""

import pytest

from repro.core.exceptions import ReproError, ValidationError
from repro.runtime import (
    Budget,
    BudgetExceeded,
    CancellationToken,
    IterationBudgetExceeded,
    OperationCancelled,
    SlowPass,
    SpaceBudgetExceeded,
    TimeBudgetExceeded,
    TriggerAfter,
    VirtualClock,
)
from repro.runtime.faults import InjectedFault


class TestCounterCaps:
    def test_exactly_limit_charges_allowed(self):
        budget = Budget(max_candidates=3)
        for _ in range(3):
            budget.charge_candidates()
        with pytest.raises(SpaceBudgetExceeded):
            budget.charge_candidates()

    def test_bulk_charge_crossing_the_cap(self):
        budget = Budget(max_candidates=10)
        with pytest.raises(SpaceBudgetExceeded) as excinfo:
            budget.charge_candidates(11)
        assert excinfo.value.limit == 10
        assert excinfo.value.used == 11
        assert excinfo.value.resource == "candidates"

    def test_resource_to_exception_mapping(self):
        with pytest.raises(SpaceBudgetExceeded):
            Budget(max_candidates=1).charge_candidates(2)
        with pytest.raises(SpaceBudgetExceeded):
            Budget(max_nodes=1).charge_nodes(2)
        with pytest.raises(IterationBudgetExceeded):
            Budget(max_expansions=1).charge_expansions(2)

    def test_counters_are_independent(self):
        budget = Budget(max_nodes=1)
        budget.charge_candidates(100)
        budget.charge_expansions(100)
        budget.charge_nodes()  # exactly at the cap
        with pytest.raises(SpaceBudgetExceeded):
            budget.charge_nodes()

    def test_unlimited_budget_never_raises(self):
        budget = Budget()
        for _ in range(1000):
            budget.charge_candidates()
            budget.charge_nodes()
            budget.charge_expansions()
            budget.check()

    def test_exceptions_are_repro_errors(self):
        for cls in (TimeBudgetExceeded, SpaceBudgetExceeded,
                    IterationBudgetExceeded):
            assert issubclass(cls, BudgetExceeded)
            assert issubclass(cls, ReproError)
            assert issubclass(cls, RuntimeError)

    def test_validation(self):
        with pytest.raises(ValidationError):
            Budget(max_candidates=0)
        with pytest.raises(ValidationError):
            Budget(time_limit=-1.0)
        with pytest.raises(ValidationError):
            Budget(check_interval=0)


class TestDeadline:
    def test_virtual_clock_deadline(self):
        clock = VirtualClock()
        budget = Budget(time_limit=1.0, clock=clock)
        budget.check()  # starts the clock at t=0
        clock.advance(0.5)
        budget.check()  # within the limit
        clock.advance(0.6)
        with pytest.raises(TimeBudgetExceeded) as excinfo:
            budget.check(phase="scan")
        assert excinfo.value.resource == "time"
        assert "scan" in str(excinfo.value)

    def test_clock_starts_lazily(self):
        clock = VirtualClock()
        clock.advance(100.0)  # time passing before the run starts
        budget = Budget(time_limit=1.0, clock=clock)
        assert budget.elapsed() == 0.0
        budget.check()  # stamps t=100 as the start; no raise
        clock.advance(0.5)
        assert budget.remaining_time() == pytest.approx(0.5)

    def test_periodic_check_via_charges(self):
        clock = VirtualClock()
        budget = Budget(time_limit=1.0, clock=clock, check_interval=4)
        budget.check()
        clock.advance(2.0)  # already past the deadline
        budget.charge_candidates()  # charges 1..3 skip the full check
        budget.charge_candidates()
        with pytest.raises(TimeBudgetExceeded):
            for _ in range(10):
                budget.charge_candidates()


class TestCancellation:
    def test_cancel_fires_at_checkpoint(self):
        token = CancellationToken()
        budget = Budget(cancel_token=token)
        budget.check()
        token.cancel("user hit ctrl-c")
        with pytest.raises(OperationCancelled) as excinfo:
            budget.check()
        assert excinfo.value.reason == "user hit ctrl-c"

    def test_cancellation_is_not_budget_exhaustion(self):
        # Degradation layers catch BudgetExceeded; cancellation must
        # never be swallowed by them.
        assert not issubclass(OperationCancelled, BudgetExceeded)
        assert issubclass(OperationCancelled, ReproError)

    def test_cancel_is_idempotent_first_reason_wins(self):
        token = CancellationToken()
        token.cancel("first")
        token.cancel("second")
        assert token.reason == "first"
        with pytest.raises(OperationCancelled):
            token.raise_if_cancelled()


class TestFaults:
    def test_trigger_after_fires_on_nth_check(self):
        budget = Budget().install_fault(TriggerAfter(3))
        budget.check()
        budget.check()
        with pytest.raises(InjectedFault):
            budget.check()

    def test_injected_fault_is_budget_exceeded(self):
        assert issubclass(InjectedFault, IterationBudgetExceeded)

    def test_trigger_after_fires_once(self):
        fault = TriggerAfter(1)
        budget = Budget().install_fault(fault)
        with pytest.raises(InjectedFault):
            budget.check()
        assert fault.fired
        budget.check()  # second check passes: the fault stays spent

    def test_custom_exception_factory(self):
        budget = Budget().install_fault(
            TriggerAfter(1, exc_factory=lambda: OperationCancelled("boom"))
        )
        with pytest.raises(OperationCancelled):
            budget.check()

    def test_slow_pass_drives_deadline(self):
        clock = VirtualClock()
        budget = Budget(time_limit=1.0, clock=clock).install_fault(
            SlowPass(clock, delay=0.4)
        )
        budget.check()  # t=0.4
        budget.check()  # t=0.8
        with pytest.raises(TimeBudgetExceeded):
            budget.check()  # t=1.2 > 1.0
