"""Unit tests for RetryPolicy and its composition with miners.

Sleeps go through a VirtualClock so the backoff schedule is asserted
exactly without the suite ever sleeping.
"""

import pytest

from repro.associations import apriori, eclat
from repro.core.exceptions import ValidationError
from repro.runtime import (
    Budget,
    BudgetExceeded,
    Checkpointer,
    ExecutionContext,
    FlakyFault,
    RetryPolicy,
    TransientFault,
    TriggerAfter,
    VirtualClock,
)


def _policy(clock, **kw):
    kw.setdefault("base_delay", 1.0)
    kw.setdefault("jitter", 0.0)
    return RetryPolicy(sleep=clock.advance, **kw)


class TestBackoffSchedule:
    def test_success_first_try_never_sleeps(self):
        clock = VirtualClock()
        assert _policy(clock).run(lambda: "ok") == "ok"
        assert clock() == 0.0

    def test_exponential_schedule(self):
        clock = VirtualClock()
        policy = _policy(clock, max_retries=3, factor=2.0)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 4:
                raise TransientFault("blip")
            return "ok"

        assert policy.run(flaky) == "ok"
        assert clock() == pytest.approx(1.0 + 2.0 + 4.0)
        assert [round(d) for _, d in policy.retries_] == [1, 2, 4]

    def test_max_delay_caps_backoff(self):
        clock = VirtualClock()
        policy = _policy(clock, max_retries=5, factor=10.0, max_delay=3.0)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 6:
                raise TransientFault("blip")
            return "ok"

        policy.run(flaky)
        assert max(d for _, d in policy.retries_) == pytest.approx(3.0)

    def test_jitter_is_seeded_and_deterministic(self):
        schedules = []
        for _ in range(2):
            clock = VirtualClock()
            policy = RetryPolicy(
                max_retries=3, base_delay=1.0, jitter=0.5,
                random_state=7, sleep=clock.advance,
            )
            calls = []

            def flaky():
                calls.append(1)
                if len(calls) < 4:
                    raise TransientFault("blip")

            policy.run(flaky)
            schedules.append([d for _, d in policy.retries_])
        assert schedules[0] == schedules[1]
        # Jitter only ever lengthens the delay, by at most the fraction.
        for base, actual in zip((1.0, 2.0, 4.0), schedules[0]):
            assert base <= actual <= base * 1.5

    def test_exhaustion_reraises_last_transient(self):
        clock = VirtualClock()
        policy = _policy(clock, max_retries=2)
        with pytest.raises(TransientFault, match="always"):
            policy.run(lambda: (_ for _ in ()).throw(TransientFault("always")))
        assert len(policy.retries_) == 2  # three calls, two retries

    def test_zero_retries_means_single_attempt(self):
        clock = VirtualClock()
        calls = []

        def flaky():
            calls.append(1)
            raise TransientFault("blip")

        with pytest.raises(TransientFault):
            _policy(clock, max_retries=0).run(flaky)
        assert len(calls) == 1
        assert clock() == 0.0

    def test_non_transient_error_propagates_immediately(self):
        clock = VirtualClock()
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            _policy(clock, max_retries=5).run(broken)
        assert len(calls) == 1

    def test_budget_exhaustion_is_never_retried(self):
        # Budget exhaustion is deterministic: retrying would just burn
        # the same budget again.
        clock = VirtualClock()
        calls = []

        def exhausted():
            calls.append(1)
            Budget(max_candidates=1).charge_candidates(2)

        with pytest.raises(BudgetExceeded):
            _policy(clock, max_retries=5).run(exhausted)
        assert len(calls) == 1

    def test_custom_retry_on(self):
        clock = VirtualClock()
        policy = _policy(clock, max_retries=1, retry_on=(KeyError,))
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise KeyError("missing")
            return "ok"

        assert policy.run(flaky) == "ok"

    def test_on_retry_callback(self):
        clock = VirtualClock()
        seen = []
        policy = RetryPolicy(
            max_retries=2, base_delay=1.0, jitter=0.0, sleep=clock.advance,
            on_retry=lambda attempt, exc, pause: seen.append(
                (attempt, type(exc).__name__, pause)
            ),
        )
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientFault("blip")

        policy.run(flaky)
        assert seen == [(0, "TransientFault", 1.0), (1, "TransientFault", 2.0)]

    def test_args_passed_through(self):
        clock = VirtualClock()
        assert _policy(clock).run(lambda a, b=0: a + b, 2, b=3) == 5

    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=-0.1)


class TestMinerComposition:
    """A flaky environment (transient faults at budget checkpoints) is
    survived by wrapping the mining call in a RetryPolicy."""

    def test_flaky_fault_then_success(self, small_db):
        expected = apriori(small_db, 0.3)
        budget = Budget(check_interval=1).install_fault(FlakyFault(2))
        clock = VirtualClock()
        policy = RetryPolicy(
            max_retries=3, base_delay=1.0, jitter=0.0, sleep=clock.advance
        )
        result = policy.run(
            lambda: apriori(small_db, 0.3, ctx=ExecutionContext(budget=budget))
        )
        assert result.supports == expected.supports
        assert len(policy.retries_) == 2
        assert clock() == pytest.approx(1.0 + 2.0)

    def test_flaky_fault_exhausts_retries(self, small_db):
        budget = Budget(check_interval=1).install_fault(FlakyFault(100))
        policy = RetryPolicy(
            max_retries=2, base_delay=0.0, jitter=0.0,
            sleep=VirtualClock().advance,
        )
        with pytest.raises(TransientFault):
            policy.run(lambda: apriori(
                small_db, 0.3, ctx=ExecutionContext(budget=budget)
            ))

    def test_retry_composes_with_checkpointing(self, small_db, tmp_path):
        # The retried attempt resumes from the checkpoint the failing
        # attempt flushed, and the final result is still exact.
        expected = eclat(small_db, 0.3)
        budget = Budget(check_interval=1).install_fault(FlakyFault(3))
        ckpt = Checkpointer(tmp_path, resume=True)
        policy = RetryPolicy(
            max_retries=5, base_delay=0.0, jitter=0.0,
            sleep=VirtualClock().advance,
        )
        result = policy.run(
            lambda: eclat(small_db, 0.3, ctx=ExecutionContext(
                budget=budget, checkpointer=ckpt
            ))
        )
        assert result.supports == expected.supports

    def test_injected_budget_fault_not_retried(self, small_db):
        budget = Budget(check_interval=1).install_fault(TriggerAfter(1))
        policy = RetryPolicy(
            max_retries=5, base_delay=0.0, sleep=VirtualClock().advance
        )
        with pytest.raises(BudgetExceeded):
            policy.run(lambda: apriori(
                small_db, 0.3, ctx=ExecutionContext(budget=budget)
            ))
        assert policy.retries_ == []
