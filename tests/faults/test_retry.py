"""RetryPolicy semantics: what retries, what propagates, how it backs off."""

import pytest

from repro.errors import (
    PermanentFault,
    RetryExhausted,
    TransientFault,
    VerificationFailure,
)
from repro.faults import NO_RETRY, RetryPolicy


class Flaky:
    """Callable failing ``failures`` times before returning ``value``."""

    def __init__(self, failures, error=None, value="ok"):
        self.remaining = failures
        self.error = error or TransientFault("flaky")
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.error
        return self.value


def test_success_first_try():
    fn = Flaky(failures=0)
    assert RetryPolicy().call(fn) == "ok"
    assert fn.calls == 1


def test_transient_fault_retried_to_success():
    fn = Flaky(failures=2)
    assert RetryPolicy(max_attempts=3).call(fn) == "ok"
    assert fn.calls == 3


def test_exhaustion_raises_typed_error_with_cause():
    fn = Flaky(failures=10)
    with pytest.raises(RetryExhausted) as excinfo:
        RetryPolicy(max_attempts=3).call(fn)
    assert fn.calls == 3
    assert excinfo.value.attempts == 3
    assert isinstance(excinfo.value.last_error, TransientFault)
    assert isinstance(excinfo.value.__cause__, TransientFault)


def test_non_retryable_error_propagates_immediately():
    fn = Flaky(failures=5, error=VerificationFailure("alarm"))
    with pytest.raises(VerificationFailure):
        RetryPolicy(max_attempts=5).call(fn)
    assert fn.calls == 1  # an integrity alarm must never be retried


def test_permanent_fault_never_retried_even_if_type_listed():
    # PermanentFault subclasses FaultInjected; even a policy listing the
    # base class must honour the instance's retryable=False attribute.
    fn = Flaky(failures=5, error=PermanentFault("dead"))
    policy = RetryPolicy(max_attempts=5, retryable=(TransientFault, PermanentFault))
    with pytest.raises(PermanentFault):
        policy.call(fn)
    assert fn.calls == 1


def test_no_retry_policy_runs_exactly_once():
    fn = Flaky(failures=1)
    with pytest.raises(TransientFault):
        NO_RETRY.call(fn)
    assert fn.calls == 1


def test_on_retry_callback_counts_retries():
    fn = Flaky(failures=2)
    seen = []
    RetryPolicy(max_attempts=3).call(
        fn, on_retry=lambda attempt, err: seen.append((attempt, type(err)))
    )
    assert seen == [(1, TransientFault), (2, TransientFault)]


def test_exponential_backoff_schedule():
    policy = RetryPolicy(
        max_attempts=5, base_delay=0.01, multiplier=2.0, max_delay=0.03
    )
    # attempt 1 is the first try: no delay; then 0.01, 0.02, capped 0.03
    assert policy.delay_before_attempt(1) == 0.0
    assert policy.delay_before_attempt(2) == pytest.approx(0.01)
    assert policy.delay_before_attempt(3) == pytest.approx(0.02)
    assert policy.delay_before_attempt(4) == pytest.approx(0.03)
    assert policy.delay_before_attempt(5) == pytest.approx(0.03)


def test_sleep_injected_not_wallclock():
    sleeps = []
    fn = Flaky(failures=3)
    RetryPolicy(max_attempts=4, base_delay=0.5, max_delay=10.0).call(
        fn, sleep=sleeps.append
    )
    assert sleeps == [pytest.approx(0.5), pytest.approx(1.0), pytest.approx(2.0)]


def test_timeout_budget_exhausts_before_attempts():
    clock = {"now": 0.0}

    def fake_clock():
        return clock["now"]

    def fake_sleep(seconds):
        clock["now"] += seconds

    fn = Flaky(failures=100)
    policy = RetryPolicy(
        max_attempts=100, base_delay=1.0, multiplier=1.0, max_delay=1.0, timeout=2.5
    )
    with pytest.raises(RetryExhausted) as excinfo:
        policy.call(fn, sleep=fake_sleep, clock=fake_clock)
    # budget 2.5s at 1s per retry: try, sleep(1), try, sleep(1), try, stop
    assert excinfo.value.attempts == 3
    assert "budget" in str(excinfo.value)


def test_no_timeout_reads_no_clock():
    """Without a time budget there is nothing to measure: the client's
    and the portal's policies run every query through ``call``."""

    def no_clock():
        raise AssertionError("clock read without a timeout")

    fn = Flaky(failures=2)
    sleeps = []
    policy = RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=10.0)
    assert policy.call(fn, sleep=sleeps.append, clock=no_clock) == "ok"
    assert fn.calls == 3 and sleeps == [0.5, 1.0]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_attempts": 0},
        {"base_delay": -1.0},
        {"max_delay": -0.1},
        {"multiplier": 0.5},
        {"timeout": -1.0},
    ],
)
def test_invalid_policy_rejected(kwargs):
    with pytest.raises(ValueError):
        RetryPolicy(**kwargs)
