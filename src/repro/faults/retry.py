"""Typed retry/timeout/backoff policy for transient faults.

A :class:`RetryPolicy` retries only errors it was told are retryable —
by default :class:`~repro.errors.TransientFault` — and converts
exhaustion (attempts or time budget) into a typed
:class:`~repro.errors.RetryExhausted` carrying the last failure.
Anything else propagates untouched on the first occurrence: integrity
alarms, permanent faults and programming errors must never be papered
over by a retry loop.

Two deployments in this codebase:

* the **client** retries a failed submit with the *same*
  :class:`~repro.core.portal.AuthenticatedQuery` — the portal's pending
  set releases the reserved qid on failure, so the retry is accepted as
  the first successful execution of that qid, never as a replay;
* the **portal** retries transient engine faults within one submit, and
  the **verified memory** layer absorbs transient host-read errors
  in place (no delay, partition lock held) so most injected read faults
  never surface past the storage layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.errors import RetryExhausted, TransientFault

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry, what to retry, and how long to wait.

    ``base_delay`` seconds before the first retry, multiplied by
    ``multiplier`` per subsequent attempt and capped at ``max_delay``
    (exponential backoff). ``timeout`` bounds the *total* time budget:
    when sleeping for the next attempt would cross it, the policy gives
    up with :class:`RetryExhausted` instead. An exception instance whose
    ``retryable`` attribute is False is never retried even if its type
    is listed (a :class:`~repro.errors.PermanentFault` stays permanent).
    """

    max_attempts: int = 3
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 0.1
    timeout: float | None = None
    retryable: tuple = (TransientFault,)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.timeout is not None and self.timeout < 0:
            raise ValueError("timeout must be non-negative")

    def delay_before_attempt(self, attempt: int) -> float:
        """Backoff before attempt number ``attempt`` (2 = first retry)."""
        if attempt <= 1 or self.base_delay == 0.0:
            return 0.0
        return min(
            self.base_delay * self.multiplier ** (attempt - 2), self.max_delay
        )

    def call(
        self,
        fn: Callable[[], T],
        on_retry: Callable[[int, BaseException], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> T:
        """Run ``fn`` under this policy.

        ``on_retry(attempt, error)`` is invoked before each retry sleep
        (for counters); ``sleep``/``clock`` are injectable for tests.
        ``clock`` is read only when there is a ``timeout`` to keep.
        """
        start = clock() if self.timeout is not None else 0.0
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except self.retryable as error:
                if not getattr(error, "retryable", True) or self.max_attempts == 1:
                    raise  # the original, untouched: not retryable after all
                if attempt >= self.max_attempts:
                    raise RetryExhausted(
                        f"gave up after {attempt} attempts: {error}",
                        last_error=error,
                        attempts=attempt,
                    ) from error
                delay = self.delay_before_attempt(attempt + 1)
                if self.timeout is not None and clock() - start + delay > self.timeout:
                    raise RetryExhausted(
                        f"retry time budget {self.timeout}s exhausted after "
                        f"{attempt} attempts: {error}",
                        last_error=error,
                        attempts=attempt,
                    ) from error
                if on_retry is not None:
                    on_retry(attempt, error)
                if delay > 0:
                    sleep(delay)


#: run exactly once; failures propagate
NO_RETRY = RetryPolicy(max_attempts=1)

#: sensible defaults for the client (submit path) and the portal
CLIENT_RETRY = RetryPolicy(max_attempts=3)
PORTAL_RETRY = RetryPolicy(max_attempts=2)
