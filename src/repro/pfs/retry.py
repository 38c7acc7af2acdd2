"""Client-side retry/failover for the striped data path.

When fault injection (:mod:`repro.faults`) is active, chunk requests to
I/O nodes can fail with :class:`~repro.pfs.errors.TransientIOError`
subclasses: dropped in flight (:class:`IOTimeout`), node down
(:class:`IONodeUnavailable`), or rejected during array reconfiguration
(:class:`DegradedService`).  This module gives the PFS client the
standard distributed-systems answer:

* **capped exponential backoff with jitter** — delays grow by
  ``backoff_multiplier`` per attempt up to ``max_backoff_s``; jitter
  decorrelates the retry herds of 128 clients but draws from a *named
  deterministic stream*, so an identical seed + fault plan reproduces a
  byte-identical trace.  The realized delay sequence is monotone
  nondecreasing per chunk (a retry never waits less than its
  predecessor).
* **failover on outage** — while the serving node is down, blind backoff
  would just burn attempts; the re-issue instead races the next backoff
  expiry against the node's :meth:`~repro.machine.ionode.IONode.restart_wait`
  event and fires on whichever comes first.
* **a finite budget** — past ``max_attempts`` the chunk fails the whole
  request with :class:`~repro.pfs.errors.RetryBudgetExceeded`, a typed
  *fatal* error.  Nothing hangs and nothing silently succeeds.

:func:`install_retry` sets ``fs.retry`` to a :class:`Retry`, whose
:meth:`Retry.run` is the one per-chunk attempt loop.  Every striped
issuer reads ``fs.retry`` once per request: the fan-outs send each chunk
through it (mesh hop, then submit), the write-behind flusher with direct
submits.  It stays ``None`` for an empty plan, so fault-free runs pay
one attribute check per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import Any, Callable, Iterator

from ..sim.core import Event, Timeout
from .errors import IONodeUnavailable, RetryBudgetExceeded, TransientIOError
from .striping import Chunk

__all__ = [
    "RetryPolicy",
    "backoff_delay",
    "backoff_delays",
    "backoff_schedule",
    "Retry",
    "install_retry",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget + backoff shape for transient I/O failures.

    The defaults give a cumulative worst-case wait of ~3 simulated
    seconds before a chunk is declared dead — long enough to ride out
    the sub-second outage windows fault plans typically inject, short
    enough that a permanent outage surfaces promptly as
    :class:`~repro.pfs.errors.RetryBudgetExceeded`.
    """

    #: Total issue attempts per chunk (first try included).
    max_attempts: int = 12
    #: Delay before the first re-issue.
    base_backoff_s: float = 0.005
    #: Growth factor per subsequent re-issue.
    backoff_multiplier: float = 2.0
    #: Ceiling on the un-jittered delay.
    max_backoff_s: float = 0.5
    #: Jitter amplitude: each delay is scaled by ``1 + jitter_frac * u``
    #: with ``u`` uniform in [0, 1) from a deterministic stream.
    jitter_frac: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff_s < 0:
            raise ValueError(f"base_backoff_s must be >= 0, got {self.base_backoff_s}")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.max_backoff_s < self.base_backoff_s:
            raise ValueError(
                f"max_backoff_s ({self.max_backoff_s}) must be >= "
                f"base_backoff_s ({self.base_backoff_s})"
            )
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError(f"jitter_frac must be in [0, 1], got {self.jitter_frac}")

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_backoff_s": self.base_backoff_s,
            "backoff_multiplier": self.backoff_multiplier,
            "max_backoff_s": self.max_backoff_s,
            "jitter_frac": self.jitter_frac,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        return cls(**data)


def backoff_delay(policy: RetryPolicy, attempt: int, prev_delay: float, rng) -> float:
    """Delay before re-issuing after failed attempt number ``attempt``.

    ``prev_delay`` is the delay used before ``attempt`` (0.0 when this is
    the first re-issue); the result never shrinks below it, so the
    realized per-chunk delay sequence is monotone nondecreasing, and it
    never exceeds ``max_backoff_s * (1 + jitter_frac)``.  ``rng`` needs
    only a ``random()`` method; one uniform draw is consumed per call.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    raw = min(
        policy.base_backoff_s * policy.backoff_multiplier ** (attempt - 1),
        policy.max_backoff_s,
    )
    jittered = raw * (1.0 + policy.jitter_frac * float(rng.random()))
    ceiling = policy.max_backoff_s * (1.0 + policy.jitter_frac)
    return min(max(prev_delay, jittered), ceiling)


def backoff_delays(policy: RetryPolicy, rng) -> Iterator[float]:
    """One chunk's realized re-issue delays, drawn lazily in order.

    Chains :func:`backoff_delay` through its own recurrence; each
    ``next`` is one re-issue and consumes one draw from ``rng`` at that
    moment, which is how :meth:`Retry.run` takes them.
    """
    prev = 0.0
    for attempt in count(1):
        prev = backoff_delay(policy, attempt, prev, rng)
        yield prev


def backoff_schedule(policy: RetryPolicy, n: int, rng) -> list[float]:
    """The first ``n`` realized re-issue delays for one chunk — the exact
    sequence :meth:`Retry.run` would wait, given the same stream."""
    return list(islice(backoff_delays(policy, rng), n))


@dataclass(frozen=True)
class Retry:
    """The retry policy every striped issuer consults, as ``fs.retry``:
    the plan's :class:`RetryPolicy`, the deterministic backoff stream and
    the recorder for RETRY trace rows.  :meth:`run` is the one per-chunk
    attempt loop the fan-outs and the write-behind flusher share."""

    fs: Any
    policy: RetryPolicy
    rng: Any
    recorder: Any = None

    def run(self, chunk: Chunk, send: Callable, node: int, file_id: int, parent: float,
            ok: Callable, fatal: Callable, what: str = "chunk") -> None:
        """Send ``chunk`` until it succeeds, fails fatally or spends the budget.

        ``send(chunk, finish)`` starts one attempt and hangs ``finish`` on
        its service event.  Success calls ``ok(event)``; a non-transient
        error, or a transient one on the last attempt (as
        :class:`RetryBudgetExceeded` naming ``what``), calls
        ``fatal(exc)``.  Any other transient error re-sends after a
        jittered backoff, or as soon as the node restarts if it is down;
        each re-send writes a RETRY row and a ``retry.backoff`` span
        carrying ``node`` and ``parent``.
        """
        env = self.fs.env
        max_attempts = self.policy.max_attempts
        delays = backoff_delays(self.policy, self.rng)
        ion = self.fs.machine.ionodes[chunk.ionode]

        def attempt(n: int) -> None:
            send(chunk, lambda ev: finish(ev, n))

        def finish(ev: Event, n: int) -> None:
            if ev._ok:
                ok(ev)
                return
            exc = ev._value
            if not isinstance(exc, TransientIOError):
                fatal(exc)
                return
            if n >= max_attempts:
                fatal(RetryBudgetExceeded(
                    f"{what} (ionode {chunk.ionode}, offset {chunk.disk_offset}, "
                    f"{chunk.nbytes} B) failed {n} attempts; last: {exc}"
                ))
                return
            delay = next(delays)
            failed_at = env.now
            fired = [False]

            def resend(_ev: Event) -> None:
                # Backoff expiry races the node restart; first wins, the
                # other finds the flag set and does nothing.
                if fired[0]:
                    return
                fired[0] = True
                telem = self.fs.telemetry
                if telem is not None:
                    telem.retries += 1
                if self.recorder is not None:
                    self.recorder.retry(
                        env.now, node, file_id, chunk.disk_offset, chunk.nbytes,
                        env.now - failed_at,
                    )
                spans = self.fs.spans
                if spans is not None:
                    spans.add(
                        "retry.backoff", node, failed_at, env.now,
                        parent, chunk.nbytes, float(n),
                    )
                attempt(n + 1)

            Timeout(env, delay).callbacks.append(resend)
            if isinstance(exc, IONodeUnavailable) and not ion.up:
                ion.restart_wait().callbacks.append(resend)

        attempt(1)


def install_retry(fs, domain):
    """Set ``fs.retry`` from the domain's ``policy``, ``backoff_rng`` and
    ``recorder`` (the fault injector); returns ``fs``."""
    fs.retry = Retry(fs, domain.policy, domain.backoff_rng, domain.recorder)
    return fs
