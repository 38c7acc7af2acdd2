"""One completion primitive for striped chunk fan-outs.

Every striped request — the one client fan-out (``PFS._send``, which
also carries the PPFS server cache's hits and fills), an I/O node's
per-chunk fallback for a ``submit_batch`` cohort — ends the same way:
*n* per-chunk completions fold into one ``done`` event.  :class:`Join`
holds that pattern once.

A chunk reaches the join in one of three ways:

* **per-chunk** — the chunk has its own completion event and
  :meth:`Join.add` (or ``IONode.submit(..., join=join)`` on a queue that
  is not eager) hangs :meth:`Join.chunk_done` on it, a countdown; a
  server-cache fill hung on the event first runs before it;
* **folded** — an eager FIFO I/O node prices the chunk at arrival, knows
  its completion time already, and instead of arming a kernel event
  reserves the sequence number that event would have taken and hands
  the join the ``(end, seq)`` key (``IONode._eager_submit``);
* **retried** — with ``fs.retry`` set, the attempt loop
  (:meth:`repro.pfs.retry.Retry.run`) counts the chunk down once it has
  settled: :meth:`Join.chunk_done` on success, :meth:`Join.chunk_failed`
  on a fatal error.  The first fatal error fails ``done``.

Once every chunk is priced the join arms a single kernel event at the
largest folded key.  It replays what that chunk's completion did: a
zero-delay chunk-done hop, which lands every folded chunk at once and,
if nothing else is outstanding, succeeds ``done`` — the second hop.

Why this is exact: the kernel fires in ``(time, seq)`` order and seq
grows in processing order.  A reserved seq keeps every other entry's
relative order.  A folded chunk that is not the largest only counted the
join down and scheduled nothing else, so dropping its completion and its
hop reorders nothing, and the largest ``(end, seq)`` is the chunk whose
countdown ran last.  Per-chunk and folded chunks mix freely: the fold
lands after every folded chunk and counts them all at once, so the
countdown reaches zero on the same hop as before.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from ..sim.core import Environment, Event

__all__ = ["Join"]


class Join:
    """``n`` chunk completions folded into one :attr:`done` event.

    ``done`` fires (value ``None``) on the hop after the last chunk
    completes, or fails with the first error passed to
    :meth:`chunk_failed`.  Per-chunk completions are counted whether
    they succeed or fail, as the retry-free fan-out always has.
    """

    __slots__ = (
        "env", "done", "_remaining", "_unpriced", "_folded", "_top", "_armed", "_failure",
    )

    def __init__(self, env: Environment, n: int):
        self.env = env
        self.done = Event(env)
        self._remaining = n  # chunks whose completion has not landed
        self._unpriced = n  # chunks not yet handed to an I/O node
        #: Folded chunks' I/O-node entries ``[end, seq, None, join, node]``.
        self._folded: list = []
        self._top: Optional[list] = None  # the folded entry with max (end, seq)
        self._armed: Optional[Event] = None  # kernel event replaying _top
        self._failure: Optional[BaseException] = None  # first fatal chunk error

    # -- per-chunk completions ------------------------------------------------
    def chunk_done(self, _event: Optional[Event]) -> None:
        """Completion callback for a chunk with its own event."""
        self._remaining -= 1
        if not self._remaining:
            self._complete()

    def chunk_failed(self, exc: BaseException) -> None:
        """Count a chunk that failed fatally; the first such error is
        what ``done`` fails with once every chunk has settled."""
        if self._failure is None:
            self._failure = exc
        self.chunk_done(None)

    def _complete(self) -> None:
        if self._failure is None:
            self.done.succeed()
        else:
            self.done.fail(self._failure)

    def add(self, event: Event) -> None:
        """Count a chunk whose completion is ``event``: :meth:`chunk_done`
        runs when it fires, after any callback already hung on it."""
        event.callbacks.append(self.chunk_done)
        self._unpriced -= 1
        if not self._unpriced and self._folded:
            self._arm()

    # -- folded completions (eager FIFO I/O nodes) ----------------------------
    def fold(self, entry: list) -> None:
        """Take over the completion of a priced chunk whose I/O-node entry
        ``[end, seq, None, self, node]`` carries a reserved seq."""
        self._folded.append(entry)
        top = self._top
        # Seqs grow with pricing order, so an equal end with the later
        # reservation is the larger key.
        if top is None or entry[0] >= top[0]:
            self._top = entry
        self._unpriced -= 1
        if not self._unpriced:
            self._arm()

    def _arm(self) -> None:
        top = self._top
        self._armed = self.env.schedule_reserved(top[0], top[1], self._replay)

    def _replay(self, _event: Event) -> None:
        # The top chunk's completion: its chunk-done hop comes next.
        self._armed = None
        self.env.defer(self._land)

    def _land(self, _event: Event) -> None:
        self._remaining -= len(self._folded)
        self._folded = []
        self._top = None
        if not self._remaining:
            self._complete()

    def unfold(self) -> None:
        """Give every folded chunk its own completion back.

        Called when an I/O node holding one of them leaves eager mode
        (fault transitions).  Chunks whose ``(end, seq)`` the kernel has
        already passed count down now: their hop could only count, and
        the largest key is still ahead.  The others get a ``done`` event
        and a kernel event at their reserved key — the top one takes over
        the event already armed for the fold — so each completes through
        its I/O node exactly as if it had never been folded.  Chunks
        priced later may fold again.
        """
        folded = self._folded
        if not folded or (not self._unpriced and self._armed is None):
            return  # nothing folded, or the fold has already completed
        env = self.env
        now, cur = env.now, env._cur_seq
        top, armed = self._top, self._armed
        self._folded, self._top, self._armed = [], None, None
        for entry in folded:
            end = entry[0]
            if end < now or (end == now and entry[1] <= cur):
                self._remaining -= 1
                continue
            done = Event(env)
            done.callbacks.append(self.chunk_done)
            entry[2] = done
            entry[3] = None
            # The chunk's done value (its service time) is never read by
            # the join, so the re-armed completion passes 0.0.
            fire = partial(entry[4]._eager_done, entry, 0.0)
            if entry is top and armed is not None:
                armed.callbacks[:] = [fire]
            else:
                env.schedule_reserved(end, entry[1], fire)
