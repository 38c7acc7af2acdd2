"""Trace replay as a first-class application.

The fifth "application" of the study is any application at all: an
ingested I/O trace (:mod:`repro.ingest` — Darshan/Recorder-style JSONL
or CSV records, or our own exported traces) replayed through the
simulator with the same machinery the built-in skeletons use.  That
makes external workloads composable with everything an app gets —
machine scales, PPFS policy presets, fault plans, telemetry, burst
buffers, campaign sweeps.  :func:`repro.core.replay.replay_trace` is a
thin wrapper over this application.

Semantics
---------
* Every node's events replay in their original order; offsets are
  restored with explicit positioning, so data lands where it did.
* ``think_time='preserve'`` reinserts the original gaps between a node's
  operations (compute stays compute); ``'none'`` issues back-to-back
  (measures pure I/O capability for this stream); ``'anchor'`` waits for
  each operation's original absolute start time (timed replay: start
  times — and hence the makespan — track the source trace even when the
  replay configuration re-prices individual calls).
* Async pairs (AsynchRead + I/O Wait) are matched per (node, file) in
  FIFO order, as NX semantics guarantee.
* Files are replayed in M_UNIX mode; coordinated-mode scheduling effects
  from the original run are already frozen into the event order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..pablo.capture import InstrumentedPFS
from ..pablo.events import Op
from ..pablo.trace import Trace
from ..pfs.filesystem import PFS
from .base import Application

__all__ = ["TraceReplayConfig", "TraceReplay", "THINK_TIMES"]

#: Accepted ``think_time`` values (see module docstring).
THINK_TIMES = ("preserve", "none", "anchor")


def node_streams(trace: Trace) -> dict[int, np.ndarray]:
    """Per-node event arrays in timestamp order."""
    ev = trace.events
    streams: dict[int, np.ndarray] = {}
    for node in np.unique(ev["node"]):
        sel = ev[ev["node"] == node]
        order = np.argsort(sel["timestamp"], kind="stable")
        streams[int(node)] = sel[order]
    return streams


def replay_node(
    fs: InstrumentedPFS,
    node: int,
    events: np.ndarray,
    think_time: str,
    path_of: Callable[[int], str],
    base: float = 0.0,
):
    """Generator process replaying one node's stream.

    ``path_of`` maps a file id to the path opened during replay.
    ``think_time`` is one of :data:`THINK_TIMES`.  ``base`` is the
    trace-global first timestamp — the instant anchored replay maps onto
    the current simulated time (it keeps inter-node alignment when a
    node starts late in the original).
    """
    env = fs.env
    preserve = think_time == "preserve"
    anchor = think_time == "anchor"
    epoch = env.now
    fds: dict[int, int] = {}  # file_id -> replay fd
    pending: dict[int, list] = {}  # file_id -> FIFO of aread handles
    prev_end: Optional[float] = None

    def fd_for(file_id: int):
        fd = fds.get(file_id)
        if fd is None:
            fd = yield from fs.open(node, path_of(file_id), file_id=file_id)
            fds[file_id] = fd
        return fd

    for row in events:
        op = Op(row["op"])
        file_id = int(row["file_id"])
        offset = int(row["offset"])
        nbytes = int(row["nbytes"])
        if preserve and prev_end is not None:
            gap = float(row["timestamp"]) - prev_end
            if gap > 0:
                yield env.timeout(gap)
        elif anchor:
            # Wait out the original absolute start time (first event of
            # the whole trace = replay epoch); a replay running late
            # issues immediately and re-anchors at the next opportunity.
            due = epoch + (float(row["timestamp"]) - base)
            if due > env.now:
                yield env.timeout(due - env.now)
        prev_end = float(row["timestamp"] + row["duration"])

        if op is Op.OPEN:
            yield from fd_for(file_id)
        elif op is Op.CLOSE:
            fd = fds.pop(file_id, None)
            if fd is not None:
                yield from fs.close(node, fd)
        elif op is Op.READ or op is Op.WRITE or op is Op.AREAD:
            fd = yield from fd_for(file_id)
            if fs.tell(node, fd) != offset:
                yield from fs.fs.seek(node, fd, offset)  # positioning, not traced
            if op is Op.READ:
                yield from fs.read(node, fd, nbytes)
            elif op is Op.WRITE:
                yield from fs.write(node, fd, nbytes)
            else:
                handle = yield from fs.aread(node, fd, nbytes)
                pending.setdefault(file_id, []).append(handle)
        elif op is Op.SEEK:
            fd = yield from fd_for(file_id)
            yield from fs.seek(node, fd, offset)
        elif op is Op.IOWAIT:
            queue = pending.get(file_id)
            if queue:
                yield from fs.iowait(node, queue.pop(0))
        elif op is Op.LSIZE:
            fd = yield from fd_for(file_id)
            yield from fs.lsize(node, fd)
        elif op is Op.FLUSH:
            fd = yield from fd_for(file_id)
            yield from fs.flush(node, fd)
    # Leave dangling fds open (mirrors programs that exit without close);
    # drain any unawaited async reads so the simulation terminates.
    for queue in pending.values():
        for handle in queue:
            yield from fs.iowait(node, handle)


def prepare_replay_files(
    fs: PFS,
    trace: Trace,
    path_of: Callable[[int], str],
) -> None:
    """Pre-create every file the trace touches at its maximum data
    extent, with its original file id, so replayed reads see data."""
    ev = trace.events
    for file_id in np.unique(ev["file_id"]):
        sel = ev[ev["file_id"] == file_id]
        data = sel[np.isin(sel["op"], [int(Op.READ), int(Op.AREAD), int(Op.WRITE)])]
        size = int((data["offset"] + data["nbytes"]).max()) if len(data) else 0
        fs.ensure(path_of(int(file_id)), file_id=int(file_id), size=size)


@dataclass(frozen=True)
class TraceReplayConfig:
    """What to replay and how.

    Parameters
    ----------
    source:
        Path to the trace file — JSONL/CSV schema records or native SDDF
        (dispatched by extension, see :func:`repro.ingest.load_trace`).
    think_time:
        'preserve' (original inter-op gaps), 'none' (back-to-back) or
        'anchor' (original absolute start times — timed replay).
    trace:
        A pre-loaded :class:`Trace`; takes precedence over ``source``
        (spares in-process callers a round-trip through a file).
    """

    source: str = ""
    think_time: str = "preserve"
    trace: Optional[Trace] = None

    def __post_init__(self) -> None:
        if self.think_time not in THINK_TIMES:
            raise ValueError(
                f"think_time must be one of {'/'.join(THINK_TIMES)}, "
                f"got {self.think_time!r}"
            )

    def load(self) -> Trace:
        """The trace to replay (loads ``source`` unless preloaded)."""
        if self.trace is not None:
            return self.trace
        if not self.source:
            raise ValueError(
                "trace replay needs an input: pass source=<path> "
                "(repro run trace --input FILE) or a pre-loaded trace"
            )
        from ..ingest import load_trace

        return load_trace(self.source)


@dataclass
class TraceReplay(Application):
    """Replays an ingested request stream as an SPMD application."""

    config: TraceReplayConfig = field(default_factory=lambda: TraceReplayConfig(trace=Trace()))

    def __post_init__(self) -> None:
        self.name = "trace"
        self.original = self.config.load()
        nodes = max(self.original.nodes, 1)
        if len(self.original.events):
            nodes = max(nodes, int(self.original.events["node"].max()) + 1)
        if nodes > self.machine.config.compute_nodes:
            raise ValueError(
                f"trace uses {nodes} nodes, machine has "
                f"{self.machine.config.compute_nodes} "
                "(pick a larger --scale)"
            )
        # Files pre-exist at full extent so reads see data.
        prepare_replay_files(self.fs.fs, self.original, self._path_of)
        self.fs.trace.nodes = max(self.fs.trace.nodes, nodes)
        ev = self.original.events
        self._base = float(ev["timestamp"].min()) if len(ev) else 0.0

    def _path_of(self, file_id: int) -> str:
        """The original path when the trace names the file (ingested
        schema records always do), else the /replay namespace."""
        return self.original.file_names.get(file_id, f"/replay/file{file_id}")

    def node_processes(self):
        for node, events in node_streams(self.original).items():
            yield node, replay_node(
                self.fs,
                node,
                events,
                self.config.think_time,
                path_of=self._path_of,
                base=self._base,
            )
