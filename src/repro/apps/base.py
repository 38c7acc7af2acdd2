"""Shared scaffolding for the application skeletons.

The skeletons (ESCAT, RENDER, HTF) are message-passing SPMD programs: a
process per compute node, coordinated with barriers and root-mediated
broadcasts, issuing I/O through an :class:`~repro.pablo.capture.InstrumentedPFS`.
This module provides that scaffolding plus the run harness that returns
the captured trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine.paragon import Paragon
from ..pablo.capture import InstrumentedPFS
from ..pablo.trace import Trace
from ..sim.core import Environment, Event
from ..sim.fluid import OP_BARRIER, OP_COMPUTE, OP_FLUSH, OP_READ, OP_SEEK, OP_WRITE
from ..sim.resources import Barrier
from ..spans.record import LEAF_BARRIER_WAIT, LEAF_MESH_BCAST

__all__ = ["Collective", "Application", "PhaseMark"]


class Collective:
    """Barrier + broadcast/gather coordination for an SPMD node group."""

    def __init__(self, machine: Paragon, nodes: list[int]):
        if not nodes:
            raise ValueError("node group must be non-empty")
        self.machine = machine
        self.env: Environment = machine.env
        self.nodes = list(nodes)
        self._barrier = Barrier(self.env, len(nodes))
        self._bcast_done: dict[int, Event] = {}
        self._node_gen: dict[int, int] = {}
        self._bar_base = -1.0

    def barrier(self):
        """Event: fires when every node in the group has arrived."""
        spans = getattr(self.machine, "spans", None)
        if spans is not None:
            # Hottest wait site (one call per node per barrier): stage
            # one record per arrival with the release time encoded as
            # ``-(generation id + 1)``.  A barrier releases at its last
            # arrival's timestamp, so finalize rewrites the end to the
            # generation's max start — no callback on the release event.
            base = self._bar_base
            if base < 0.0:
                base = self._bar_base = spans.alloc_barrier_base()
            spans.leaf_raw.append(
                (LEAF_BARRIER_WAIT, -1.0, self.env.now,
                 -1.0 - (base + self._barrier.generation), 0.0)
            )
        return self._barrier.wait()

    def broadcast(self, node: int, root: int, nbytes: int):
        """Process generator: root-mediated broadcast of ``nbytes``.

        The root charges the binomial-tree broadcast time; every node
        (root included) returns when the data has landed everywhere.
        Call exactly once per node per broadcast.
        """
        gen = self._node_gen.get(node, 0)
        self._node_gen[node] = gen + 1
        ev = self._bcast_done.get(gen)
        if ev is None:
            ev = Event(self.env)
            self._bcast_done[gen] = ev
        spans = getattr(self.machine, "spans", None)
        if node == root:
            t0 = self.env.now
            yield self.env.timeout(
                self.machine.mesh.broadcast_time(root, len(self.nodes), nbytes)
            )
            if spans is not None:
                spans.leaf_raw.append((LEAF_MESH_BCAST, node, t0, self.env.now, nbytes))
            ev.succeed()
        else:
            if spans is not None:
                spans.wrap_wait("bcast.wait", node, ev)
            yield ev

    def gather(self, node: int, root: int, nbytes_each: int):
        """Process generator: gather ``nbytes_each`` from every node to root.

        All nodes synchronize; the root additionally charges the gather
        transfer time.
        """
        yield self.barrier()
        if node == root:
            yield self.env.timeout(
                self.machine.mesh.gather_time(root, len(self.nodes), nbytes_each)
            )


@dataclass(frozen=True)
class PhaseMark:
    """A labelled instant in an application run (phase boundary)."""

    name: str
    time: float


@dataclass
class Application:
    """Base runner: spawns per-node processes and collects the trace."""

    machine: Paragon
    fs: InstrumentedPFS
    name: str = "app"
    phase_marks: list[PhaseMark] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Setup hook; the generated __init__ calls it for subclasses
        whether or not they are dataclasses themselves."""

    def mark(self, name: str, at: float | None = None) -> None:
        """Record a phase boundary at the current simulated time (or at
        ``at``, for fluid-mode phases whose interior instants were solved
        in closed form rather than visited by the clock)."""
        when = self.machine.env.now if at is None else at
        self.phase_marks.append(PhaseMark(name, when))
        spans = getattr(self.machine, "spans", None)
        if spans is not None:
            spans.mark(name, -1, when)

    def phase_time(self, name: str) -> float:
        """Time of the first mark with the given name."""
        for m in self.phase_marks:
            if m.name == name:
                return m.time
        raise KeyError(f"no phase mark {name!r}")

    def phase(self, key, node: int, mod, probe, ops):
        """Process generator: run ``node``'s share of a regular phase.

        ``ops`` is a generator function yielding :mod:`repro.sim.fluid`
        plan ops (compute, barrier, seek, write, read, flush).  With a
        fluid servicer attached, the phase is offered as one cohort of
        ``self.group``: ``probe`` is checked first, and only an accepted
        offer draws ``ops()`` whole.  A declined offer, or no servicer,
        runs the ops one by one on the event path, advancing ``ops()``
        lazily so RNG draws interleave with I/O as in a written-out loop.
        ``mod`` is the compute node that runs the compute ops.
        """
        fs = self.fs
        servicer = fs.fluid
        if servicer is not None:
            done = servicer.enroll(
                key, len(self.group.nodes), node, probe=probe, build=ops, mod=mod
            )
            if done is not None:
                yield done
                return
        for op in ops():
            kind = op[0]
            if kind == OP_COMPUTE:
                yield from mod.compute(op[1])
            elif kind == OP_READ:
                yield from fs.read(node, op[1], op[2])
            elif kind == OP_WRITE:
                yield from fs.write(node, op[1], op[2])
            elif kind == OP_SEEK:
                yield from fs.seek(node, op[1], op[2])
            elif kind == OP_BARRIER:
                yield self.group.barrier()
            elif kind == OP_FLUSH:
                yield from fs.flush(node, op[1])

    def node_processes(self):  # pragma: no cover - abstract
        """Yield (node, generator) pairs; subclasses implement."""
        raise NotImplementedError

    def run(self) -> Trace:
        """Spawn all node processes, run to completion, return the trace."""
        self.fs.trace.application = self.name
        procs = [
            self.machine.env.process(gen, name=f"{self.name}.n{node}")
            for node, gen in self.node_processes()
        ]
        self.fs.trace.nodes = max(self.fs.trace.nodes, len(procs))
        self.machine.env.run()
        for p in procs:
            if p.is_alive:
                raise RuntimeError(f"process {p.name} never finished (deadlock?)")
            if not p.ok:
                raise p.value
        return self.fs.trace
