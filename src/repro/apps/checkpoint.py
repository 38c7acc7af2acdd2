"""CHECKPOINT — synchronized checkpoint/restart workload family.

The paper's three applications are read/compute/write-burst codes; modern
parallel I/O is dominated by a fourth shape the study predates:
*synchronized checkpointing*.  N compute nodes alternate a compute
interval with a barrier-coordinated dump of per-node state into rotating
checkpoint files — short, huge, fully-aligned write bursts, the worst
case for a striped RAID-3 back end and the motivating traffic for the
host-side burst-buffer tier (:mod:`repro.machine.burstbuffer`).

The skeleton is parameterized along the axes the checkpointing
literature sweeps:

* checkpoint **interval** (compute seconds between dumps),
* per-node **state size**, with linear growth per epoch (adaptive-mesh
  codes) and a deterministic per-node spread (load imbalance),
* an optional **compression ratio** applied before the wire, plus a
  compute cost per raw MB for the compressor,
* **rotating files** (double-buffered checkpoints, so a failure during
  epoch *k* never corrupts epoch *k-1*), and
* **restart-after-fault**: a write failure surfacing into the epoch
  (e.g. retry budget exhausted during a :class:`~repro.faults.NodeOutage`)
  rolls every node back to the last *complete* checkpoint — the failed
  epoch's files are re-read and the interval recomputed, with the lost
  work accounted in :class:`CheckpointStats`.

Checkpoint files open in M_ASYNC: writers own disjoint regions, so the
mode's missing atomicity is exactly right and the writes escape the
shared-file write-token serialization M_UNIX would impose (§5.2's
N-to-1 penalty).  Files are marked burst-tier; on a machine with a
burst buffer the writes absorb into the log, otherwise they go straight
to the RAID fan-out — the A/B the bench suite measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..pfs.errors import PFSError
from ..pfs.modes import AccessMode
from ..sim import fluid as fl
from ..util.units import KB, MB
from .base import Application, Collective

__all__ = ["CheckpointConfig", "CheckpointStats", "Checkpoint"]


@dataclass(frozen=True)
class CheckpointConfig:
    """Workload parameters; defaults = a paper-scale 128-node partition
    dumping 512 MB (4 MB/node) every five simulated minutes."""

    nodes: int = 128
    #: Checkpoints to complete (epochs).
    checkpoints: int = 8
    #: Compute seconds between checkpoints.
    interval_s: float = 300.0
    #: Compute jitter (fraction of the interval) across nodes.
    compute_jitter: float = 0.02
    #: Per-node state at epoch 0.
    state_bytes: int = 4 * MB
    #: Linear state growth per epoch (0.1 = +10% of epoch-0 state each epoch).
    state_growth: float = 0.0
    #: Deterministic per-node size spread: node scales run linearly over
    #: ``[1 - spread, 1 + spread]`` across the partition (no RNG draws, so
    #: the trace stays byte-reproducible under any node interleaving).
    state_spread: float = 0.0
    #: Write/read granularity for state dumps and restores.
    chunk_bytes: int = 256 * KB
    #: Wire bytes = ceil(raw * ratio); 1.0 = no compression.
    compression_ratio: float = 1.0
    #: Compressor compute cost per raw MB (0 = free compression).
    compress_cost_s_per_mb: float = 0.0
    #: Rotating checkpoint files (2 = classic double buffering).
    checkpoint_files: int = 2
    #: Begin by restoring epoch-0 state from checkpoint file 0.
    restart: bool = False
    #: Abort if one epoch fails this many times (guards runaway fault plans).
    max_restarts: int = 8

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.checkpoints < 1:
            raise ValueError("checkpoints must be >= 1")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if self.state_bytes < 1:
            raise ValueError("state_bytes must be >= 1")
        if self.state_growth < 0:
            raise ValueError("state_growth must be >= 0")
        if not 0 <= self.state_spread < 1:
            raise ValueError("state_spread must be in [0, 1)")
        if self.chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        if not 0 < self.compression_ratio <= 1:
            raise ValueError("compression_ratio must be in (0, 1]")
        if self.compress_cost_s_per_mb < 0:
            raise ValueError("compress_cost_s_per_mb must be >= 0")
        if self.checkpoint_files < 1:
            raise ValueError("checkpoint_files must be >= 1")
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")

    # -- state sizing ---------------------------------------------------------
    def node_scale(self, node: int) -> float:
        """Deterministic per-node size factor in [1-spread, 1+spread]."""
        if self.nodes == 1 or self.state_spread == 0.0:
            return 1.0
        return 1.0 + self.state_spread * (2.0 * node / (self.nodes - 1) - 1.0)

    def raw_bytes(self, epoch: int, node: int) -> int:
        """Uncompressed per-node state at a given epoch."""
        grown = self.state_bytes * (1.0 + self.state_growth * epoch)
        return max(1, math.ceil(grown * self.node_scale(node)))

    def wire_bytes(self, epoch: int, node: int) -> int:
        """Bytes actually written after compression."""
        return max(1, math.ceil(self.raw_bytes(epoch, node) * self.compression_ratio))

    @property
    def region_bytes(self) -> int:
        """Per-node file region: the largest possible wire size, rounded
        up to the chunk granularity (uniform regions keep offsets simple)."""
        last = self.checkpoints - 1
        biggest = max(
            self.wire_bytes(last, node) for node in (0, self.nodes - 1)
        )
        chunks = (biggest + self.chunk_bytes - 1) // self.chunk_bytes
        return chunks * self.chunk_bytes

    # -- expectations (fault-free run) ----------------------------------------
    @property
    def expected_writes(self) -> int:
        c = self.chunk_bytes
        return sum(
            (self.wire_bytes(e, n) + c - 1) // c
            for e in range(self.checkpoints)
            for n in range(self.nodes)
        )

    @property
    def expected_checkpoint_bytes(self) -> int:
        return sum(
            self.wire_bytes(e, n)
            for e in range(self.checkpoints)
            for n in range(self.nodes)
        )

    @property
    def expected_opens(self) -> int:
        return self.nodes * self.checkpoint_files


@dataclass
class CheckpointStats:
    """Per-run checkpoint accounting (node 0 keeps the books)."""

    checkpoints_taken: int = 0
    restarts: int = 0
    lost_work_s: float = 0.0
    restore_bytes: int = 0
    bytes_written: int = 0
    raw_bytes: int = 0
    #: Application-visible cost of each completed checkpoint (barrier at
    #: compute end -> barrier after every node's dump landed).
    checkpoint_costs: list = field(default_factory=list)

    @property
    def checkpoint_cost_s(self) -> float:
        return sum(self.checkpoint_costs)

    @property
    def mean_cost_s(self) -> float:
        if not self.checkpoint_costs:
            return 0.0
        return self.checkpoint_cost_s / len(self.checkpoint_costs)

    def as_dict(self) -> dict:
        return {
            "checkpoints_taken": self.checkpoints_taken,
            "restarts": self.restarts,
            "lost_work_s": round(self.lost_work_s, 9),
            "restore_bytes": self.restore_bytes,
            "bytes_written": self.bytes_written,
            "raw_bytes": self.raw_bytes,
            "checkpoint_cost_s": round(self.checkpoint_cost_s, 9),
            "mean_cost_s": round(self.mean_cost_s, 9),
            "checkpoint_costs": [round(c, 9) for c in self.checkpoint_costs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CheckpointStats":
        return cls(
            checkpoints_taken=int(d.get("checkpoints_taken", 0)),
            restarts=int(d.get("restarts", 0)),
            lost_work_s=float(d.get("lost_work_s", 0.0)),
            restore_bytes=int(d.get("restore_bytes", 0)),
            bytes_written=int(d.get("bytes_written", 0)),
            raw_bytes=int(d.get("raw_bytes", 0)),
            checkpoint_costs=[float(c) for c in d.get("checkpoint_costs", ())],
        )


@dataclass
class Checkpoint(Application):
    """Runnable checkpoint/restart skeleton."""

    config: CheckpointConfig = field(default_factory=CheckpointConfig)

    def __post_init__(self) -> None:
        self.name = "CHECKPOINT"
        cfg = self.config
        if cfg.nodes > self.machine.config.compute_nodes:
            raise ValueError(
                f"workload wants {cfg.nodes} nodes, machine has "
                f"{self.machine.config.compute_nodes}"
            )
        self.group = Collective(self.machine, list(range(cfg.nodes)))
        self._rng = self.machine.rngs.stream("checkpoint.compute")
        self.stats = CheckpointStats()
        #: Highest epoch known durable everywhere (-1 = none yet).
        self._last_complete = -1
        #: (epoch, attempt) pairs that saw a write failure on some node.
        self._failed: set = set()
        region = cfg.region_bytes
        for i in range(cfg.checkpoint_files):
            path = self._path(i)
            self.fs.ensure(path, size=cfg.nodes * region)
            self.fs.mark_burst_tier(path)

    @staticmethod
    def _path(index: int) -> str:
        return f"/ckpt/state{index}"

    # -- per-node program ------------------------------------------------------
    def node_processes(self):
        for node in range(self.config.nodes):
            yield node, self._node_main(node)

    def _node_main(self, node: int):
        cfg = self.config
        fs = self.fs
        env = self.machine.env
        node0 = node == 0
        node_mod = self.machine.nodes[node]
        region = cfg.region_bytes

        fds = []
        for i in range(cfg.checkpoint_files):
            fd = yield from fs.open(node, self._path(i), AccessMode.M_ASYNC)
            fds.append(fd)

        if cfg.restart:
            # Cold restart: restore epoch-0 state before computing.
            if node0:
                self.mark("restore")
            yield from self._restore(node, fds, 0)
            yield self.group.barrier()

        # Fault-free epoch loops are regular (synchronized compute + one
        # seek + chunked dump per epoch): offer the whole loop as one
        # fluid phase.  Restart runs carry restore state and stay
        # discrete; burst-tier files decline via ``fluid_ok`` when a
        # burst buffer is attached.
        servicer = None
        if not cfg.restart:
            servicer = fs.fluid
        done = None
        if servicer is not None:

            def build_plan():
                ops = []
                for e in range(cfg.checkpoints):
                    jitter = 1.0 + cfg.compute_jitter * float(
                        self._rng.standard_normal()
                    )
                    ops.append(fl.compute(max(0.0, cfg.interval_s * jitter)))
                    ops.append(fl.barrier())
                    if node0:
                        ops.append(fl.mark(f"ckpt{e}"))
                    raw = cfg.raw_bytes(e, node)
                    if cfg.compress_cost_s_per_mb > 0:
                        ops.append(
                            fl.compute(raw / MB * cfg.compress_cost_s_per_mb)
                        )
                    fd = fds[e % cfg.checkpoint_files]
                    ops.append(fl.seek(fd, node * region))
                    left = cfg.wire_bytes(e, node)
                    while left > 0:
                        n = min(cfg.chunk_bytes, left)
                        ops.append(fl.write(fd, n))
                        left -= n
                    ops.append(fl.barrier())
                    if node0:
                        ops.append(fl.mark(f"done{e}"))
                return ops

            done = servicer.enroll(
                "checkpoint",
                cfg.nodes,
                node,
                probe=[
                    op
                    for fd in fds
                    for op in (fl.seek(fd, 0), fl.write(fd, cfg.chunk_bytes))
                ],
                build=build_plan,
                mod=node_mod,
            )
        if done is not None:
            marks = yield done
            if node0:
                times = dict(marks)
                for e in range(cfg.checkpoints):
                    start = times[f"ckpt{e}"]
                    self.mark(f"ckpt{e}", at=start)
                    self.stats.checkpoints_taken += 1
                    self.stats.checkpoint_costs.append(times[f"done{e}"] - start)
                self._last_complete = cfg.checkpoints - 1
            for e in range(cfg.checkpoints):
                self.stats.bytes_written += cfg.wire_bytes(e, node)
                self.stats.raw_bytes += cfg.raw_bytes(e, node)
            yield self.group.barrier()
            for fd in fds:
                yield from fs.close(node, fd)
            if node0:
                self.mark("end")
            return

        epoch = 0
        attempt = 0
        while epoch < cfg.checkpoints:
            if node0:
                epoch_start = env.now
            jitter = 1.0 + cfg.compute_jitter * float(self._rng.standard_normal())
            yield from node_mod.compute(max(0.0, cfg.interval_s * jitter))
            yield self.group.barrier()
            if node0:
                self.mark(f"ckpt{epoch}")
                dump_start = env.now

            raw = cfg.raw_bytes(epoch, node)
            wire = cfg.wire_bytes(epoch, node)
            if cfg.compress_cost_s_per_mb > 0:
                yield from node_mod.compute(raw / MB * cfg.compress_cost_s_per_mb)
            fd = fds[epoch % cfg.checkpoint_files]
            try:
                yield from fs.seek(node, fd, node * region)
                left = wire
                while left > 0:
                    n = min(cfg.chunk_bytes, left)
                    yield from fs.write(node, fd, n)
                    left -= n
            except PFSError:
                # A fault surfaced into this node's dump (retry budget
                # exhausted, etc.): flag the epoch; everyone rolls back
                # together after the barrier.
                self._failed.add((epoch, attempt))
            yield self.group.barrier()

            if (epoch, attempt) in self._failed:
                if node0:
                    self.stats.restarts += 1
                    self.stats.lost_work_s += env.now - epoch_start
                yield from self._restore(node, fds, self._last_complete)
                yield self.group.barrier()
                attempt += 1
                if attempt > cfg.max_restarts:
                    raise RuntimeError(
                        f"checkpoint epoch {epoch} failed {attempt} times"
                    )
                continue  # recompute the interval, redo the epoch

            if node0:
                self._last_complete = epoch
                self.stats.checkpoints_taken += 1
                self.stats.checkpoint_costs.append(env.now - dump_start)
            # Every node contributes its own dump volume exactly once.
            self.stats.bytes_written += wire
            self.stats.raw_bytes += raw
            epoch += 1
            attempt = 0

        yield self.group.barrier()
        for fd in fds:
            yield from fs.close(node, fd)
        if node0:
            self.mark("end")

    def _restore(self, node: int, fds: list, epoch: int):
        """Re-read this node's state from the last complete checkpoint.

        ``epoch < 0`` (a failure before any checkpoint completed) means
        restart-from-initial-conditions: nothing to read.
        """
        if epoch < 0:
            return
        cfg = self.config
        fs = self.fs
        fd = fds[epoch % cfg.checkpoint_files]
        wire = cfg.wire_bytes(epoch, node)
        yield from fs.seek(node, fd, node * cfg.region_bytes)
        left = wire
        while left > 0:
            n = min(cfg.chunk_bytes, left)
            got = yield from fs.read(node, fd, n)
            self.stats.restore_bytes += got
            left -= n
