"""ESCAT — electron scattering (Schwinger multichannel) skeleton (§4.1, §5).

Reproduces the four I/O phases of the production code on the Paragon:

1. **Compulsory input** — node 0 reads the problem definition and initial
   matrices from three files (ids 9-11) with many small and a few larger
   requests, then broadcasts to the partition.
2. **Quadrature generation** — compute/write cycles, synchronized across
   nodes; each cycle every node seeks to a calculated offset (dependent
   on node number, iteration and the PFS stripe size) in each of two
   staging files (ids 7-8, M_UNIX mode) and writes one 2 KB quadrature
   record.  A node's records are laid out contiguously so it can reread
   its own data with one large access.  Inter-cycle compute time shrinks
   from ~160 s to ~80 s across the phase (paper Figure 4).
3. **Reload** — the staging files are switched to M_RECORD with a
   record size of two stripe units (128 KB) and every node rereads its
   own region (including the layout holes — why reread volume exceeds
   written volume).
4. **Output** — results are gathered to node 0 and written to three
   output files (ids 3-5).

Default parameters land on the paper's Table 1-2 counts: 13,330 writes
(all < 4 KB), 560 reads (bimodal), 262 opens/closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..pfs.modes import AccessMode
from ..sim import fluid as fl
from ..util.units import STRIPE_UNIT
from .base import Application, Collective

__all__ = ["EscatConfig", "Escat"]


@dataclass(frozen=True)
class EscatConfig:
    """Workload parameters; defaults = the paper's 128-node test dataset."""

    nodes: int = 128
    #: Quadrature compute/write cycles per node.
    iterations: int = 52
    #: Bytes per quadrature record (251 doubles).
    record_bytes: int = 2008
    #: Per-node region in each staging file: 2 stripe units, also the
    #: M_RECORD record size used for the phase-3 reload.
    region_bytes: int = 2 * STRIPE_UNIT
    #: Inter-cycle compute time at phase start / end (paper: ~160 -> ~80 s).
    cycle_compute_start_s: float = 135.0
    cycle_compute_end_s: float = 52.0
    #: Compute jitter (fraction of cycle time) across nodes.
    compute_jitter: float = 0.02
    #: Initial input: (count, size) request classes per the bimodal mix.
    init_small_reads: int = 297
    init_small_bytes: int = 1171
    init_medium_reads: int = 3
    init_medium_bytes: int = 20480
    init_large_reads: int = 4
    init_large_bytes: int = 65536
    #: Final output: writes per output file and their size.
    output_writes_per_file: int = 6
    output_write_bytes: int = 1477
    #: Initialization compute before phase 2 starts.
    init_compute_s: float = 120.0
    #: Energy-dependent compute before the phase-3 reload.
    phase3_compute_s: float = 180.0
    #: Output assembly compute before phase 4 writes.
    phase4_compute_s: float = 30.0
    #: Restart mode: skip the quadrature-generation phase and reuse the
    #: staging files from a previous run — the parametric-study workflow
    #: §2 describes ("users often use computation checkpoints as a basis
    #: for parametric studies ... and restarting the computation").
    restart: bool = False

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.iterations * self.record_bytes > self.region_bytes:
            raise ValueError(
                "per-node records overflow the staging region: "
                f"{self.iterations} x {self.record_bytes} > {self.region_bytes}"
            )

    @property
    def expected_writes(self) -> int:
        """Staging + output writes (paper: 13,330)."""
        return self.nodes * self.iterations * 2 + 3 * self.output_writes_per_file

    @property
    def expected_reads(self) -> int:
        """Initial + reload reads (paper: 560)."""
        return (
            self.init_small_reads
            + self.init_medium_reads
            + self.init_large_reads
            + 2 * self.nodes
        )

    @property
    def expected_opens(self) -> int:
        """3 input + 2 staging x nodes + 3 output (paper: 262)."""
        return 3 + 2 * self.nodes + 3


#: Paper file ids (Figure 5): output 3-5, staging 7-8, input 9-11.
OUTPUT_IDS = (3, 4, 5)
STAGING_IDS = (7, 8)
INPUT_IDS = (9, 10, 11)


@dataclass
class Escat(Application):
    """Runnable ESCAT skeleton."""

    config: EscatConfig = field(default_factory=EscatConfig)

    def __post_init__(self) -> None:
        self.name = "ESCAT"
        cfg = self.config
        if cfg.nodes > self.machine.config.compute_nodes:
            raise ValueError(
                f"workload wants {cfg.nodes} nodes, machine has "
                f"{self.machine.config.compute_nodes}"
            )
        self.group = Collective(self.machine, list(range(cfg.nodes)))
        self._rng = self.machine.rngs.stream("escat.compute")
        # Input files pre-exist (staged data); staging files pre-exist as
        # scratch from prior runs (why their opens are cheap non-creates).
        total_init = (
            cfg.init_small_reads * cfg.init_small_bytes
            + cfg.init_medium_reads * cfg.init_medium_bytes
            + cfg.init_large_reads * cfg.init_large_bytes
        )
        for i, fid in enumerate(INPUT_IDS):
            self.fs.ensure(f"/escat/input{i}", file_id=fid, size=total_init // 3 + cfg.init_large_bytes)
        for i, fid in enumerate(STAGING_IDS):
            self.fs.ensure(f"/escat/quad{i}", file_id=fid, size=cfg.nodes * cfg.region_bytes)

    # -- per-node program ---------------------------------------------------
    def node_processes(self):
        for node in range(self.config.nodes):
            yield node, self._node_main(node)

    def _node_main(self, node: int):
        cfg = self.config
        fs = self.fs
        node0 = node == 0

        # ---- phase 1: compulsory input + broadcast -----------------------
        if node0:
            self.mark("phase1")
            total = 0
            for i in range(3):
                fd = yield from fs.open(node, f"/escat/input{i}")
                plan = self._init_read_plan(i)
                for size in plan:
                    got = yield from fs.read(node, fd, size)
                    total += got
                yield from fs.close(node, fd)
            yield from self.group.broadcast(node, 0, total)
        else:
            yield from self.group.broadcast(node, 0, 0)

        # ---- phase 2: synchronized compute/write cycles ---------------------
        # (skipped entirely on restart: the checkpoint is reused.)
        if node0:
            self.mark("phase2")
        fds = []
        for i in range(2):
            fd = yield from fs.open(node, f"/escat/quad{i}", AccessMode.M_UNIX)
            fds.append(fd)
        node_mod = self.machine.nodes[node]
        if not cfg.restart:
            # The iteration loop is regular (synchronized compute + two
            # seek/write pairs per cycle): one phase, fluid when it can be.
            def cycles():
                for it in range(cfg.iterations):
                    frac = it / max(1, cfg.iterations - 1)
                    base = (
                        cfg.cycle_compute_start_s
                        + (cfg.cycle_compute_end_s - cfg.cycle_compute_start_s) * frac
                    )
                    jitter = 1.0 + cfg.compute_jitter * float(self._rng.standard_normal())
                    yield fl.compute(max(0.0, base * jitter))
                    yield fl.barrier()  # writes are synchronized (Figure 4)
                    for fd in fds:
                        yield fl.seek(fd, node * cfg.region_bytes + it * cfg.record_bytes)
                        yield fl.write(fd, cfg.record_bytes)

            probe = [
                op for fd in fds for op in (fl.seek(fd, 0), fl.write(fd, cfg.record_bytes))
            ]
            yield from self.phase("escat.phase2", node, node_mod, probe, cycles)

        # ---- phase 3: energy-dependent calc + reload ------------------------
        if node0:
            self.mark("phase3")
        yield from node_mod.compute(cfg.phase3_compute_s)
        yield self.group.barrier()
        for fd in fds:
            yield from fs.setiomode(
                node, fd, AccessMode.M_RECORD, record_size=cfg.region_bytes
            )
        for fd in fds:
            got = yield from fs.read(node, fd, cfg.region_bytes)
            assert got == cfg.region_bytes
        for fd in fds:
            yield from fs.close(node, fd)

        # ---- phase 4: gather + output by node 0 ---------------------------
        yield from self.group.gather(node, 0, cfg.output_write_bytes)
        if node0:
            self.mark("phase4")
            yield from node_mod.compute(cfg.phase4_compute_s)
            for i, fid in enumerate(OUTPUT_IDS):
                fd = yield from fs.open(
                    node, f"/escat/out{i}", create=True, file_id=fid
                )
                for _ in range(cfg.output_writes_per_file):
                    yield from fs.write(node, fd, cfg.output_write_bytes)
                yield from fs.close(node, fd)
            self.mark("end")

    def _init_read_plan(self, file_index: int) -> list[int]:
        """Request sizes for one input file: interleaved small reads with
        the occasional medium/large request (Figure 3's irregularity)."""
        cfg = self.config
        smalls = [cfg.init_small_bytes] * (cfg.init_small_reads // 3)
        if file_index == 0:
            smalls += [cfg.init_small_bytes] * (cfg.init_small_reads % 3)
        mediums = [cfg.init_medium_bytes] * (1 if file_index < cfg.init_medium_reads else 0)
        larges = [cfg.init_large_bytes] * (2 if file_index == 0 else 1)
        # Interleave: a large read up front (header block), mediums midway.
        plan = larges[:1] + smalls[: len(smalls) // 2] + mediums + smalls[len(smalls) // 2 :] + larges[1:]
        return plan
