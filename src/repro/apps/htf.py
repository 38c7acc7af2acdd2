"""HTF — Hartree-Fock quantum chemistry skeleton (§4.3, §7).

Three programs forming a logical pipeline, each traced separately as in
the paper's Tables 5-6 and Figures 9-17:

* **psetup** (initialization) — a single node reads the small initial
  data, transforms it (compute between requests), and writes the files
  the later phases consume.  Small, balanced read/write mix.
* **pargos** (integral calculation) — every node creates a private
  integral file and alternates integral computation with ~80 KB record
  writes, flushing after each (Fortran forflush); write-intensive, and
  the 128 simultaneous creates make opens the dominant I/O cost.
* **pscf** (self-consistent field) — every node rereads its integral
  file once per SCF pass (the files are too large to keep in memory),
  rewinding (seek to 0, ~5.4 MB distance) between passes; heavily
  read-intensive.  Node 0 additionally works a set of auxiliary files
  (basis/geometry/checkpoint/results).

Default parameters land on Table 5-6: pargos 8,532 integral-record
writes of 81,920 bytes (84 nodes write 67 records, 44 write 66), pscf
6 x 8,532 = 51,192 record reads plus node-0 extras totalling 51,499
reads, 813 seeks whose cumulative distance is ~3.5 GB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from ..machine.paragon import Paragon
from ..pablo.capture import InstrumentedPFS
from ..pablo.trace import Trace
from ..pfs.filesystem import PFS
from ..sim import fluid as fl
from .base import Application, Collective

__all__ = ["HTFConfig", "Psetup", "Pargos", "Pscf", "HartreeFock", "HTFResult"]


@dataclass(frozen=True)
class HTFConfig:
    """Workload parameters; defaults = the paper's 16-atom, 128-node run."""

    nodes: int = 128
    # -- psetup (single-node) -------------------------------------------------
    psetup_small_reads: int = 151
    psetup_small_read_bytes: int = 1100
    psetup_medium_reads: int = 220
    psetup_medium_read_bytes: int = 15256
    psetup_small_writes: int = 218
    psetup_small_write_bytes: int = 1050
    psetup_medium_writes: int = 234
    psetup_medium_write_bytes: int = 15026
    psetup_compute_per_op_s: float = 0.19
    # -- pargos ---------------------------------------------------------------
    integral_record_bytes: int = 81920
    #: Nodes writing one extra record (84 x 67 + 44 x 66 = 8,532).
    extra_record_nodes: int = 84
    records_base: int = 66
    pargos_input_small_reads: int = 143
    pargos_input_small_bytes: int = 150
    pargos_input_medium_reads: int = 2
    pargos_input_medium_bytes: int = 6400
    pargos_cycle_compute_s: float = 16.5
    pargos_compute_jitter: float = 0.01
    # -- pscf ------------------------------------------------------------------
    scf_passes: int = 6
    scf_compute_per_record_s: float = 0.5
    scf_pass_compute_s: float = 90.0
    #: Node-0 auxiliary-file op counts (to Table 5/6 totals).
    aux_opens: int = 29
    aux_closes: int = 28
    aux_small_reads: int = 165
    aux_small_read_bytes: int = 800
    aux_medium_reads: int = 109
    aux_medium_read_bytes: int = 15000
    aux_large_reads: int = 33
    aux_large_read_bytes: int = 105000
    aux_small_writes: int = 43
    aux_small_write_bytes: int = 1200
    aux_medium_writes: int = 158
    aux_medium_write_bytes: int = 20000
    aux_large_writes: int = 6
    aux_large_write_bytes: int = 110000
    aux_seeks: int = 173

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if not 0 <= self.extra_record_nodes <= self.nodes:
            raise ValueError("extra_record_nodes outside 0..nodes")
        if self.scf_passes < 1:
            raise ValueError("scf_passes must be >= 1")

    def records_for(self, node: int) -> int:
        """Integral records written by ``node``."""
        return self.records_base + (1 if node < self.extra_record_nodes else 0)

    @property
    def total_records(self) -> int:
        """All integral records (paper: 8,532)."""
        return self.nodes * self.records_base + self.extra_record_nodes

    @property
    def expected_pscf_reads(self) -> int:
        """SCF record reads + node-0 extras (paper: 51,499)."""
        return (
            self.scf_passes * self.total_records
            + self.aux_small_reads
            + self.aux_medium_reads
            + self.aux_large_reads
        )


def _integral_path(node: int) -> str:
    return f"/htf/integrals{node:03d}"


@dataclass
class Psetup(Application):
    """HTF initialization program (runs on node 0)."""

    config: HTFConfig = field(default_factory=HTFConfig)

    def __post_init__(self) -> None:
        self.name = "HTF-psetup"
        cfg = self.config
        self.fs.ensure(
            "/htf/input",
            size=cfg.psetup_small_reads * cfg.psetup_small_read_bytes
            + cfg.psetup_medium_reads * cfg.psetup_medium_read_bytes,
        )

    def node_processes(self):
        yield 0, self._main()

    def _main(self):
        cfg = self.config
        fs = self.fs
        node = 0
        mod = self.machine.nodes[node]
        self.mark("start")
        in_fd = yield from fs.open(node, "/htf/input", cold=True)
        out_fds = []
        for i in range(3):
            fd = yield from fs.open(node, f"/htf/setup{i}", create=True, cold=True)
            out_fds.append(fd)

        # Interleave: read a record, transform, write the result(s).
        reads = [cfg.psetup_small_read_bytes] * cfg.psetup_small_reads + [
            cfg.psetup_medium_read_bytes
        ] * cfg.psetup_medium_reads
        writes = [cfg.psetup_small_write_bytes] * cfg.psetup_small_writes + [
            cfg.psetup_medium_write_bytes
        ] * cfg.psetup_medium_writes
        # Deterministic interleave preserving each list's internal order.
        rng = self.machine.rngs.stream("htf.psetup")
        order = rng.permutation(len(reads)).tolist()
        reads = [reads[i] for i in order]
        order_w = rng.permutation(len(writes)).tolist()
        writes = [writes[i] for i in order_w]

        wi = 0
        for ri, size in enumerate(reads):
            yield from fs.read(node, in_fd, size)
            yield from mod.compute(cfg.psetup_compute_per_op_s)
            # ~1.2 writes per read on average.
            quota = (ri + 1) * len(writes) // len(reads)
            while wi < quota:
                fd = out_fds[wi % 3]
                yield from fs.write(node, fd, writes[wi])
                wi += 1
            if ri == len(reads) // 2:
                # Re-scan the input header midway (the 2 seeks of Table 5).
                yield from fs.seek(node, in_fd, 0)
                yield from fs.seek(node, in_fd, 0)
        while wi < len(writes):
            yield from fs.write(node, out_fds[wi % 3], writes[wi])
            wi += 1
        yield from fs.close(node, in_fd)
        yield from fs.close(node, out_fds[0])
        yield from fs.close(node, out_fds[1])
        # Third setup file left open at exit (Table 5: 4 opens, 3 closes).
        self.mark("end")


@dataclass
class Pargos(Application):
    """HTF integral-calculation program (all nodes)."""

    config: HTFConfig = field(default_factory=HTFConfig)

    def __post_init__(self) -> None:
        self.name = "HTF-pargos"
        cfg = self.config
        if cfg.nodes > self.machine.config.compute_nodes:
            raise ValueError("workload larger than machine")
        self.group = Collective(self.machine, list(range(cfg.nodes)))
        self._rng = self.machine.rngs.stream("htf.pargos")
        self.fs.ensure(
            "/htf/setup0",
            size=cfg.pargos_input_small_reads * cfg.pargos_input_small_bytes
            + cfg.pargos_input_medium_reads * cfg.pargos_input_medium_bytes,
        )

    def node_processes(self):
        for node in range(self.config.nodes):
            yield node, self._node_main(node)

    def _node_main(self, node: int):
        cfg = self.config
        fs = self.fs
        mod = self.machine.nodes[node]
        node0 = node == 0

        # Node 0 reads the basis/geometry produced by psetup, broadcasts.
        if node0:
            self.mark("start")
            in_fd = yield from fs.open(node, "/htf/setup0")
            for _ in range(cfg.pargos_input_small_reads):
                yield from fs.read(node, in_fd, cfg.pargos_input_small_bytes)
            for _ in range(cfg.pargos_input_medium_reads):
                yield from fs.read(node, in_fd, cfg.pargos_input_medium_bytes)
            # Input file left open at exit (Table 5: 130 opens, 129 closes).
            yield from self.group.broadcast(node, 0, 64 * 1024)
        else:
            yield from self.group.broadcast(node, 0, 0)

        # Every node creates its integral file — the contended creates
        # that dominate this phase's I/O time.
        fd = yield from fs.open(node, _integral_path(node), create=True)
        if node0:
            self.mark("integrals")
            cfd = yield from fs.open(node, "/htf/pargos.log", create=True)
            yield from fs.write(node, cfd, 512)
            yield from fs.write(node, cfd, 512)
            yield from fs.write(node, cfd, 16384)
            for _ in range(3):
                yield from fs.flush(node, cfd)
            yield from fs.close(node, cfd)

        # The record loop is regular (compute/write/flush per record on a
        # private file): one phase, fluid when it can be.
        def records():
            for _ in range(cfg.records_for(node)):
                jitter = 1.0 + cfg.pargos_compute_jitter * float(self._rng.standard_normal())
                yield fl.compute(max(0.0, cfg.pargos_cycle_compute_s * jitter))
                yield fl.write(fd, cfg.integral_record_bytes)
                yield fl.flush(fd)
            yield fl.flush(fd)  # final forflush before lsize

        probe = [fl.write(fd, cfg.integral_record_bytes), fl.flush(fd)]
        yield from self.phase("pargos", node, mod, probe, records)
        yield from fs.lsize(node, fd)
        yield from fs.close(node, fd)
        if node0:
            self.mark("end")


@dataclass
class Pscf(Application):
    """HTF self-consistent-field program (all nodes)."""

    config: HTFConfig = field(default_factory=HTFConfig)

    def __post_init__(self) -> None:
        self.name = "HTF-pscf"
        cfg = self.config
        if cfg.nodes > self.machine.config.compute_nodes:
            raise ValueError("workload larger than machine")
        self.group = Collective(self.machine, list(range(cfg.nodes)))
        self._rng = self.machine.rngs.stream("htf.pscf")
        # Integral files must exist (pargos output) — ensure for
        # standalone runs; sizes follow the per-node record counts.
        for node in range(cfg.nodes):
            self.fs.ensure(
                _integral_path(node),
                size=cfg.records_for(node) * cfg.integral_record_bytes,
            )
        for i in range(cfg.aux_opens):
            self.fs.ensure(f"/htf/aux{i:02d}", size=2 * 1024 * 1024)

    def node_processes(self):
        for node in range(self.config.nodes):
            yield node, self._node_main(node)

    # Auxiliary op schedule: node 0 interleaves aux-file work at pass
    # boundaries; slices partition the Table 5/6 counts evenly.
    def _aux_slice(self, counts: dict[str, int], slice_idx: int, slices: int):
        def share(total: int) -> int:
            return total * (slice_idx + 1) // slices - total * slice_idx // slices

        cfg = self.config
        fs = self.fs
        node = 0
        n_open = share(cfg.aux_opens)
        n_close = share(cfg.aux_closes)
        for _ in range(n_open):
            idx = counts["opened"]
            fd = yield from fs.open(node, f"/htf/aux{idx:02d}")
            counts["fds"].append(fd)
            counts["opened"] += 1
        for _ in range(share(cfg.aux_small_reads)):
            yield from fs.read(node, counts["fds"][0], cfg.aux_small_read_bytes)
        for _ in range(share(cfg.aux_medium_reads)):
            yield from fs.read(node, counts["fds"][0], cfg.aux_medium_read_bytes)
        for _ in range(share(cfg.aux_large_reads)):
            yield from fs.read(node, counts["fds"][0], cfg.aux_large_read_bytes)
        for _ in range(share(cfg.aux_seeks)):
            yield from fs.seek(node, counts["fds"][0], 0)
        for _ in range(share(cfg.aux_small_writes)):
            yield from fs.write(node, counts["fds"][-1], cfg.aux_small_write_bytes)
        for _ in range(share(cfg.aux_medium_writes)):
            yield from fs.write(node, counts["fds"][-1], cfg.aux_medium_write_bytes)
        for _ in range(share(cfg.aux_large_writes)):
            yield from fs.write(node, counts["fds"][-1], cfg.aux_large_write_bytes)
        for _ in range(n_close):
            fd = counts["fds"].pop(0)
            yield from fs.close(node, fd)

    def _node_main(self, node: int):
        cfg = self.config
        fs = self.fs
        mod = self.machine.nodes[node]
        node0 = node == 0
        slices = cfg.scf_passes + 2  # initial + per-pass + final
        aux_state = {"opened": 0, "fds": []}

        if node0:
            self.mark("start")
            yield from self._aux_slice(aux_state, 0, slices)
        fd = yield from fs.open(node, _integral_path(node))
        records = cfg.records_for(node)
        # Each SCF pass is a regular read sweep — one phase per pass.
        # Node 0's aux-file slices stay discrete between passes; after a
        # fluid pass they queue behind its held I/O-node horizon.
        def sweep(scf_pass):
            if scf_pass > 0:
                yield fl.seek(fd, 0)  # rewind: ~5.4 MB distance
            for _ in range(records):
                yield fl.read(fd, cfg.integral_record_bytes)
                jitter = 1.0 + 0.03 * float(self._rng.standard_normal())
                yield fl.compute(max(0.0, cfg.scf_compute_per_record_s * jitter))
            yield fl.compute(cfg.scf_pass_compute_s)

        probe = [fl.seek(fd, 0), fl.read(fd, cfg.integral_record_bytes)]
        for scf_pass in range(cfg.scf_passes):
            yield from self.phase(
                ("pscf", scf_pass), node, mod, probe, partial(sweep, scf_pass)
            )
            if node0:
                yield from self._aux_slice(aux_state, scf_pass + 1, slices)
        yield from fs.close(node, fd)
        if node0:
            yield from self._aux_slice(aux_state, slices - 1, slices)
            self.mark("end")


@dataclass
class HTFResult:
    """Traces of the three pipeline programs."""

    psetup: Trace
    pargos: Trace
    pscf: Trace

    def programs(self) -> dict[str, Trace]:
        return {"psetup": self.psetup, "pargos": self.pargos, "pscf": self.pscf}


@dataclass
class HartreeFock:
    """Runs the three-program pipeline on one machine, tracing each
    through ``capture(pfs)`` (the run assembly's capture factory; a bare
    :class:`InstrumentedPFS` by default)."""

    machine: Paragon
    pfs: PFS
    config: HTFConfig = field(default_factory=HTFConfig)
    capture: Callable[[PFS], InstrumentedPFS] = InstrumentedPFS

    def run(self) -> HTFResult:
        """Execute psetup, pargos, pscf sequentially; three traces."""
        traces = []
        for cls in (Psetup, Pargos, Pscf):
            app = cls(machine=self.machine, fs=self.capture(self.pfs), config=self.config)
            traces.append(app.run())
        return HTFResult(*traces)
