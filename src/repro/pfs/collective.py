"""Collective-I/O strategies (§8).

The paper: "Such I/O patterns could be expressed as collective
operations [1, 5, 11] to allow the filesystem to optimize performance."
This module implements the strategy space those references span, for the
canonical pattern in the study — N nodes loading a block-cyclically
distributed file:

* **independent** — every rank seeks and reads each of its own blocks
  (many small strided requests; the naive expression);
* **root-broadcast** — rank 0 reads the whole file sequentially and
  broadcasts (what ESCAT and RENDER actually did, §5.2/§6.2);
* **two-phase** — ranks read large *contiguous* shares in parallel, then
  redistribute over the mesh to the block-cyclic target (Bordawekar,
  del Rosario & Choudhary [1]);
* **disk-directed** — the I/O nodes stream their resident stripes
  directly to the clients in one pass (Kotz [11]); clients receive in
  parallel.

:func:`collective_read` runs one strategy to completion and reports wall
time plus operation counts, so the strategies are directly comparable on
identical machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .filesystem import PFS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..machine.paragon import Paragon

__all__ = ["CollectiveResult", "STRATEGIES", "collective_read"]

STRATEGIES = ("independent", "root-broadcast", "two-phase", "disk-directed")


@dataclass(frozen=True)
class CollectiveResult:
    """Outcome of one collective read."""

    strategy: str
    wall_s: float
    application_requests: int
    ionode_requests: int
    bytes_read: int


def _blocks_of(rank: int, nranks: int, n_blocks: int) -> list[int]:
    """Block-cyclic ownership: rank r owns blocks r, r+N, r+2N, ..."""
    return list(range(rank, n_blocks, nranks))


def collective_read(
    machine: Paragon,
    fs: PFS,
    path: str,
    nranks: int,
    total_bytes: int,
    block_bytes: int,
    strategy: str,
) -> CollectiveResult:
    """Load a block-cyclic file collectively; returns timing + op counts.

    The file must exist (``fs.ensure``) with at least ``total_bytes``.
    Runs the simulation to completion (call on an otherwise idle machine).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if total_bytes % block_bytes:
        raise ValueError("block_bytes must divide total_bytes")
    if nranks < 1 or nranks > machine.config.compute_nodes:
        raise ValueError(f"bad rank count {nranks}")
    n_blocks = total_bytes // block_bytes
    env = machine.env
    served_before = sum(ion.requests_served for ion in machine.ionodes)
    app_requests = 0
    start = env.now

    if strategy == "independent":
        def rank_main(rank):
            nonlocal app_requests
            fd = yield from fs.open(rank, path)
            for block in _blocks_of(rank, nranks, n_blocks):
                yield from fs.seek(rank, fd, block * block_bytes)
                got = yield from fs.read(rank, fd, block_bytes)
                assert got == block_bytes
                app_requests += 1
            yield from fs.close(rank, fd)

        procs = [env.process(rank_main(r)) for r in range(nranks)]

    elif strategy == "root-broadcast":
        def root():
            nonlocal app_requests
            fd = yield from fs.open(0, path)
            got = 0
            chunk = 4 * 1024 * 1024
            while got < total_bytes:
                got += yield from fs.read(0, fd, min(chunk, total_bytes - got))
                app_requests += 1
            yield from fs.close(0, fd)
            yield env.timeout(
                machine.mesh.broadcast_time(0, nranks, total_bytes)
            )

        procs = [env.process(root())]

    elif strategy == "two-phase":
        share = total_bytes // nranks

        def rank_main(rank):
            nonlocal app_requests
            fd = yield from fs.open(rank, path)
            yield from fs.seek(rank, fd, rank * share)
            got = yield from fs.read(rank, fd, share)
            assert got == share
            app_requests += 1
            yield from fs.close(rank, fd)
            # Phase two: all-to-all redistribution to block-cyclic
            # ownership; each rank exchanges (N-1)/N of its share.
            exchanged = share * (nranks - 1) // max(nranks, 1)
            p = machine.mesh.params
            yield env.timeout(
                (nranks - 1) * p.latency_s + exchanged / p.bandwidth_bps
            )

        procs = [env.process(rank_main(r)) for r in range(nranks)]

    else:  # disk-directed
        layout = fs.lookup(path).layout
        shares = layout.span_bytes(0, total_bytes)

        def ionode_stream(index, nbytes):
            # One continuous pass over the I/O node's resident portion.
            ion = machine.ionodes[index]
            base = layout.disk_address(0)
            yield ion.submit(base, nbytes, False, fs._chunk_extra(nbytes, False))

        def client(rank):
            # Clients receive their share in parallel (mesh + copy).
            nbytes = total_bytes // nranks
            p = machine.mesh.params
            yield env.timeout(
                p.latency_s
                + nbytes / p.bandwidth_bps
                + nbytes * fs.costs.client_byte_cost_s
            )

        procs = [
            env.process(ionode_stream(i, nbytes))
            for i, nbytes in shares.items()
        ] + [env.process(client(r)) for r in range(nranks)]
        app_requests = nranks  # one collective call per rank

    machine.run()
    for p in procs:
        if p.is_alive:
            raise RuntimeError(f"collective read deadlocked ({strategy})")
        if not p.ok:
            raise p.value
    return CollectiveResult(
        strategy=strategy,
        wall_s=env.now - start,
        application_requests=app_requests,
        ionode_requests=sum(i.requests_served for i in machine.ionodes) - served_before,
        bytes_read=total_bytes,
    )
