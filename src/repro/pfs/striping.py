"""File striping arithmetic.

PFS stripes files across the I/O nodes in 64 KB units (§3.2), round-robin
starting from a per-file first I/O node.  This module is pure math — the
filesystem uses it to decompose a logical extent into per-I/O-node chunks
and to map logical offsets to physical disk addresses.

All functions are deterministic; the decomposition/reassembly pair is a
bijection (property-tested), which is what guarantees the simulated data
path touches exactly the bytes the application asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.units import STRIPE_UNIT
from ..util.validation import check_nonneg, check_positive

__all__ = ["StripeLayout", "Chunk", "CHUNK_DTYPE"]

#: Columnar chunk record, one row per :class:`Chunk`, produced by
#: :meth:`StripeLayout.decompose_batch` for the vectorized service path.
CHUNK_DTYPE = np.dtype(
    [
        ("ionode", np.int64),
        ("disk_offset", np.int64),
        ("nbytes", np.int64),
        ("logical_offset", np.int64),
    ]
)


@dataclass(frozen=True)
class Chunk:
    """One per-I/O-node piece of a logical extent.

    Attributes
    ----------
    ionode:
        Index of the serving I/O node.
    disk_offset:
        Physical byte address on that I/O node's array.
    nbytes:
        Length of the piece.
    logical_offset:
        Where the piece starts in the file's logical byte space.
    """

    ionode: int
    disk_offset: int
    nbytes: int
    logical_offset: int


@dataclass(frozen=True)
class StripeLayout:
    """Striping map for one file.

    Parameters
    ----------
    n_ionodes:
        Number of I/O nodes in the stripe group.
    stripe_unit:
        Bytes per stripe unit (PFS default 64 KB).
    first_ionode:
        I/O node holding stripe 0 (files start on different nodes to
        spread load).
    base:
        Physical base address of this file's region on every I/O node
        (the simple allocator gives each file a contiguous region per
        node).
    """

    n_ionodes: int
    stripe_unit: int = STRIPE_UNIT
    first_ionode: int = 0
    base: int = 0

    def __post_init__(self) -> None:
        check_positive(self.n_ionodes, "n_ionodes")
        check_positive(self.stripe_unit, "stripe_unit")
        check_nonneg(self.base, "base")
        if not 0 <= self.first_ionode < self.n_ionodes:
            raise ValueError(
                f"first_ionode {self.first_ionode} outside 0..{self.n_ionodes - 1}"
            )
        # Decomposition memo: the layout is frozen, so the chunk list for
        # a given (offset, nbytes) never changes — and workloads re-issue
        # the same extents constantly (cyclic scans, synchronized writers,
        # interval flushes of the same runs).  Bounded so pathological
        # offset diversity cannot grow it without limit.
        object.__setattr__(self, "_memo", {})

    # -- point mapping ----------------------------------------------------
    def ionode_of(self, offset: int) -> int:
        """I/O node serving logical byte ``offset``."""
        check_nonneg(offset, "offset")
        stripe = offset // self.stripe_unit
        return (self.first_ionode + stripe) % self.n_ionodes

    def disk_address(self, offset: int) -> int:
        """Physical address of logical byte ``offset`` on its I/O node."""
        check_nonneg(offset, "offset")
        stripe = offset // self.stripe_unit
        local_stripe = stripe // self.n_ionodes
        return self.base + local_stripe * self.stripe_unit + offset % self.stripe_unit

    # -- extent decomposition ----------------------------------------------
    def decompose(self, offset: int, nbytes: int) -> list[Chunk]:
        """Split a logical extent into per-I/O-node chunks.

        Consecutive stripe units landing on the same I/O node (i.e. when
        the extent wraps the whole stripe group) are coalesced into one
        chunk per contiguous physical run, which is how the server-side
        request scheduler would issue them.

        Closed form, O(min(stripe units, I/O nodes)): within one extent
        every stripe unit except the last ends exactly at its unit
        boundary, so all of a node's units coalesce into a single
        physically contiguous chunk — there is never more than one chunk
        per node, and its geometry follows from the first unit alone
        (property-tested against the unit-walk reference).
        """
        if offset < 0:  # inline check_nonneg: per-request hot path
            raise ValueError(f"offset must be >= 0, got {offset!r}")
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        if nbytes == 0:
            return []
        memo = self._memo
        cached = memo.get((offset, nbytes))
        if cached is not None:
            return cached.copy()
        su = self.stripe_unit
        n = self.n_ionodes
        first = self.first_ionode
        base = self.base
        end = offset + nbytes
        u0 = offset // su
        u1 = (end - 1) // su
        span = u1 - u0 + 1
        out: list[Chunk] = []
        for j in range(span if span < n else n):
            u = u0 + j
            start = offset if j == 0 else u * su
            count = (u1 - u) // n + 1  # stripe units on this node
            last_u = u + (count - 1) * n
            stop = end if last_u == u1 else (last_u + 1) * su
            out.append(
                Chunk(
                    ionode=(first + u) % n,
                    disk_offset=base + (u // n) * su + start % su,
                    nbytes=count * su - (start - u * su) - ((last_u + 1) * su - stop),
                    logical_offset=start,
                )
            )
        if len(memo) >= 65536:
            memo.clear()
        memo[(offset, nbytes)] = out
        return out.copy()

    def decompose_batch(
        self, offsets, counts
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`decompose` over many extents in one pass.

        Returns ``(chunks_per_extent, chunks)``: an int64 array giving
        each extent's chunk count, and one :data:`CHUNK_DTYPE` structured
        array holding every chunk, extent-major in the exact order the
        scalar calls would produce.  Zero-length extents contribute zero
        chunks (the scalar path returns ``[]``).
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if offsets.size and int(offsets.min()) < 0:
            raise ValueError("offsets must be >= 0")
        if counts.size and int(counts.min()) < 0:
            raise ValueError("counts must be >= 0")
        su = self.stripe_unit
        n = self.n_ionodes
        ends = offsets + counts
        u0 = offsets // su
        u1 = (ends - 1) // su
        m = np.where(counts > 0, np.minimum(u1 - u0 + 1, n), 0)
        total = int(m.sum())
        chunks = np.empty(total, CHUNK_DTYPE)
        if total == 0:
            return m, chunks
        req = np.repeat(np.arange(len(offsets)), m)
        j = np.arange(total) - np.repeat(np.cumsum(m) - m, m)
        u = u0[req] + j
        start = np.where(j == 0, offsets[req], u * su)
        count = (u1[req] - u) // n + 1
        last_u = u + (count - 1) * n
        stop = np.where(last_u == u1[req], ends[req], (last_u + 1) * su)
        chunks["ionode"] = (self.first_ionode + u) % n
        chunks["disk_offset"] = self.base + (u // n) * su + start % su
        chunks["nbytes"] = count * su - (start - u * su) - ((last_u + 1) * su - stop)
        chunks["logical_offset"] = start
        return m, chunks

    def span_bytes(self, offset: int, nbytes: int) -> dict[int, int]:
        """Bytes of the extent served by each I/O node (for load analyses)."""
        out: dict[int, int] = {}
        for chunk in self.decompose(offset, nbytes):
            out[chunk.ionode] = out.get(chunk.ionode, 0) + chunk.nbytes
        return out

