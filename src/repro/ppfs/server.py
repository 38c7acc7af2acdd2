"""PPFS — the portable parallel file system with tunable policies.

A drop-in for :class:`repro.pfs.PFS` (the application skeletons and the
Pablo capture layer work unchanged) that adds the policy layer of the
paper's PPFS (§5.2, §9, §10):

* **client block caching** with LRU/MRU replacement,
* **prefetching** — fixed sequential readahead or the adaptive Markov
  pattern predictor,
* **write-behind** — writes complete into buffers at memory speed,
* **global request aggregation** — pending writes coalesce into large
  contiguous transfers before touching the I/O nodes.

Policy handling applies to plain-pointer modes (M_UNIX / M_ASYNC); the
coordinated PFS modes (shared pointers, fixed records, collective) pass
through to the base implementation unchanged.
"""

from __future__ import annotations

from typing import Optional

from ..machine.paragon import Paragon
from ..pablo.events import Op
from ..pfs.costs import CostModel
from ..pfs.errors import PFSError
from ..pfs.filesystem import PFS, SEEK_SET
from ..sim.core import Timeout
from ..spans.record import LEAF_CACHE_HIT, LEAF_CACHE_MISS, LEAF_WB_ENQUEUE
from .adaptive import MarkovPredictor
from .cache import BlockCache, CacheStats
from .policies import PPFSPolicies
from .prefetch import NoPrefetcher, SequentialPrefetcher
from .writebehind import WriteBehindManager

__all__ = ["PPFS"]


class PPFS(PFS):
    """Policy-driven parallel file system (see module docstring)."""

    def __init__(
        self,
        machine: Paragon,
        policies: Optional[PPFSPolicies] = None,
        costs: Optional[CostModel] = None,
        track_content: bool = False,
    ):
        super().__init__(machine, costs, track_content)
        self.policies = policies or PPFSPolicies()
        self._caches: dict[int, BlockCache] = {}
        pol = self.policies
        if pol.prefetch == "sequential":
            self.prefetcher = SequentialPrefetcher(pol.prefetch_depth)
        elif pol.prefetch == "adaptive":
            self.prefetcher = MarkovPredictor(depth=pol.prefetch_depth)
        else:
            self.prefetcher = NoPrefetcher()
        self._prefetch_on = not isinstance(self.prefetcher, NoPrefetcher)
        if pol.server_cache_blocks:
            self._route = self._server_route
        self.writeback = WriteBehindManager(self) if pol.write_behind else None
        # Second-level (I/O-node) caches, shared across clients (§8).
        self._server_caches: dict[int, BlockCache] = {}
        #: Staged prefetches whose fan-out has not completed (sampled by
        #: telemetry).
        self.prefetch_inflight = 0

    # -- two-level buffering -----------------------------------------------------
    def server_cache(self, ionode: int) -> Optional[BlockCache]:
        """The shared cache at one I/O node (None when disabled)."""
        if self.policies.server_cache_blocks == 0:
            return None
        cache = self._server_caches.get(ionode)
        if cache is None:
            cache = BlockCache(self.policies.server_cache_blocks, "lru")
            self._server_caches[ionode] = cache
            # A restarted I/O node comes back with cold memory: drop the
            # cache contents (stats survive) so post-restart reads go to
            # disk, as they would on real hardware.
            self.machine.ionodes[ionode].on_restart(
                lambda _ion, cache=cache: cache.clear()
            )
        return cache

    def server_cache_stats(self):
        """Aggregated hit/miss counts across the I/O-node caches."""
        total = CacheStats()
        for cache in self._server_caches.values():
            total.merge(cache.stats)
        return total

    def _server_route(self, f, chunk, is_write: bool, parent: float):
        """The shared I/O-node caches' rule for one chunk, as ``(hit_s,
        fill)`` for :meth:`PFS._send`; decided when the chunk is sent.

        A read chunk fully resident in the serving node's cache is a hit:
        a control submission of ``server_cache_hit_s`` (CPU + queueing,
        no disk motion), which eager nodes fold like any other chunk.  A
        miss serves from disk and ``fill`` populates the cache once its
        service succeeds; writes go through to disk and refresh the
        cached blocks the same way (write-through at the second level —
        write-behind buffering is the client-side policy's job).
        """
        cache = self.server_cache(chunk.ionode)
        block = self.policies.server_cache_block_bytes
        file_id = f.file_id
        first = chunk.disk_offset // block
        last = (chunk.disk_offset + chunk.nbytes - 1) // block
        if not is_write and cache.lookup_range(file_id, first, last):
            spans = self.spans
            if spans is not None:
                now = self.env.now
                spans.add("scache.hit", chunk.ionode, now, now, parent, chunk.nbytes)
            return self.policies.server_cache_hit_s, None

        def fill(ev):
            if ev._ok:
                cache.insert_range(file_id, first, last)

        return None, fill

    # -- helpers ---------------------------------------------------------------
    def cache_for(self, node: int) -> Optional[BlockCache]:
        """The node's block cache (None when caching is disabled)."""
        if self.policies.cache_blocks == 0:
            return None
        cache = self._caches.get(node)
        if cache is None:
            cache = BlockCache(self.policies.cache_blocks, self.policies.cache_policy)
            self._caches[node] = cache
        return cache

    def cache_stats(self):
        """Aggregated hit/miss counts across all node caches."""
        total = CacheStats()
        for cache in self._caches.values():
            total.merge(cache.stats)
        return total

    def fluid_ok(self, f) -> bool:
        """Decline closed-form pricing whenever a policy layer interposes.

        Client caches, second-level (I/O-node) caches, prefetching, and
        write-behind all carry state that feeds back into request timing
        and ordering — the fluid solver cannot reproduce them, so any
        active policy forces the discrete path (see :mod:`repro.sim.fluid`).
        """
        if not super().fluid_ok(f):
            return False
        pol = self.policies
        return not (
            pol.cache_blocks
            or pol.server_cache_blocks
            or self._prefetch_on
            or self.writeback is not None
        )

    def _plain(self, f) -> bool:
        """True for modes the policy layer handles.

        Burst-tier files on a buffered machine also fall through to the
        base paths: caching/write-behind in front of the burst-buffer log
        would double-buffer checkpoint data the log already absorbs.
        """
        if f.burst_tier and self._bb is not None:
            return False
        return not (f.sem.shared_pointer or f.sem.fixed_records or f.sem.collective)

    # -- read path ---------------------------------------------------------------
    def read(self, node: int, fd: int, nbytes: int, data_out: bool = False):
        entry = self._entry(node, fd)
        f = entry.file
        cache = self.cache_for(node)
        if cache is None or not self._plain(f) or nbytes < 0:
            result = yield from super().read(node, fd, nbytes, data_out)
            return result

        c = self.costs
        env = self.env
        spans = self.spans
        began = env.now
        yield from self._perturb()
        yield Timeout(env, c.client_op_overhead_s)
        offset = f.tell(entry)
        count = f.readable_bytes(offset, nbytes)
        block_size = self.policies.cache_block_bytes
        if count:
            file_id = f.file_id
            first = offset // block_size
            last = (offset + count - 1) // block_size
            if first == last:
                # Single-block request (the common shape for small
                # sequential readers): one lookup, one fetch on miss —
                # identical stats/recency/transfer behaviour to the run
                # machinery below, without building any lists.
                if not cache.lookup(file_id, first):
                    start = first * block_size
                    length = f.readable_bytes(start, block_size)
                    t0 = env.now
                    yield self._fanout(node, f, start, length, False)
                    yield Timeout(env, length * c.client_byte_cost_s)
                    cache.insert(file_id, first, prefetched=False)
                    if spans is not None:
                        spans.leaf_raw.append(
                            (LEAF_CACHE_MISS, node, t0, env.now, length)
                        )
                elif spans is not None:
                    spans.leaf_raw.append(
                        (LEAF_CACHE_HIT, node, env.now, env.now, count)
                    )
            else:
                # Gather misses; fetch contiguous miss runs as single
                # transfers.
                missing = cache.missing_in_range(file_id, first, last)
                run_start = None
                prev = None
                runs: list[tuple[int, int]] = []
                for b in missing:
                    if run_start is None:
                        run_start = prev = b
                    elif b == prev + 1:
                        prev = b
                    else:
                        runs.append((run_start, prev))
                        run_start = prev = b
                if run_start is not None:
                    runs.append((run_start, prev))
                if spans is not None and not runs:
                    spans.leaf_raw.append(
                        (LEAF_CACHE_HIT, node, env.now, env.now, count)
                    )
                for lo, hi in runs:
                    start = lo * block_size
                    length = f.readable_bytes(start, (hi - lo + 1) * block_size)
                    # _transfer's body, inlined (same yields, no delegated
                    # generator per run).
                    t0 = env.now
                    yield self._fanout(node, f, start, length, False)
                    yield Timeout(env, length * c.client_byte_cost_s)
                    cache.insert_range(file_id, lo, hi, prefetched=False)
                    if spans is not None:
                        spans.leaf_raw.append(
                            (LEAF_CACHE_MISS, node, t0, env.now, length)
                        )
            if self._prefetch_on:
                # Demand-access prediction: stage predicted blocks
                # off-thread.
                stream = (node, file_id)
                predicted = self.prefetcher.observe(stream, last)
                file_blocks = -(-f.size // block_size) if f.size else 0
                for b in predicted:
                    if 0 <= b < file_blocks and (file_id, b) not in cache:
                        self._stage_block(node, f, b, cache)
        f.advance(entry, count)
        entry.last_op_offset = offset
        telem = self.telemetry
        if telem is not None:
            telem.reads += 1
            telem.read_bytes += count
        self._emit(began, node, Op.READ, f.file_id, offset, count, env.now - began)
        if data_out:
            return count, f.read_content(offset, count) if f.track_content else b""
        return count

    def _stage_block(self, node: int, f, block: int, cache: BlockCache) -> None:
        """Background prefetch of one block into the node's cache.

        Issues the striped fan-out directly and chains the client-copy
        cost and the cache insert as callbacks — no wrapper Process per
        staged block.  The insert lands at fan-out completion plus the
        client byte cost, exactly when the old ``_transfer``-driven fetch
        generator inserted it.
        """
        block_size = self.policies.cache_block_bytes
        start = block * block_size
        length = f.readable_bytes(start, block_size)
        if length <= 0:
            return
        env = self.env
        file_id = f.file_id
        copy_s = length * self.costs.client_byte_cost_s
        self.prefetch_inflight += 1
        spans = self.spans
        if spans is not None:
            # Root span: the staged fetch outlives the read op that
            # predicted it, so it cannot nest under the op span.
            psid = spans.store.begin("prefetch.stage", node, env.now, nbytes=length)
            spans.fanout_parent = psid
        else:
            psid = -1

        def _landed(_ev):
            cache.insert(file_id, block, prefetched=True)
            if psid >= 0:
                spans.store.finish(psid, env.now)

        def _fetched(_ev):
            self.prefetch_inflight -= 1
            if not _ev._ok:
                if psid >= 0:
                    spans.store.finish(psid, env.now)
                return  # prefetch lost to a fatal I/O error: just skip it
            Timeout(env, copy_s).callbacks.append(_landed)

        self._fanout(node, f, start, length, is_write=False).callbacks.append(_fetched)

    # -- write path ----------------------------------------------------------------
    def write(self, node: int, fd: int, nbytes: int, data=None):
        entry = self._entry(node, fd)
        f = entry.file
        if self.writeback is None or not self._plain(f) or nbytes < 0:
            result = yield from super().write(node, fd, nbytes, data)
            return result
        env = self.env
        began = env.now
        yield from self._perturb()
        if data is not None and len(data) != nbytes:
            raise PFSError(f"data length {len(data)} != nbytes {nbytes}")
        f.check_record(nbytes)
        c = self.costs
        telem = self.telemetry
        if telem is not None:
            telem.writes += 1
            telem.write_bytes += nbytes
        # Complete at memory speed: overhead + buffer copy.
        t0 = env.now
        yield Timeout(env, c.client_op_overhead_s + nbytes * c.client_byte_cost_s)
        spans = self.spans
        if spans is not None:
            spans.leaf_raw.append((LEAF_WB_ENQUEUE, node, t0, env.now, nbytes))
        offset = f.tell(entry)
        cache = self.cache_for(node)
        if cache is not None and nbytes:
            block_size = self.policies.cache_block_bytes
            cache.invalidate_range(
                f.file_id, offset // block_size, (offset + nbytes - 1) // block_size
            )
        if f.track_content and data is not None:
            f.write_content(offset, data)
        self.writeback.submit(f, offset, nbytes)
        f.note_write(node, offset, nbytes)
        f.advance(entry, nbytes)
        entry.last_op_offset = offset
        self._emit(began, node, Op.WRITE, f.file_id, offset, nbytes, env.now - began)
        return nbytes

    # -- seek ------------------------------------------------------------------------
    def seek(self, node: int, fd: int, offset: int, whence: int = SEEK_SET,
             traced: bool = True):
        entry = self._entry(node, fd)
        f = entry.file
        if self.writeback is None or not self._plain(f):
            result = yield from super().seek(node, fd, offset, whence, traced)
            return result
        before = f.tell(entry)
        env = self.env
        began = env.now
        if traced:
            yield from self._perturb()
        # PPFS seeks are client-local: no shared-file token round trip.
        target = self._seek_target(entry, offset, whence)
        telem = self.telemetry
        if telem is not None:
            telem.seeks += 1
        yield Timeout(env, self.costs.client_op_overhead_s)
        f.set_pointer(entry, target)
        if traced:
            self._emit(began, node, Op.SEEK, f.file_id, target, abs(target - before),
                       env.now - began)
        return target
