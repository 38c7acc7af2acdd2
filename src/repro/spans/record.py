"""Span recorder: the causal-context handle threaded through the stack.

One :class:`SpanRecorder` instance is attached per experiment (mirroring
:class:`repro.telemetry.runtime.Telemetry`): ``attach`` plants it as the
``spans`` attribute on the filesystem, machine, write-behind buffer and
burst buffer, and as ``_spans`` on every I/O node.  Every hook site in
the request path pays exactly one ``is not None`` check when recording
is off, so spans-off runs stay byte-identical and zero-cost.

Recording discipline
--------------------
The guiding rule is that *nothing is recorded twice and almost nothing
is recorded in the event loop*:

* **Root op spans are not recorded at all during the run.**  Every
  app-level call already lands one row in the Pablo capture trace (paid
  identically in spans-off runs), so :meth:`finalize` synthesizes the
  ``op.*`` root spans vectorially from the trace's columnar arrays —
  the per-op cost of spans-on at the capture layer is zero.
* Leaf waits (token/sync waits, barriers, cache hits/misses,
  write-behind enqueues, burst-buffer absorbs) append one 5-tuple
  onto the ``leaf_raw`` staging list — their parent is never stored
  at all: a leaf always belongs to *the op executing on its node at
  its start time*, which :meth:`finalize` resolves by containment
  (machine-wide waits on node ``-1`` stay roots, since no op runs
  there).
* The two high-rate interior sites — mesh chunk sends in
  ``PFS._fanout`` and per-request service at the I/O nodes — append
  one small tuple onto a staging list (``mesh_raw`` / ``ion_raw``)
  and are expanded into span rows *vectorially* at :meth:`finalize`
  (one ``np.array`` over the whole list), including the per-request
  disk decomposition (seek vs rotation+transfer vs degraded-mode
  penalty) recomputed in closed form from the head position captured
  before service.  A ``list.append`` of a tuple is the cheapest
  per-record operation CPython offers, and the conversion cost lands
  in the lazy finalize, outside the simulation loop.  Every queue
  stages one ``ion_raw`` row per request, at its submit position and
  carrying its service time, so the rows never depend on the engine.
* Truly low-rate spans (retries, faults, fluid plans, background
  flush/drain lifetimes) go straight into the columnar
  :class:`~repro.spans.store.SpanStore` (itself staged — a scalar
  insert is one C-level ``array('d').extend``).

Causal links to the (synthesized, so not-yet-existing) op roots use a
deferred encoding: a child recorded with parent ``-(node + 2)`` means
*"the op executing on compute node ``node`` at my start time"*, and
:meth:`finalize` resolves those by interval containment against the
synthesized per-node op timelines (ops on one node never overlap).
Async boundaries, where the issuing op may already have returned, pass
the parent explicitly: ``IONode.submit``/``submit_control``/
``submit_batch`` take a ``span_parent`` argument (a real sid or the
deferred encoding, threaded through the fan-out arrival closures, the
write-behind flusher, and the retry layer), and one one-shot slot
remains:

* ``fanout_parent`` — set by async issuers (``aread``'s background
  transfer, write-behind flushes, burst-buffer drains) whose chunk
  fan-out runs outside any op's lifetime; when unset, the fan-out
  parent falls back to the deferred node encoding above.
"""

from __future__ import annotations

import numpy as np

from .store import SpanStore

__all__ = ["SpanRecorder"]

_EPS_DEGRADED = 1e-9

#: Span kinds for synthesized op roots, indexed by ``pablo.events.Op``
#: code (codes past this table — FAULT/RETRY/DEGRADED — are resilience
#: rows, not application calls, and get no op span).
_OP_KINDS = (
    "op.open",
    "op.close",
    "op.read",
    "op.write",
    "op.seek",
    "op.aread",
    "op.iowait",
    "op.lsize",
    "op.flush",
)

#: Leaf-wait kinds staged through ``leaf_raw``; the float codes are
#: module constants so hook sites pay one tuple + one ``list.append``
#: per span with no wrapper frame and no kind-string lookup.
_LEAF_KINDS = (
    "sync.wait",
    "token.order",
    "token.write",
    "token.seek",
    "mesh.bcast",
    "bb.absorb",
    "barrier.wait",
    "bcast.wait",
    "bb.readbarrier",
    "cache.hit",
    "cache.miss",
    "wb.enqueue",
)
(
    LEAF_SYNC_WAIT,
    LEAF_TOKEN_ORDER,
    LEAF_TOKEN_WRITE,
    LEAF_TOKEN_SEEK,
    LEAF_MESH_BCAST,
    LEAF_BB_ABSORB,
    LEAF_BARRIER_WAIT,
    LEAF_BCAST_WAIT,
    LEAF_BB_READBARRIER,
    LEAF_CACHE_HIT,
    LEAF_CACHE_MISS,
    LEAF_WB_ENQUEUE,
) = (float(i) for i in range(len(_LEAF_KINDS)))
_LEAF_CODES = {kind: float(i) for i, kind in enumerate(_LEAF_KINDS)}


class SpanRecorder:
    """Records causal span trees for one experiment run."""

    __slots__ = (
        "_store",
        "env",
        "fanout_parent",
        "ion_raw",
        "mesh_raw",
        "leaf_raw",
        "add",
        "_ion_params",
        "_op_index",
        "_finalized",
        "_traces",
        "_sealed",
        "_barrier_base",
    )

    def __init__(self) -> None:
        self._store = SpanStore()
        self.env = None
        #: One-shot parent slot consumed by the next ``PFS._fanout`` call
        #: (set by async issuers like ``aread``'s background transfer).
        self.fanout_parent = -1
        #: Staged (parent, ion, arrival, service, end, offset, nbytes,
        #: extra_s, head, write) tuples in submit order; a negative head
        #: marks a control request, and a slot left None a request that
        #: failed before service.  Expanded at finalize.
        self.ion_raw: list = []
        #: Staged (parent, node, t0, t1, nbytes) mesh-send tuples.
        self.mesh_raw: list = []
        #: Staged (code, node, t0, t1, nbytes) leaf-wait tuples; parent
        #: is implicit (containment against the op timelines).
        self.leaf_raw: list = []
        #: Direct (low-rate) scalar insert — the store's own method, bound
        #: here so hook sites skip a wrapper frame per span.
        self.add = self._store.add
        self._ion_params: dict[str, np.ndarray] | None = None
        #: (node, start, end, sid) of synthesized op roots, node-major
        #: then start-sorted, for deferred-parent containment lookups.
        self._op_index: tuple | None = None
        self._finalized = False
        self._traces = None
        self._sealed = False
        self._barrier_base = 0.0

    @property
    def store(self) -> SpanStore:
        """The span store; materializes pending finalize work lazily.

        Mirrors the Trace staging discipline — the expansion waves land
        when an analysis consumer first reads the store, not inside the
        timed simulation loop.
        """
        if self._sealed and not self._finalized:
            self.finalize(self._traces)
        return self._store

    def seal(self, traces=None) -> None:
        """Mark the run complete; finalize runs lazily on first
        :attr:`store` access."""
        self._traces = traces
        self._sealed = True

    # -- wiring ---------------------------------------------------------------
    def attach(self, machine, fs) -> "SpanRecorder":
        """Plant hook handles on every layer of the request path."""
        self.env = machine.env
        fs.spans = self
        machine.spans = self
        for ion in machine.ionodes:
            ion._spans = self
        writeback = fs.writeback
        if writeback is not None:
            writeback.spans = self
        bb = getattr(machine, "burstbuffer", None)
        if bb is not None:
            bb.spans = self
        self._capture_params(machine)
        return self

    def _capture_params(self, machine) -> None:
        """Snapshot per-ionode geometry for the vectorized decomposition."""
        ionodes = list(machine.ionodes)
        n = len(ionodes)
        cols = {
            name: np.zeros(n, dtype=np.float64)
            for name in (
                "req_ovh",
                "ctrl_ovh",
                "data_disks",
                "capacity",
                "min_seek",
                "max_seek",
                "rot",
                "rate",
                "disk_ovh",
            )
        }
        for i, ion in enumerate(ionodes):
            rp = ion.array.params
            dp = rp.disk
            cols["req_ovh"][i] = ion.params.request_overhead_s
            cols["ctrl_ovh"][i] = rp.controller_overhead_s
            cols["data_disks"][i] = rp.data_disks
            cols["capacity"][i] = dp.capacity_bytes
            cols["min_seek"][i] = dp.min_seek_s
            cols["max_seek"][i] = dp.max_seek_s
            cols["rot"][i] = dp.avg_rotational_latency_s
            cols["rate"][i] = dp.transfer_rate_bps
            cols["disk_ovh"][i] = dp.overhead_s
        self._ion_params = cols

    # -- causal parent plumbing -----------------------------------------------
    def take_fanout_parent(self, node: int) -> int:
        """Parent for a fan-out: the one-shot slot if set, else deferred
        to *the op executing on ``node`` at the child's start time*,
        resolved against the synthesized op timeline at finalize."""
        parent = self.fanout_parent
        if parent >= 0:
            self.fanout_parent = -1
            return parent
        return -2 - node

    # -- direct (low-rate) recording ------------------------------------------
    # ``add`` is bound in ``__init__`` straight to ``SpanStore.add`` (same
    # ``(kind, node, start, end, parent, nbytes, aux)`` signature).

    def mark(self, name: str, node: int, when: float) -> int:
        """Zero-length phase-boundary marker (critical-path phase edges)."""
        return self._store.add(f"mark.{name}", node, when, when)

    def alloc_barrier_base(self) -> float:
        """A per-group base offset for barrier generation ids, so two
        groups' generation counters never collide in the encoded
        release keys (see ``AppGroup.barrier``)."""
        base = self._barrier_base
        self._barrier_base = base + 1048576.0
        return base

    def wrap_wait(self, kind: str, node: int, event) -> None:
        """Record a leaf-wait span covering now → when ``event`` fires."""
        code = _LEAF_CODES[kind]
        leaf = self.leaf_raw
        env = self.env
        t0 = env.now
        if getattr(event, "triggered", False):
            leaf.append((code, node, t0, t0, 0.0))
            return

        def _close(_ev):
            leaf.append((code, node, t0, env.now, 0.0))

        event.callbacks.append(_close)

    # -- finalize: synthesize op roots, resolve parents, expand waves ----------
    def finalize(self, traces=None) -> SpanStore:
        """Complete the span forest.

        ``traces`` is the run's ``{program: Trace}`` dict; op root spans
        are synthesized from its columnar event arrays (one per capture
        row with an application op code), then every deferred
        ``-(node + 2)`` parent — scalar, mesh, and ion alike — is
        resolved by containment against the per-node op timelines.
        """
        if traces is None:
            traces = self._traces
        if not self._finalized:
            self._finalized = True
            n_ops = sum(len(t.events) for t in (traces or {}).values())
            self._store.reserve(
                n_ops
                + len(self.leaf_raw)
                + len(self.mesh_raw)
                + 6 * len(self.ion_raw)
            )
            self._synth_ops(traces)
            self._resolve_scalar()
            self._expand_leaf()
            self._expand_mesh()
            self._expand_ion()
            if self.env is not None:
                self._store.close_open(self.env.now)
        return self._store

    def _synth_ops(self, traces) -> None:
        """Vectorially append ``op.*`` root spans from the capture traces."""
        nodes, starts, ends, sids = [], [], [], []
        store = self._store
        opcodes = np.full(len(_OP_KINDS), -1.0)
        for trace in (traces or {}).values():
            events = trace.events
            if len(events) == 0:
                continue
            op = events["op"]
            m = op < len(_OP_KINDS)
            if not m.any():
                continue
            # Intern present kinds in first-occurrence row order so the
            # kind table round-trips bit-exactly through row-ordered
            # serializations.
            vals, first = np.unique(op[m], return_index=True)
            for c in vals[np.argsort(first)]:
                opcodes[c] = store.kind_code(_OP_KINDS[int(c)])
            node = events["node"][m].astype(np.float64)
            t0 = events["timestamp"][m]
            t1 = t0 + events["duration"][m]
            nbytes = events["nbytes"][m].astype(np.float64)
            sid = store.extend_coded(opcodes[op[m]], -1.0, node, t0, t1, nbytes)
            nodes.append(node)
            starts.append(t0)
            ends.append(t1)
            sids.append(sid.astype(np.float64))
        if nodes:
            node = np.concatenate(nodes)
            start = np.concatenate(starts)
            order = np.lexsort((start, node))
            self._op_index = (
                node[order],
                start[order],
                np.concatenate(ends)[order],
                np.concatenate(sids)[order],
            )

    def _containing_ops(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Sid of the op running on each ``nodes[i]`` at ``times[i]`` (-1
        if none — ops on one node never overlap, so containment is
        unambiguous).

        One searchsorted over a composite ``node * big + start`` key
        (the op index is node-major, start-minor, so the key is
        monotone for any ``big`` exceeding every timestamp).
        """
        if self._op_index is None or len(times) == 0:
            return np.full(len(times), -1.0)
        onode, ostart, oend, osid = self._op_index
        big = max(float(ostart[-1]), float(oend.max()), float(times.max())) + 1.0
        pos = np.searchsorted(onode * big + ostart, nodes * big + times, side="right") - 1
        cand = np.maximum(pos, 0)
        # Half-open [start, end) containment: a span starting exactly when
        # an op ends (same-timestamp zero-delay hops, app-level collectives
        # right after an I/O call returns) belongs outside it.
        inside = (pos >= 0) & (onode[cand] == nodes) & (times < oend[cand])
        return np.where(inside, osid[cand], -1.0)

    def _expand_leaf(self) -> None:
        if not self.leaf_raw:
            return
        raw = np.array(self.leaf_raw, dtype=np.float64)
        self.leaf_raw = []
        code, node, t0, t1, nbytes = raw.T
        # Barrier waits carry an encoded release key ``-(generation id
        # + 1)`` in the end slot: the barrier releases at its last
        # arrival's timestamp, so the real end is the generation's max
        # start (resolved here instead of a per-waiter event callback).
        pend = t1 < 0.0
        if pend.any():
            pend_t0 = t0[pend]
            uniq, inv = np.unique(t1[pend], return_inverse=True)
            release = np.full(len(uniq), -np.inf)
            np.maximum.at(release, inv, pend_t0)
            t1[pend] = release[inv]
        parent = self._containing_ops(node, t0)
        store = self._store
        leafcodes = np.full(len(_LEAF_KINDS), -1.0)
        code = code.astype(np.intp)
        vals, first = np.unique(code, return_index=True)
        for c in vals[np.argsort(first)]:
            leafcodes[c] = store.kind_code(_LEAF_KINDS[int(c)])
        store.extend_coded(leafcodes[code], parent, node, t0, t1, nbytes)

    def _resolved(self, parent: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Copy of ``parent`` with deferred ``-(node + 2)`` encodings
        resolved (see :meth:`take_fanout_parent`)."""
        mask = parent < -1.5
        if not mask.any():
            return parent
        parent = parent.copy()
        parent[mask] = self._containing_ops(-parent[mask] - 2.0, start[mask])
        return parent

    def _resolve_scalar(self) -> None:
        """Resolve deferred parents recorded through direct scalar adds."""
        rows = self._store.rows
        if len(rows) == 0:
            return
        parent = rows[:, 0]
        mask = parent < -1.5
        if mask.any():
            parent[mask] = self._containing_ops(
                -parent[mask] - 2.0, rows[mask, 3]
            )

    def _expand_mesh(self) -> None:
        if not self.mesh_raw:
            return
        raw = np.array(self.mesh_raw, dtype=np.float64)
        self.mesh_raw = []
        parent, node, t0, t1, nbytes = raw.T
        self._store.extend("mesh.send", self._resolved(parent, t0), node, t0, t1, nbytes)

    def _expand_ion(self) -> None:
        # Slots still None are requests failed before service.
        rows = list(filter(None, self.ion_raw))
        self.ion_raw = []
        if not rows:
            return
        raw = np.array(rows, dtype=np.float64)
        parent, ion, arrival, service, end, offset, nbytes, extra, head, wr = raw.T
        parent = self._resolved(parent, arrival)
        # Both queues stage the service, not its start: ``end - service``
        # is the one start convention.  It can land one ulp outside
        # [arrival, end]; clamp so the queue/service split always tiles
        # the request interval exactly.
        start = np.clip(end - service, arrival, end)
        store = self._store
        req = store.extend("ion.request", parent, ion, arrival, end, nbytes, wr)
        store.extend("ion.queue", req, ion, arrival, start, nbytes)
        data = head >= -0.5
        if bool(data.any()):
            sid = store.extend(
                "ion.service", req[data], ion[data], start[data], end[data], nbytes[data]
            )
            self._expand_disk(sid, ion[data], start[data], end[data],
                              offset[data], nbytes[data], extra[data], head[data])
        ctl = ~data
        if bool(ctl.any()):
            store.extend("ion.control", req[ctl], ion[ctl], start[ctl], end[ctl])

    def _expand_disk(self, sid, ion, start, end, offset, nbytes, extra, head) -> None:
        """Closed-form seek / rotation+transfer / degraded-penalty split.

        Recomputes the healthy disk model from the head position captured
        just before service; whatever the observed service exceeds the
        healthy total by is the degraded-mode (or fail-slow) penalty.
        """
        p = self._ion_params
        idx = ion.astype(np.int64)
        dd = p["data_disks"][idx]
        per_off = np.floor(offset / dd)
        per_b = np.ceil(nbytes / dd)
        dist = np.abs(per_off - head)
        frac = np.minimum(1.0, dist / p["capacity"][idx])
        mins = p["min_seek"][idx]
        seek = np.where(dist > 0, mins + (p["max_seek"][idx] - mins) * np.sqrt(frac), 0.0)
        xfer = np.where(per_b > 0, p["rot"][idx] + per_b / p["rate"][idx], 0.0)
        healthy = seek + xfer + p["disk_ovh"][idx] + p["req_ovh"][idx] + p["ctrl_ovh"][idx] + extra
        degraded = (end - start) - healthy
        degraded[degraded < _EPS_DEGRADED] = 0.0
        store = self._store
        store.extend("disk.seek", sid, ion, start, start + seek)
        store.extend("disk.xfer", sid, ion, start + seek, start + seek + xfer, nbytes)
        dmask = degraded > 0.0
        if bool(dmask.any()):
            store.extend(
                "raid.degraded",
                sid[dmask],
                ion[dmask],
                end[dmask] - degraded[dmask],
                end[dmask],
            )
