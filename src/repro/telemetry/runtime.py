"""The telemetry runtime: live counters, attach/sample/finalize lifecycle.

Split of responsibilities:

* :class:`LiveCounters` — a slotted bag of plain numeric attributes that
  hot paths increment behind a single ``is not None`` check.  Attribute
  adds on a slotted object are the cheapest push hook Python offers; the
  disabled path costs exactly one attribute load + identity test.
* :class:`Telemetry` — owns the registry, time-series buffer, sampler,
  and profiler; wires components up in :meth:`attach`, pulls per-sample
  state in :meth:`_sample`, and folds everything into the
  :class:`~repro.telemetry.registry.MetricsRegistry` in :meth:`finalize`.

Sampling is *pull-based*: the sampler reads counters the simulator
already maintains (``IONode.busy_time``, ``CacheStats`` …) plus the live
push counters.  It consumes no RNG draws and never reorders application
events, so traces stay byte-identical with telemetry on or off.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..machine.raid import STATE_CODES
from ..util.validation import check_positive
from .profiler import RunProfiler
from .registry import MetricsRegistry
from .sampler import Sampler
from .series import TimeSeries

__all__ = ["LiveCounters", "Telemetry", "DEFAULT_CADENCE_S"]

#: Default sampling cadence in simulated seconds.  Paper-scale runs span
#: thousands of simulated seconds, so this yields several hundred samples
#: while keeping measured ESCAT overhead below the 5% acceptance budget
#: (see benchmarks/bench_telemetry_overhead.py and docs/OBSERVABILITY.md).
DEFAULT_CADENCE_S = 10.0


class LiveCounters:
    """Plain numeric fields incremented by the instrumentation hooks."""

    __slots__ = (
        "reads",
        "writes",
        "seeks",
        "opens",
        "areads",
        "read_bytes",
        "write_bytes",
        "mesh_msgs",
        "mesh_bytes",
        "retries",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Telemetry:
    """One run's worth of live observability.

    Lifecycle: construct → :meth:`attach` (machine + filesystem) →
    :meth:`start` → simulation runs → :meth:`finalize` → export/report.
    The :class:`~repro.core.experiment.Experiment` harness drives all of
    it when its ``telemetry`` field is set.
    """

    def __init__(self, cadence_s: float = DEFAULT_CADENCE_S):
        check_positive(cadence_s, "cadence_s")
        self.cadence_s = float(cadence_s)
        self.live = LiveCounters()
        self.registry = MetricsRegistry()
        self.profiler = RunProfiler()
        self.series: Optional[TimeSeries] = None
        self.sampler: Optional[Sampler] = None
        self.meta: dict = {}
        self._machine = None
        self._ppfs = None
        self._bb = None
        self._finalized = False

    # -- lifecycle -----------------------------------------------------------
    def attach(self, machine, fs) -> "Telemetry":
        """Install push hooks and build the sampling column layout."""
        with self.profiler.section("telemetry.attach"):
            live = self.live
            machine.mesh.telem = live
            # Bound method, not the histogram: the serve loop then pays one
            # call with no extra attribute lookup per request.
            request_hist = self.registry.histogram("ionode.request_bytes")
            for ionode in machine.ionodes:
                ionode._telem = request_hist.observe
            fs.telemetry = live
            self._machine = machine
            # Policy-layer sections only exist on PPFS.
            self._ppfs = fs if hasattr(fs, "_server_caches") else None
            # Burst-buffer columns only exist on machines with the tier.
            self._bb = getattr(machine, "burstbuffer", None)
            self.series = TimeSeries(self._columns())
            self.sampler = Sampler(machine.env, self.cadence_s, self._sample)
            self.meta.setdefault("cadence_s", self.cadence_s)
            self.meta.setdefault("ionodes", len(machine.ionodes))
            self.meta.setdefault(
                "filesystem", "ppfs" if self._ppfs is not None else "pfs"
            )
        return self

    def start(self) -> None:
        if self.sampler is None:
            raise RuntimeError("attach() must run before start()")
        self.sampler.start()

    # -- sampling ------------------------------------------------------------
    def _columns(self) -> List[str]:
        cols = [
            "time_s",
            "pfs.reads",
            "pfs.writes",
            "pfs.seeks",
            "pfs.opens",
            "pfs.read_bytes",
            "pfs.write_bytes",
            "pfs.retries",
            "mesh.messages",
            "mesh.bytes",
            "disk.requests",
            "disk.seek_bytes",
        ]
        for i in range(len(self._machine.ionodes)):
            cols += [
                f"ionode{i}.queue",
                f"ionode{i}.busy",
                f"ionode{i}.busy_s",
                f"ionode{i}.bytes",
                f"raid{i}.state",
            ]
        if self._ppfs is not None:
            cols += [
                "cache.blocks",
                "cache.hit_rate",
                "server_cache.blocks",
                "server_cache.hit_rate",
                "writebehind.backlog_bytes",
                "writebehind.inflight",
                "prefetch.inflight",
            ]
        if self._bb is not None:
            cols += [
                "bb.occupancy_bytes",
                "bb.absorbed_bytes",
                "bb.drained_bytes",
                "bb.stalls",
                "bb.stall_s",
                "bb.drain_lag_s",
            ]
        return cols

    def _sample(self, now: float) -> None:
        live = self.live
        state_codes = STATE_CODES
        disk_requests = 0
        disk_seek_bytes = 0
        tail: list = []
        push = tail.append
        for ionode in self._machine.ionodes:
            array = ionode.array
            disk_requests += ionode.requests_served
            disk_seek_bytes += array._arm.seek_bytes
            push(ionode.queue_length)
            push(1.0 if ionode.busy else 0.0)
            push(ionode.busy_time)
            push(ionode.bytes_served)
            push(state_codes[array.state])
        row = [
            now,
            live.reads,
            live.writes,
            live.seeks,
            live.opens,
            live.read_bytes,
            live.write_bytes,
            live.retries,
            live.mesh_msgs,
            live.mesh_bytes,
            disk_requests,
            disk_seek_bytes,
        ]
        row += tail
        push = row.append
        ppfs = self._ppfs
        if ppfs is not None:
            blocks = hits = misses = 0
            for cache in ppfs._caches.values():
                blocks += len(cache)
                stats = cache.stats
                hits += stats.hits
                misses += stats.misses
            row += [blocks, hits / (hits + misses) if hits + misses else 0.0]
            blocks = hits = misses = 0
            for cache in ppfs._server_caches.values():
                blocks += len(cache)
                stats = cache.stats
                hits += stats.hits
                misses += stats.misses
            row += [blocks, hits / (hits + misses) if hits + misses else 0.0]
            wb = ppfs.writeback
            if wb is not None:
                row += [wb.backlog_bytes(), wb.inflight_batches]
            else:
                row += [0, 0]
            push(ppfs.prefetch_inflight)
        bb = self._bb
        if bb is not None:
            row += [
                bb.occupancy_bytes,
                bb.bytes_absorbed,
                bb.bytes_drained,
                bb.stalls,
                bb.stall_s,
                bb.oldest_age_s(),
            ]
        self.series.append(row)

    # -- finalization ----------------------------------------------------------
    def finalize(self) -> "Telemetry":
        """Fold live + component state into the registry (idempotent)."""
        if self._finalized:
            return self
        self._finalized = True
        with self.profiler.section("telemetry.finalize"):
            reg = self.registry
            live = self.live
            for name, value in (
                ("pfs.reads", live.reads),
                ("pfs.writes", live.writes),
                ("pfs.seeks", live.seeks),
                ("pfs.opens", live.opens),
                ("pfs.areads", live.areads),
                ("pfs.read_bytes", live.read_bytes),
                ("pfs.write_bytes", live.write_bytes),
                ("pfs.retries", live.retries),
                ("mesh.messages", live.mesh_msgs),
                ("mesh.bytes", live.mesh_bytes),
            ):
                reg.counter(name).value = value
            machine = self._machine
            if machine is not None:
                # Disk-layer totals come from component statistics the
                # machine maintains unconditionally, not from push hooks.
                reg.counter("disk.requests").value = sum(
                    ionode.requests_served for ionode in machine.ionodes
                )
                reg.counter("disk.seek_bytes").value = sum(
                    ionode.array._arm.seek_bytes for ionode in machine.ionodes
                )
                for ionode in machine.ionodes:
                    node = str(ionode.index)
                    reg.counter("ionode.requests_served", node=node).value = (
                        ionode.requests_served
                    )
                    reg.counter("ionode.bytes_served", node=node).value = (
                        ionode.bytes_served
                    )
                    reg.gauge("ionode.busy_s", node=node).set(ionode.busy_time)
                    if machine.env.now > 0:
                        reg.gauge("ionode.utilization", node=node).set(
                            ionode.busy_time / machine.env.now
                        )
            ppfs = self._ppfs
            if ppfs is not None:
                for level, stats in (
                    ("client", ppfs.cache_stats()),
                    ("server", ppfs.server_cache_stats()),
                ):
                    for name, value in stats.as_dict().items():
                        reg.counter(f"cache.{name}", level=level).value = value
                wb = ppfs.writeback
                if wb is not None:
                    reg.counter("writebehind.writes_submitted").value = (
                        wb.writes_submitted
                    )
                    reg.counter("writebehind.bytes_submitted").value = (
                        wb.bytes_submitted
                    )
                    reg.counter("writebehind.transfers_issued").value = (
                        wb.transfers_issued
                    )
                    reg.counter("writebehind.bytes_flushed").value = wb.bytes_flushed
                counts_fn = getattr(ppfs.prefetcher, "classification_counts", None)
                if counts_fn is not None:
                    for kind, n in sorted(counts_fn().items()):
                        reg.counter("prefetch.streams", pattern=kind).value = n
            bb = self._bb
            if bb is not None:
                reg.counter("bb.appends").value = bb.appends
                reg.counter("bb.bytes_absorbed").value = bb.bytes_absorbed
                reg.counter("bb.bytes_drained").value = bb.bytes_drained
                reg.counter("bb.stalls").value = bb.stalls
                reg.counter("bb.fallback_writes").value = bb.fallback_writes
                reg.counter("bb.drain_failures").value = bb.drain_failures
                reg.gauge("bb.stall_s").set(bb.stall_s)
                reg.gauge("bb.max_occupancy_bytes").set(bb.max_occupancy_bytes)
                reg.gauge("bb.drain_lag_s").set(bb.max_drain_lag_s)
            sampler = self.sampler
            if sampler is not None:
                # The overhead accrued while the simulation ran, so file
                # it under the harness's simulate section, not finalize.
                self.profiler.add(
                    "simulate/telemetry.sample",
                    sampler.overhead_s,
                    max(sampler.samples, 1),
                )
                self.meta["samples"] = sampler.samples
        return self

    # -- summaries -------------------------------------------------------------
    def summary(self) -> dict:
        """Compact per-run summary (flows into campaign manifests)."""
        self.finalize()
        out = {
            "cadence_s": self.cadence_s,
            "samples": self.sampler.samples if self.sampler is not None else 0,
            "sampling_overhead_s": round(
                self.sampler.overhead_s if self.sampler is not None else 0.0, 6
            ),
            "counters": {
                metric.name: metric.value
                for metric in self.registry
                if metric.kind == "counter" and not metric.labels
            },
        }
        series = self.series
        if series is not None and len(series):
            queue_cols = [c for c in series.columns if c.endswith(".queue")]
            if queue_cols:
                out["max_queue"] = int(
                    max(float(series.column(c).max()) for c in queue_cols)
                )
            busy_cols = [c for c in series.columns if c.endswith(".busy")]
            if busy_cols:
                out["mean_busy_fraction"] = round(
                    sum(float(series.column(c).mean()) for c in busy_cols)
                    / len(busy_cols),
                    6,
                )
        return out

    def as_dict(self) -> dict:
        """Full export form (see :mod:`repro.telemetry.export`)."""
        self.finalize()
        return {
            "meta": dict(self.meta),
            "registry": self.registry.as_dict(),
            "profile": self.profiler.as_dict(),
            "series": self.series.as_dict() if self.series is not None else None,
        }
