"""Campaign executor: fan a run grid across worker processes.

The runner expands a :class:`CampaignSpec`, skips every run already in
the result cache, and executes the rest on a ``ProcessPoolExecutor``
(``jobs`` workers) with a per-run timeout and bounded retry.  Runs are
resubmitted in waves so a transient worker failure costs one attempt,
not the campaign.  If the pool cannot be created or breaks (restricted
environments, killed workers), execution falls back to in-process serial
mode and the campaign still completes.

The worker entry :func:`execute_run` is a module-level function taking
only primitives, so it pickles by reference into worker processes; each
worker simulates, reduces the result to metrics, publishes traces +
metrics into the shared cache, and returns only the small metric record.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Optional

from .cache import ResultCache
from .metrics import CampaignManifest, RunRecord, render_summary, run_metrics
from .progress import Progress
from .spec import CampaignSpec, RunSpec

__all__ = ["CampaignRunner", "CampaignReport", "execute_run"]


def code_version() -> str:
    """Installed distribution version, else the source tree's fallback."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from .. import __version__

        return __version__


def execute_run(
    spec: RunSpec, cache_root: str, fail_marker: Optional[str] = None
) -> dict[str, Any]:
    """Worker entry: simulate ``spec``, publish to the cache, return metrics.

    ``fail_marker`` is a fault-injection hook for exercising the retry
    path: when the path does not exist yet, the worker creates it and
    raises, so exactly the first attempt of each marked run fails.
    """
    if fail_marker and not os.path.exists(fail_marker):
        with open(fail_marker, "w"):
            pass
        raise RuntimeError(f"injected worker failure for {spec.run_hash}")
    result = spec.build_experiment().run()
    metrics = run_metrics(result)
    ResultCache(cache_root).store(spec, result.traces, metrics)
    return metrics


class CampaignReport:
    """What one campaign invocation did, plus where the manifest landed."""

    def __init__(self, manifest: CampaignManifest, manifest_path: str):
        self.manifest = manifest
        self.manifest_path = manifest_path
        counts = manifest.counts()
        self.total = counts["total"]
        self.cached = counts["cached"]
        self.executed = counts["done"]
        self.failed = counts["failed"]

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def summary(self) -> str:
        return render_summary(self.manifest)


class CampaignRunner:
    """Executes a campaign against a result cache.

    Parameters
    ----------
    campaign:
        The grid to run.
    cache_dir:
        Root of the content-addressed result cache.
    jobs:
        Worker processes; 1 means in-process serial execution.
    timeout_s:
        Per-run wall-clock budget (parallel mode); None disables.
    retries:
        Extra attempts after a failed/timed-out attempt.
    quiet:
        Suppress progress lines.
    fault_dir:
        Test hook: inject one failure per run via marker files here.
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        cache_dir: str,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        quiet: bool = False,
        progress_stream=None,
        fault_dir: Optional[str] = None,
        worker: Callable[..., dict[str, Any]] = execute_run,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.campaign = campaign
        self.cache = ResultCache(cache_dir)
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retries = retries
        self.quiet = quiet
        self.progress_stream = progress_stream
        self.fault_dir = fault_dir
        self.worker = worker

    # -- public ------------------------------------------------------------
    def run(self) -> CampaignReport:
        runs = self.campaign.expand()
        records = {spec.run_hash: RunRecord(spec) for spec in runs}
        progress = Progress(
            self.campaign.name,
            len(runs),
            stream=self.progress_stream,
            quiet=self.quiet,
        )
        progress.emit(" | start")

        fresh = []
        for spec in runs:
            rec = records[spec.run_hash]
            metrics = None
            if not self.cache.stale(spec.run_hash):
                metrics = self.cache.load_metrics(spec.run_hash)
            if metrics is not None:
                rec.status = "cached"
                rec.metrics = metrics
                progress.move("queued", "cached", spec.label())
            else:
                # A missing, unreadable or stale entry is a miss; clear it
                # so the recomputed result can be published in its place.
                self.cache.evict(spec.run_hash)
                fresh.append(spec)

        if fresh:
            if self.jobs > 1:
                survivors = self._run_parallel(fresh, records, progress)
            else:
                survivors = fresh
            if survivors:  # jobs == 1, or the pool never came up / broke
                self._run_serial(survivors, records, progress)

        manifest = CampaignManifest(
            name=self.campaign.name,
            version=code_version(),
            campaign_hash=self.campaign.campaign_hash,
            records=[records[spec.run_hash] for spec in runs],
        )
        path = manifest.write(self.cache.root)
        return CampaignReport(manifest, path)

    # -- helpers -----------------------------------------------------------
    def _marker(self, spec: RunSpec) -> Optional[str]:
        if not self.fault_dir:
            return None
        os.makedirs(self.fault_dir, exist_ok=True)
        return os.path.join(self.fault_dir, spec.run_hash)

    def _finish(self, rec: RunRecord, metrics: dict[str, Any], progress: Progress) -> None:
        rec.status = "done"
        rec.metrics = metrics
        progress.note_duration(rec.elapsed_s)
        progress.move("running", "done", rec.spec.label(), f"{rec.elapsed_s:.1f}s")

    def _fail_attempt(
        self, rec: RunRecord, error: str, progress: Progress
    ) -> bool:
        """Record one failed attempt; returns whether a retry is left."""
        rec.error = error
        if rec.attempts <= self.retries:
            rec.status = "queued"
            progress.move("running", "queued", rec.spec.label(), "retry")
            return True
        rec.status = "failed"
        progress.move("running", "failed", rec.spec.label(), error.splitlines()[0][:80])
        return False

    def _run_serial(
        self, specs: list[RunSpec], records: dict[str, RunRecord], progress: Progress
    ) -> None:
        """In-process execution (no per-run timeout enforcement)."""
        wave = list(specs)
        while wave:
            retry_wave = []
            for spec in wave:
                rec = records[spec.run_hash]
                rec.attempts += 1
                rec.status = "running"
                progress.move("queued", "running", spec.label())
                start = time.monotonic()
                try:
                    metrics = self.worker(spec, self.cache.root, self._marker(spec))
                except Exception:
                    rec.elapsed_s = time.monotonic() - start
                    if self._fail_attempt(rec, traceback.format_exc(limit=3), progress):
                        retry_wave.append(spec)
                else:
                    rec.elapsed_s = time.monotonic() - start
                    self._finish(rec, metrics, progress)
            wave = retry_wave

    def _run_parallel(
        self, specs: list[RunSpec], records: dict[str, RunRecord], progress: Progress
    ) -> list[RunSpec]:
        """Pool execution; returns runs the pool never got to (for serial
        fallback) — empty on a normal completion."""
        try:
            pool = ProcessPoolExecutor(max_workers=self.jobs)
        except (OSError, ValueError, ImportError):
            progress.emit(" | process pool unavailable, falling back to serial")
            return specs

        timed_out = False
        try:
            wave = list(specs)
            while wave:
                futures: list[tuple[RunSpec, Future]] = []
                for spec in wave:
                    rec = records[spec.run_hash]
                    rec.attempts += 1
                    rec.status = "running"
                    progress.move("queued", "running", spec.label())
                    futures.append(
                        (spec, pool.submit(self.worker, spec, self.cache.root, self._marker(spec)))
                    )
                retry_wave = []
                for spec, future in futures:
                    rec = records[spec.run_hash]
                    start = time.monotonic()
                    try:
                        metrics = future.result(timeout=self.timeout_s)
                    except FutureTimeout:
                        timed_out = True
                        rec.elapsed_s = time.monotonic() - start
                        future.cancel()
                        if self._fail_attempt(
                            rec, f"timed out after {self.timeout_s}s", progress
                        ):
                            retry_wave.append(spec)
                    except BrokenProcessPool:
                        # Pool is gone; everything not yet finished reruns
                        # serially (attempt already counted is kept).
                        progress.emit(" | worker pool broke, falling back to serial")
                        unfinished = []
                        for sp, _ in futures:
                            r = records[sp.run_hash]
                            if r.status == "running":
                                progress.move("running", "queued", sp.label(), "pool broke")
                                r.status = "queued"
                                unfinished.append(sp)
                        return unfinished + retry_wave
                    except Exception:
                        rec.elapsed_s = time.monotonic() - start
                        if self._fail_attempt(
                            rec, traceback.format_exc(limit=3), progress
                        ):
                            retry_wave.append(spec)
                    else:
                        rec.elapsed_s = time.monotonic() - start
                        self._finish(rec, metrics, progress)
                wave = retry_wave
            return []
        finally:
            # A timed-out worker may be wedged; don't block shutdown on it.
            pool.shutdown(wait=not timed_out, cancel_futures=True)
