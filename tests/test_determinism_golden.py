"""Golden determinism tests: the simulator is bit-reproducible.

The kernel and data-path fast paths promise *bit-identical* traces — not
just statistically equivalent ones.  These tests pin that promise three
ways:

* the same experiment run twice in one process produces byte-identical
  event streams (:meth:`Trace.content_hash` over the packed buffer);
* every small-scale app matches the checked-in golden hash in
  ``tests/data/golden_trace_hashes.json`` — any kernel or data-path
  change that moves a single timestamp, reorders two same-time events,
  or drops an event fails here;
* a campaign executed serially (``jobs=1``) and in parallel worker
  processes (``jobs=2``) publishes identical trace bytes to the cache.

If a change *intentionally* alters simulated behaviour, regenerate the
fixture (see docs/PERFORMANCE.md) and say so in the commit message.
"""

import json
import os

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, ResultCache
from repro.campaign.spec import RunSpec

APPS = ("escat", "render", "htf")

_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_trace_hashes.json")

with open(_FIXTURE) as _fh:
    GOLDEN = json.load(_fh)


def _run_hashes(app: str) -> dict[str, str]:
    result = RunSpec(app, scale="small").build_experiment().run()
    return {name: trace.content_hash() for name, trace in sorted(result.traces.items())}


#: PPFS preset configurations pinned by golden hashes: write-behind +
#: aggregation (escat_tuned), fixed readahead (sequential_reader), the
#: adaptive Markov predictor, and the two-level server caches — plus the
#: default client-cache-only preset.  Together they cover every fast path
#: in the PPFS policy layer (fan-out override, range cache ops, batched
#: flusher, no-Process prefetch staging).
PPFS_PRESETS = ("default", "escat_tuned", "sequential_reader", "adaptive", "two_level")


def _run_ppfs_hashes(app: str, preset: str) -> dict[str, str]:
    policy = None if preset == "default" else preset
    result = (
        RunSpec(app, scale="small", fs="ppfs", policy=policy)
        .build_experiment()
        .run()
    )
    return {name: trace.content_hash() for name, trace in sorted(result.traces.items())}


class TestRepeatedRunsAreBitIdentical:
    @pytest.mark.parametrize("app", APPS)
    def test_same_process_repeat(self, app):
        assert _run_hashes(app) == _run_hashes(app)


class TestGoldenHashes:
    @pytest.mark.parametrize("app", APPS)
    def test_matches_checked_in_fixture(self, app):
        got = _run_hashes(app)
        assert got == GOLDEN[app], (
            f"{app} trace content drifted from the golden fixture — a kernel "
            f"or data-path change altered the simulated event stream"
        )


class TestPPFSGoldenHashes:
    """The PPFS policy layer's fast paths keep traces byte-identical."""

    @pytest.mark.parametrize("preset", PPFS_PRESETS)
    @pytest.mark.parametrize("app", APPS)
    def test_matches_checked_in_fixture(self, app, preset):
        key = f"{app}/ppfs/{preset}"
        got = _run_ppfs_hashes(app, preset)
        assert got == GOLDEN[key], (
            f"{key} trace content drifted from the golden fixture — a PPFS "
            f"policy-layer change altered the simulated event stream"
        )

    @pytest.mark.parametrize("app", APPS)
    def test_same_process_repeat(self, app):
        preset = "escat_tuned"
        assert _run_ppfs_hashes(app, preset) == _run_ppfs_hashes(app, preset)


class TestEmptyFaultPlanIsZeroCost:
    """Faults off must mean *byte-identical*, not just equivalent.

    An Experiment built with an empty FaultPlan takes the documented
    fast path — ``fs.retry`` stays None, no injector processes — so its
    traces must match the checked-in golden hashes exactly.
    """

    @pytest.mark.parametrize("app", APPS)
    def test_empty_plan_matches_golden(self, app):
        from repro.core.registry import small_experiment
        from repro.faults import FaultPlan

        result = small_experiment(app, faults=FaultPlan()).run()
        assert result.fs.retry is None
        got = {
            name: trace.content_hash()
            for name, trace in sorted(result.traces.items())
        }
        assert got == GOLDEN[app], (
            f"{app} with an empty fault plan drifted from the golden "
            f"fixture — the faults-off fast path is no longer zero-cost"
        )

    def test_seeded_fault_plan_is_reproducible(self):
        from repro.core.registry import small_experiment
        from repro.faults import DiskFailure, FaultPlan, NodeOutage, RequestDrops

        plan = FaultPlan(
            disk_failures=(DiskFailure(ionode=1, time_s=2.5,
                                       rebuild_bytes=4 * 1024 * 1024),),
            outages=(NodeOutage(ionode=2, start_s=3.0, duration_s=0.8),),
            drops=(RequestDrops(probability=0.05, start_s=1.0, duration_s=2.0),),
        )

        def run_hash():
            result = small_experiment("escat", faults=plan).run()
            return {n: t.content_hash() for n, t in sorted(result.traces.items())}

        assert run_hash() == run_hash()


class TestCampaignWorkerCountInvariance:
    """jobs=1 and jobs=2 must publish byte-identical traces to the cache."""

    def test_serial_and_parallel_agree(self, tmp_path):
        spec = CampaignSpec(apps=APPS, name="golden")
        hashes = {}
        for jobs in (1, 2):
            cache_dir = str(tmp_path / f"cache-j{jobs}")
            report = CampaignRunner(spec, cache_dir, jobs=jobs, quiet=True).run()
            assert report.ok
            cache = ResultCache(cache_dir)
            per_run = {}
            for run in spec.expand():
                entry = cache.entry_dir(run.run_hash)
                names = sorted(
                    f[: -len(".sddf")]
                    for f in os.listdir(entry)
                    if f.endswith(".sddf")
                )
                per_run[run.run_hash] = {
                    name: cache.load_trace(run.run_hash, name).content_hash()
                    for name in names
                }
            hashes[jobs] = per_run
        assert hashes[1] == hashes[2]

    def test_cache_roundtrip_matches_golden(self, tmp_path):
        """SDDF persistence itself is lossless: cached bytes == live bytes."""
        spec = CampaignSpec(apps=("escat",), name="golden-roundtrip")
        cache_dir = str(tmp_path / "cache")
        assert CampaignRunner(spec, cache_dir, jobs=1, quiet=True).run().ok
        cache = ResultCache(cache_dir)
        (run,) = spec.expand()
        got = cache.load_trace(run.run_hash, "escat").content_hash()
        assert got == GOLDEN["escat"]["escat"]
