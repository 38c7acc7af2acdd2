"""One ledger sample: run a workload through the ``repro run --save-dir``
pipeline in this process and print what it measured as one JSON line.

::

    PYTHONPATH=src python perfledger/sample.py '{"workload": "htf-event",
        "seed": 1995, "smoke": false, "traced": false, "tmp": ".ledger-tmp"}'

``ledger.py`` starts each sample as a fresh child, so every sample pays
the same imports and starts from the same heap.  Every timing is CPU
seconds of this process (``time.process_time``), counted from process
start:

* setup:    imports, config, machine and file system (until the
            experiment's ``build_fs`` returns);
* run:      the rest of ``Experiment.run()``;
* finalize: the deferred work the run leaves behind: the span store's
            lazy finalize and the Pablo trace's pending-row flush;
* analysis: ``CharacterizationReport`` per trace, plus the critical path
            and the telemetry report when those are on;
* export:   SDDF per trace, plus span JSONL, Chrome JSON and telemetry
            JSONL when those are on.

A traced sample runs under cProfile from before the first ``repro``
import to the end of export and adds the profile's split by layer, its
call counts and the CPU seconds of the profiled window.  The gate data (counts, content hashes) is read after
the timed window.
"""

from __future__ import annotations

import cProfile
import importlib.util
import json
import os
import pstats
import resource
import sys
import tempfile
import time

from workloads import CALL_COUNTS, LAYERS, WORKLOADS, layer_of


def pipeline(workload: str, seed: int, smoke: bool, tmp: str) -> tuple[object, dict]:
    """Build, run, finalize, analyse and export one workload; returns the
    ``ExperimentResult`` and the phase end marks (CPU seconds)."""
    from repro.analysis.critical_path import critical_path
    from repro.analysis.report import CharacterizationReport
    from repro.spans import to_chrome_json, to_jsonl as spans_to_jsonl
    from repro.telemetry import render_report, to_jsonl as telemetry_to_jsonl

    marks: dict[str, float] = {}
    experiment = WORKLOADS[workload].build(seed, smoke)
    build_fs = experiment.build_fs

    def timed_build_fs(machine):
        fs = build_fs(machine)
        marks["setup"] = time.process_time()
        return fs

    experiment.build_fs = timed_build_fs
    result = experiment.run()
    marks["run"] = time.process_time()

    store = result.spans.store if result.spans is not None else None
    for trace in result.traces.values():
        trace.events  # flushes the rows still pending in the capture buffer
    marks["finalize"] = time.process_time()

    for trace in result.traces.values():
        CharacterizationReport(trace).render()
    if store is not None:
        critical_path(store).render()
    if result.telemetry is not None:
        render_report(result.telemetry.as_dict())
    marks["analysis"] = time.process_time()

    with tempfile.TemporaryDirectory(dir=tmp) as out:
        for name, trace in result.traces.items():
            trace.save(os.path.join(out, f"{name}.sddf"))
        if store is not None:
            with open(os.path.join(out, "spans.jsonl"), "w", encoding="utf-8") as fh:
                fh.write(spans_to_jsonl(store))
            with open(os.path.join(out, "spans.json"), "w", encoding="utf-8") as fh:
                fh.write(to_chrome_json(store))
        if result.telemetry is not None:
            telemetry_to_jsonl(result.telemetry.as_dict(), os.path.join(out, "telemetry.jsonl"))
    marks["export"] = time.process_time()
    return result, marks


def state(result) -> dict:
    """Per-layer counts read from the run's public state; a deterministic
    simulation repeats every one of them exactly."""
    fs, machine = result.fs, result.machine
    cache = fs.cache_stats() if hasattr(fs, "cache_stats") else None
    writeback = getattr(fs, "writeback", None)
    fluid = getattr(fs, "fluid", None)
    return {
        "sim.scheduled": machine.env._seq,
        "pablo.events": sum(len(t) for t in result.traces.values()),
        "machine.ionode.requests": sum(ion.requests_served for ion in machine.ionodes),
        "machine.ionode.bytes": sum(ion.bytes_served for ion in machine.ionodes),
        "ppfs.cache.hit_ratio": cache.hit_rate if cache is not None else 0.0,
        "ppfs.wb.transfers": writeback.transfers_issued if writeback is not None else 0,
        "sim.fluid.phases_solved": fluid.phases_solved if fluid is not None else 0,
        "sim.fluid.phases_declined": fluid.phases_declined if fluid is not None else 0,
        "sim.fluid.ops": fluid.ops_serviced if fluid is not None else 0,
        "spans.count": len(result.spans.store) if result.spans is not None else 0,
    }


def profile_split(profiler: cProfile.Profile, repro_dir: str) -> dict:
    """Self seconds per layer and the :data:`CALL_COUNTS` from a profile."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(CALL_COUNTS, 0)
    wanted = {
        (os.path.join(repro_dir, *rel.split("/")), func): metric
        for metric, sites in CALL_COUNTS.items()
        for rel, func in sites
    }
    for (filename, _line, func), (_cc, nc, tt, _ct, _callers) in pstats.Stats(profiler).stats.items():
        self_s[layer_of(filename, repro_dir)] += tt
        metric = wanted.get((filename, func))
        if metric is not None:
            calls[metric] += nc
    return {"self_s": self_s, "calls": calls}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    # Located without importing it, so the profile sees every repro import.
    repro_dir = os.path.dirname(os.path.abspath(importlib.util.find_spec("repro").origin))
    profiler = cProfile.Profile() if spec["traced"] else None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if profiler is not None:
        profiler.enable()
    result, marks = pipeline(spec["workload"], spec["seed"], spec["smoke"], spec["tmp"])
    if profiler is not None:
        profiler.disable()
    wall, profiled_s = time.perf_counter() - wall0, time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {
        "setup_s": marks["setup"],
        "run_s": marks["run"] - marks["setup"],
        "finalize_s": marks["finalize"] - marks["run"],
        "analysis_s": marks["analysis"] - marks["finalize"],
        "export_s": marks["export"] - marks["analysis"],
        "total_s": marks["export"],
        "peak_rss_mb": peak_rss_mb,
    }
    out = {
        "metrics": metrics,
        "wall_s": wall,
        "state": state(result),
        "programs": {
            name: {"events": len(t), "duration": t.duration, "hash": t.content_hash()}
            for name, t in result.traces.items()
        },
    }
    if profiler is not None:
        out.update(profile_split(profiler, repro_dir), profiled_s=profiled_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
