"""Pinned run hashes: one ``RunSpec`` per axis.

The hash keys the campaign result cache, so a refactor of how a run's
options are checked or normalized must leave every one of these
unchanged.  A changed pin means cached results would be silently
orphaned (or, worse, reused for a different run); bump ``SPEC_VERSION``
instead of re-pinning.
"""

from __future__ import annotations

import pytest

from repro.campaign import RunSpec
from repro.faults.plan import DiskFailure, FaultPlan, NodeOutage
from repro.util.units import MB

PLAN = FaultPlan(
    disk_failures=(DiskFailure(ionode=1, time_s=2.5, rebuild_delay_s=0.5,
                               rebuild_bytes=4 * MB),),
    outages=(NodeOutage(ionode=2, start_s=3.0, duration_s=0.8),),
)

TRACE_TEXT = (
    '{"rank": 0, "op": "open", "file": "/data/a", "timestamp": 0.0}\n'
    '{"rank": 0, "op": "write", "file": "/data/a", "timestamp": 0.1, "size": 4096}\n'
    '{"rank": 0, "op": "close", "file": "/data/a", "timestamp": 0.3}\n'
)

#: case -> (RunSpec fields, run_hash); "TRACE" stands for a file holding
#: TRACE_TEXT (the hash follows the file's content, not its path).
PINS = {
    "plain": (dict(app="escat"), "f8675c1a49ccc77b"),
    "policy": (dict(app="escat", fs="ppfs", policy="escat_tuned"), "145f525d01cc58ee"),
    "seed_overrides": (dict(app="escat", seed=7, overrides={"iterations": 2}),
                       "2ba0c5c529ae1d7c"),
    "faults_plan": (dict(app="escat", faults=PLAN), "7bdebd79351125a2"),
    "faults_json": (dict(app="escat", faults=PLAN.to_json()), "7bdebd79351125a2"),
    "telemetry_true": (dict(app="escat", telemetry=True), "861ad3c4b306bdb7"),
    "telemetry_2.5": (dict(app="escat", telemetry=2.5), "5f997ac6e7fa1750"),
    "telemetry_0": (dict(app="escat", telemetry=0), "f8675c1a49ccc77b"),
    "bb_true": (dict(app="checkpoint", burst_buffer=True), "1db0458cc5eac8ac"),
    "bb_16MB": (dict(app="checkpoint", burst_buffer=16 * MB), "b6762f7d777736de"),
    "bb_0": (dict(app="checkpoint", burst_buffer=0), "4c76922226a85b77"),
    "fidelity_event": (dict(app="htf", fidelity="event"), "70d3bcb4f396499d"),
    "fidelity_fluid": (dict(app="htf", fidelity="fluid"), "7537fe8669fb5a55"),
    "spans": (dict(app="render", spans=True), "e290a69cfd497591"),
    "trace": (dict(app="trace", trace="TRACE", overrides={"think_time": "none"}),
              "5069f69447b391ef"),
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_run_hash_pinned(case, tmp_path):
    fields, pinned = PINS[case]
    if fields.get("trace") == "TRACE":
        path = tmp_path / "t.jsonl"
        path.write_text(TRACE_TEXT)
        fields = dict(fields, trace=str(path))
    spec = RunSpec(**fields)
    assert spec.run_hash == pinned
    assert RunSpec.from_dict(spec.to_dict()).run_hash == pinned
