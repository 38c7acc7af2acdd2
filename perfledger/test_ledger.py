"""Checks for the performance ledger.

::

    PYTHONPATH=src:. python -m pytest perfledger/test_ledger.py -q
"""

from __future__ import annotations

import glob
import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPRO = os.path.join(ROOT, "src", "repro")
sys.path.insert(0, HERE)

import ledger  # noqa: E402
from workloads import CALL_COUNTS, LAYER_PREFIXES, LAYERS, WORKLOADS, layer_of  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def bench() -> dict:
    return ledger.load_benchmark()


def test_benchmark_json_validates(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] + bench["per_layer"]
    for name in names + [m["name"] for m in metrics]:
        assert NAME.match(name), name
    assert len(set(names)) == len(names)
    assert len({m["name"] for m in metrics}) == len(metrics)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in metrics:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert len(bench["command"]) <= 32 and all(len(a) <= 200 for a in bench["command"])
    for path in bench["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path))


def test_benchmark_json_matches_the_ledger(bench):
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert {f"{layer}.self_s" for layer in LAYERS} <= per_layer
    assert set(CALL_COUNTS) <= per_layer


def test_layer_map_assigns_every_module():
    files = glob.glob(os.path.join(REPRO, "**", "*.py"), recursive=True)
    assert files
    for path in files:
        assert layer_of(path, REPRO) != "other", path
    assert layer_of(os.path.join(HERE, "sample.py"), REPRO) == "other"
    assert layer_of("~", REPRO) == "other"
    for prefix, _layer in LAYER_PREFIXES:
        assert os.path.exists(os.path.join(REPRO, prefix)), prefix
    for sites in CALL_COUNTS.values():
        for rel, func in sites:
            with open(os.path.join(REPRO, rel), encoding="utf-8") as fh:
                assert f"def {func}(" in fh.read(), (rel, func)


def _sample(events: int, traced: bool = False) -> dict:
    out = {
        "ok": True, "traced": traced, "error": None,
        "state": {"sim.scheduled": 10},
        "programs": {"p": {"events": events, "duration": 2.0, "hash": "ab"}},
    }
    if traced:
        out["calls"] = {"pfs.fanout.calls": 3}
    return out


def test_gates_fail_samples_that_do_not_repeat():
    samples = [_sample(5), _sample(5, traced=True), _sample(6)]
    ledger.gate("htf-event", samples, {}, seed=1, smoke=True)
    assert [s["ok"] for s in samples] == [True, True, False]


def test_fluid_gate_needs_the_event_twins_counts():
    twin = _sample(5)
    samples = [_sample(5), _sample(4)]
    ledger.gate("htf-fluid", samples, {"htf-event": twin}, seed=1, smoke=True)
    assert [s["ok"] for s in samples] == [True, False]
    assert ledger.makespan_err(samples[0], twin) == 0.0


def test_compare_classifies_against_the_bound():
    metric = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}

    def stats(*values):
        return ledger.summary(list(values))

    old = stats(1.0, 1.01, 0.99, 1.0, 1.0)
    assert ledger.classify(old, stats(1.0, 1.02, 0.99, 1.01, 1.0), metric)[0] == "unchanged"
    assert ledger.classify(old, stats(1.2, 1.21, 1.2, 1.19, 1.2), metric)[0] == "worse"
    assert ledger.classify(old, stats(0.8, 0.81, 0.8, 0.79, 0.8), metric)[0] == "better"
    assert ledger.classify(old, stats(0.7, 1.3, 0.8, 1.25, 1.0), metric)[0] == "unresolved"


def test_smoke_run_emits_every_metric(bench, tmp_path):
    out = tmp_path / "ledger.json"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "ledger.py"), "--smoke", "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - started < 60
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == set(WORKLOADS)
    for name, entry in doc["workloads"].items():
        assert entry["failed"] == 0, (name, entry["errors"])
        assert set(entry["end_to_end"]) == {m["name"] for m in bench["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in bench["per_layer"]}
        layers = entry["per_layer"]
        split = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        # Wall-clock profile against CPU total: equal up to clock skew.
        assert split == pytest.approx(layers["traced.total_s"], rel=0.05), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["name"] in proc.stdout
