"""Pins on what the Pablo capture hands out beyond the default run.

The golden fixture covers zero-overhead traces.  These pins cover the
rest of the capture contract, so a change to where rows are made cannot
move them unnoticed:

* traces captured with a nonzero per-op overhead (the perturbation
  lands on every op, including PPFS's own paths);
* the exact ``(t0, node, op, file_id, offset, nbytes, duration)``
  tuples a real-time observer receives, on both fidelities;
* the telemetry series of plain-PFS runs.

Each pin is the first 12 hex digits of a SHA-256.
"""

import hashlib

import pytest

from repro.core.registry import small_experiment

#: Per-program trace hashes with ``capture_overhead_s=0.005``.
PERTURBED_PINS = {
    "htf": {"pargos": "f5f8cce3aec5", "pscf": "75e2cdf954eb", "psetup": "b19736dc8954"},
    "escat": {"escat": "49458c3e872d"},
    "escat/ppfs/escat_tuned": {"escat": "3cf043e06f3e"},
    "render/ppfs/sequential_reader": {"render": "ebcfc43c9764"},
}

#: Digest of ``repr(list of observed tuples)`` and the tuple count.
OBSERVER_PINS = {
    "htf/event": (296, "146582e701d0"),
    "escat/event": (243, "f2ee30da4cb3"),
    "htf/fluid": (296, "d2611505303b"),
    "escat/fluid": (243, "a038cfccc9ce"),
}

#: ``Telemetry.series.content_hash()`` of plain-PFS runs.
SERIES_PINS = {
    ("escat", 0.5): "27c02f389b24",
    ("render", 10.0): "bafe100d83fe",
}


def _experiment(key: str, **kwargs):
    app, _, rest = key.partition("/")
    if rest.startswith("ppfs/"):
        from repro.ppfs import PPFSPolicies

        kwargs.update(filesystem="ppfs", policies=PPFSPolicies.from_name(rest[5:]))
    return small_experiment(app, **kwargs)


class _Recorder:
    def __init__(self):
        self.seen = []

    def observe(self, *event):
        self.seen.append(event)


@pytest.mark.parametrize("key", sorted(PERTURBED_PINS))
def test_perturbed_capture_traces(key):
    result = _experiment(key, capture_overhead_s=0.005).run()
    got = {name: t.content_hash()[:12] for name, t in sorted(result.traces.items())}
    assert got == PERTURBED_PINS[key]


@pytest.mark.parametrize("key", sorted(OBSERVER_PINS))
def test_observer_stream(key):
    app, fidelity = key.split("/")
    recorder = _Recorder()
    result = small_experiment(app, fidelity=fidelity, observers=[recorder]).run()
    assert len(recorder.seen) == sum(len(t) for t in result.traces.values())
    digest = hashlib.sha256(repr(recorder.seen).encode()).hexdigest()[:12]
    assert (len(recorder.seen), digest) == OBSERVER_PINS[key]


@pytest.mark.parametrize("app,cadence", sorted(SERIES_PINS))
def test_pfs_telemetry_series(app, cadence):
    result = small_experiment(app, telemetry=cadence).run()
    assert result.telemetry.series.content_hash()[:12] == SERIES_PINS[(app, cadence)]
