"""Batched columnar execution: op-for-op equivalence + golden guards.

The vectorized service path (:meth:`StripeLayout.decompose_batch`,
:meth:`Disk.service_batch`, :meth:`Raid3Array.service_batch`, the eager
FIFO :class:`IONode`) promises *bit-identical* results to the scalar
code it bypasses — same chunks, same IEEE-754 service times, same
completion instants, same statistics, same span rows.  Hypothesis
hammers each layer against its scalar twin; the golden-hash guards then
pin the end-to-end promise for every application x filesystem preset
under both I/O-node engines (the ``engine`` fixture), so both code paths
stay wired to the same checked-in event streams and span stores.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.checkpoint import CheckpointConfig
from repro.campaign.spec import RunSpec
from repro.core.registry import paper_experiment
from repro.machine.disk import Disk, DiskParams
from repro.machine.ionode import IONode
from repro.machine.mesh import MeshParams
from repro.machine.paragon import Paragon, ParagonConfig
from repro.machine.raid import Raid3Array, Raid3Params
from repro.pfs.striping import StripeLayout
from repro.sim.core import Environment
from repro.spans import SpanRecorder
from repro.util.units import MB

_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_trace_hashes.json")

with open(_FIXTURE) as _fh:
    GOLDEN = json.load(_fh)


# -- strategies ----------------------------------------------------------------
@st.composite
def layouts(draw):
    n = draw(st.integers(1, 16))
    return StripeLayout(
        n_ionodes=n,
        stripe_unit=draw(st.sampled_from((512, 4096, 65536, 777))),
        first_ionode=draw(st.integers(0, n - 1)),
        base=draw(st.sampled_from((0, 65536))),
    )


extents = st.lists(
    st.tuples(st.integers(0, 4 * 1024 * 1024), st.integers(0, 1024 * 1024)),
    min_size=0,
    max_size=12,
)

requests = st.lists(
    st.tuples(st.integers(0, 256 * 1024 * 1024), st.integers(0, 1024 * 1024)),
    min_size=1,
    max_size=16,
)


# -- decompose_batch vs scalar decompose ---------------------------------------
class TestDecomposeBatch:
    @given(layouts(), extents)
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_chunk_for_chunk(self, layout, reqs):
        offsets = np.fromiter((o for o, _ in reqs), np.int64, len(reqs))
        counts = np.fromiter((c for _, c in reqs), np.int64, len(reqs))
        m, chunks = layout.decompose_batch(offsets, counts)
        assert int(m.sum()) == len(chunks)
        assert int(chunks["nbytes"].sum()) == int(counts.sum())
        pos = 0
        for i, (offset, count) in enumerate(reqs):
            scalar = layout.decompose(offset, count)
            assert m[i] == len(scalar)
            for chunk in scalar:
                row = chunks[pos]
                pos += 1
                assert (
                    int(row["ionode"]),
                    int(row["disk_offset"]),
                    int(row["nbytes"]),
                    int(row["logical_offset"]),
                ) == (chunk.ionode, chunk.disk_offset, chunk.nbytes,
                      chunk.logical_offset)
        assert pos == len(chunks)

    @given(layouts(), extents)
    @settings(max_examples=60, deadline=None)
    def test_chunk_geometry_is_self_consistent(self, layout, reqs):
        """Each chunk's head maps back through the point-mapping functions."""
        offsets = np.fromiter((o for o, _ in reqs), np.int64, len(reqs))
        counts = np.fromiter((c for _, c in reqs), np.int64, len(reqs))
        _, chunks = layout.decompose_batch(offsets, counts)
        for row in chunks:
            logical = int(row["logical_offset"])
            assert layout.ionode_of(logical) == int(row["ionode"])
            assert layout.disk_address(logical) == int(row["disk_offset"])
            assert int(row["nbytes"]) > 0 or not len(chunks)


# -- service_batch vs scalar service_time --------------------------------------
class TestServiceBatch:
    @given(requests)
    @settings(max_examples=150, deadline=None)
    def test_disk_bit_identical_and_same_state(self, reqs):
        batch_disk, scalar_disk = Disk(), Disk()
        offsets = np.fromiter((o for o, _ in reqs), np.int64, len(reqs))
        sizes = np.fromiter((s for _, s in reqs), np.int64, len(reqs))
        batch = batch_disk.service_batch(offsets, sizes)
        scalar = [scalar_disk.service_time(o, s) for o, s in reqs]
        assert batch.tolist() == scalar  # exact float equality, not approx
        assert batch_disk.head_pos == scalar_disk.head_pos
        assert batch_disk.seek_bytes == scalar_disk.seek_bytes

    @given(requests, st.sampled_from(("healthy", "degraded", "slow")))
    @settings(max_examples=150, deadline=None)
    def test_raid_bit_identical_across_states(self, reqs, state):
        batch_arm, scalar_arm = Raid3Array(), Raid3Array()
        for arm in (batch_arm, scalar_arm):
            if state == "degraded":
                arm.fail_disk()
            elif state == "slow":
                arm.set_slow(2.5)
        offsets = np.fromiter((o for o, _ in reqs), np.int64, len(reqs))
        sizes = np.fromiter((s for _, s in reqs), np.int64, len(reqs))
        batch = batch_arm.service_batch(offsets, sizes)
        scalar = [scalar_arm.service_time(o, s) for o, s in reqs]
        assert batch.tolist() == scalar
        assert batch_arm._arm.head_pos == scalar_arm._arm.head_pos


class TestEagerIONodeCohort:
    """A same-instant cohort completes at identical times on every path."""

    @staticmethod
    def _sequential(eager, reqs, spans=None):
        env = Environment()
        node = IONode(env, 0)
        node._eager = eager  # False: the scalar reference queue
        node._spans = spans
        times = []
        for offset, nbytes in reqs:
            node.submit(offset, nbytes, True).callbacks.append(
                lambda _ev, env=env: times.append(env.now)
            )
        env.run()
        return times, node

    @given(requests)
    @settings(max_examples=80, deadline=None)
    def test_eager_matches_scalar_queue(self, reqs):
        eager_times, eager_node = self._sequential(True, reqs)
        scalar_times, scalar_node = self._sequential(False, reqs)
        assert eager_times == scalar_times  # exact, per-request
        for attr in ("busy_time", "requests_served", "bytes_served"):
            assert getattr(eager_node, attr) == getattr(scalar_node, attr)
        assert eager_node.array._arm.head_pos == scalar_node.array._arm.head_pos

    @given(requests)
    @settings(max_examples=80, deadline=None)
    def test_submit_batch_completes_with_the_cohort_tail(self, reqs):
        scalar_times, scalar_node = self._sequential(False, reqs)
        env = Environment()
        node = IONode(env, 0)
        assert node._eager  # FIFO nodes start on the eager chain
        offsets = np.fromiter((o for o, _ in reqs), np.int64, len(reqs))
        sizes = np.fromiter((s for _, s in reqs), np.int64, len(reqs))
        done_at = []
        node.submit_batch(offsets, sizes, True).callbacks.append(
            lambda _ev: done_at.append(env.now)
        )
        env.run()
        assert done_at == [scalar_times[-1]]
        for attr in ("busy_time", "requests_served", "bytes_served"):
            assert getattr(node, attr) == getattr(scalar_node, attr)
        assert node.array._arm.head_pos == scalar_node.array._arm.head_pos


    @given(requests)
    @settings(max_examples=80, deadline=None)
    def test_every_path_stages_the_same_span_rows(self, reqs):
        """One ``ion_raw`` row per request, equal whichever queue priced it."""
        scalar, eager, batch = SpanRecorder(), SpanRecorder(), SpanRecorder()
        self._sequential(False, reqs, scalar)
        self._sequential(True, reqs, eager)
        env = Environment()
        node = IONode(env, 0)
        node._spans = batch
        offsets = np.fromiter((o for o, _ in reqs), np.int64, len(reqs))
        sizes = np.fromiter((s for _, s in reqs), np.int64, len(reqs))
        node.submit_batch(offsets, sizes, True)
        env.run()
        assert scalar.ion_raw == eager.ion_raw == batch.ion_raw
        assert len(batch.ion_raw) == len(reqs)


# -- golden guards: every app x preset, under both engines ---------------------
APPS = ("escat", "render", "htf", "checkpoint")

PPFS_PRESETS = ("default", "escat_tuned", "sequential_reader", "adaptive",
                "two_level")


def _run(app, preset, spans=None):
    if preset is None:
        spec = RunSpec(app, scale="small", spans=spans)
    else:
        policy = None if preset == "default" else preset
        spec = RunSpec(app, scale="small", fs="ppfs", policy=policy, spans=spans)
    return spec.build_experiment().run()


def _hashes(result):
    return {name: trace.content_hash() for name, trace in sorted(result.traces.items())}


def _key(app, preset):
    return app if preset is None else f"{app}/ppfs/{preset}"


class TestGoldenWithAndWithoutBatching:
    """Both engines reproduce the checked-in event streams."""

    @pytest.mark.parametrize("preset", (None,) + PPFS_PRESETS)
    @pytest.mark.parametrize("app", APPS)
    def test_matches_golden(self, app, preset, engine):
        key = _key(app, preset)
        assert _hashes(_run(app, preset)) == GOLDEN[key], (
            f"{key} on the {engine} engine drifted from the golden fixture — "
            f"the eager and scalar paths no longer agree byte-for-byte"
        )


#: Span-store content-hash prefixes of the small spans-on runs; both
#: engines must record exactly these stores.
SPAN_PINS = {
    "escat": "b0add660b3df",
    "escat/ppfs/default": "2ea75515c071",
    "escat/ppfs/escat_tuned": "10942524753e",
    "escat/ppfs/sequential_reader": "2b35a4e6e998",
    "escat/ppfs/adaptive": "2ea75515c071",
    "escat/ppfs/two_level": "1629885329ab",
    "render": "374d7537ec3f",
    "render/ppfs/default": "d727bfe96e3d",
    "render/ppfs/escat_tuned": "41f7379bac05",
    "render/ppfs/sequential_reader": "d727bfe96e3d",
    "render/ppfs/adaptive": "d727bfe96e3d",
    "render/ppfs/two_level": "d727bfe96e3d",
    "htf": "145800d3b185",
    "htf/ppfs/default": "be531e673cc6",
    "htf/ppfs/escat_tuned": "6b5c317934d2",
    "htf/ppfs/sequential_reader": "4acfda7590b1",
    "htf/ppfs/adaptive": "89794f7a01a6",
    "htf/ppfs/two_level": "ebb7ed3d6128",
    "checkpoint": "302b1a2f3569",
    "checkpoint/ppfs/default": "302b1a2f3569",
    "checkpoint/ppfs/escat_tuned": "913966231e35",
    "checkpoint/ppfs/sequential_reader": "302b1a2f3569",
    "checkpoint/ppfs/adaptive": "302b1a2f3569",
    "checkpoint/ppfs/two_level": "302b1a2f3569",
}


class TestSpanRecordsAcrossEngines:
    """Spans-on runs record one store whichever engine priced the I/O
    nodes, and that store agrees with the nodes' own counters."""

    @pytest.mark.parametrize("preset", (None,) + PPFS_PRESETS)
    @pytest.mark.parametrize("app", APPS)
    def test_span_store_and_node_counters_agree(self, app, preset, engine):
        key = _key(app, preset)
        result = _run(app, preset, spans=True)
        assert _hashes(result) == GOLDEN[key]
        store = result.spans.store
        kinds = list(store.kinds)
        kind = store.rows[:, 1].astype(np.int64)
        ionodes = result.machine.ionodes
        n_service = int((kind == kinds.index("ion.service")).sum())
        request_bytes = int(store.rows[kind == kinds.index("ion.request"), 5].sum())
        assert n_service == sum(ion.requests_served for ion in ionodes)
        assert request_bytes == sum(ion.bytes_served for ion in ionodes)
        assert store.content_hash()[:12] == SPAN_PINS[key], (
            f"{key} on the {engine} engine recorded a different span store"
        )


class TestCheckpointStorm:
    """A barrier-synchronized checkpoint storm in the production dump
    shape: 32 clients write 2 x 4 MB checkpoints in 1 MB requests, each
    fanning out to 16 I/O-node chunks.  The eager engine folds each
    request's chunk completions into one kernel event; the scalar queue
    completes every chunk on its own.  Both must land on the same pins."""

    PINS = {
        "trace": "39d2432a742c",
        "makespan": 673.0572381976828,
        "ionodes": "1337833ffe13",
        "spans": "b7a8e25dce3f",
    }

    def test_both_engines_land_on_the_pins(self, engine):
        result = paper_experiment(
            "checkpoint",
            machine_factory=partial(
                Paragon,
                ParagonConfig(compute_nodes=32, io_nodes=16,
                              mesh=MeshParams(width=8, height=4), seed=1995),
            ),
            config=CheckpointConfig(
                nodes=32, checkpoints=2, state_bytes=4 * MB, chunk_bytes=1 * MB
            ),
            spans=True,
        ).run()
        counters = repr([
            (ion.requests_served, ion.bytes_served, ion.busy_time, ion.array._arm.head_pos)
            for ion in result.machine.ionodes
        ])
        observed = {
            "trace": result.traces["checkpoint"].content_hash()[:12],
            "makespan": result.machine.env.now,
            "ionodes": hashlib.sha256(counters.encode()).hexdigest()[:12],
            "spans": result.spans.store.content_hash()[:12],
        }
        assert observed == self.PINS, f"storm on the {engine} engine moved"
