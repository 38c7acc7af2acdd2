"""Folded fan-out completions against per-chunk ones and the scalar queue.

An eager FIFO I/O node folds the chunk completions of one striped
request into a single kernel event at the largest reserved ``(end,
seq)`` key (:class:`repro.pfs.fanout.Join`).  The promise is exactness:
every observable of a run — when and in what order requests complete,
I/O-node counters and head positions, what ``queue_length``/``busy``
read at any instant, how a crash or a fallback to the scalar queue
lands on chunks still in flight — equals the run in which every chunk
completion is its own kernel event.

The oracle is :func:`reference_fanout`, the per-chunk fan-out the
folded one replaced, installed in place of ``PFS._fanout``.  The
scalar queue (eager off) is the second oracle for completion times,
order and counters; it is the only one for PPFS's shared I/O-node
caches, which the reference fan-out does not model.  Workloads force
exact ties: a distance-free mesh (every hop distance equal), clients
writing identical disk offsets, and issue released by one barrier
event.
"""

from __future__ import annotations

import types
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine.mesh import MeshParams
from repro.machine.paragon import Paragon, ParagonConfig
from repro.pfs.fanout import Join
from repro.pfs.filesystem import PFS
from repro.pfs.striping import StripeLayout
from repro.ppfs.policies import PPFSPolicies
from repro.ppfs.server import PPFS
from repro.sim.core import Environment, Event, SimulationError, Timeout
from repro.telemetry import Telemetry

SU = 64 * 1024  # default stripe unit


def reference_fanout(fs, node, f, offset, nbytes, is_write):
    """The fan-out before folding: each chunk completion is its own
    kernel event, and a counter folds them into ``done``."""
    env = fs.env
    chunks = f.layout.decompose(offset, nbytes)
    done = Event(env)
    remaining = [len(chunks)]

    def chunk_done(_ev):
        remaining[0] -= 1
        if not remaining[0]:
            done.succeed()

    for chunk in chunks:
        ion = fs.machine.ionodes[chunk.ionode]
        extra = fs._chunk_extra(chunk.nbytes, is_write)
        delay = fs.machine.mesh.message_time(node, fs._io_mesh_pos[chunk.ionode], chunk.nbytes)

        def _arrived(_ev, ion=ion, chunk=chunk, extra=extra):
            ion.submit(chunk.disk_offset, chunk.nbytes, is_write, extra).callbacks.append(
                chunk_done
            )

        Timeout(env, delay).callbacks.append(_arrived)
    return done


# -- scenarios -------------------------------------------------------------------
sizes = st.sampled_from((1, 4096, SU - 1, SU, SU + 1, 3 * SU, 5 * SU + 7, 16 * SU))
offsets = st.sampled_from((0, 100, SU - 1, SU, 7 * SU + 3))


@st.composite
def scenarios(draw):
    clients = draw(st.integers(1, 8))
    return types.SimpleNamespace(
        clients=clients,
        io_nodes=draw(st.integers(1, 4)),
        # per_hop_s == 0: every client is equally far from every I/O node.
        per_hop_s=draw(st.sampled_from((0.0, 0.04e-6))),
        # Identical disk offsets: every client writes the same extent.
        shared=draw(st.booleans()),
        is_write=draw(st.booleans()),
        rounds=[
            [(draw(offsets), draw(sizes)) for _ in range(clients)]
            for _ in range(draw(st.integers(1, 3)))
        ],
        # Rounds either all start at the barrier or re-synchronize on it.
        barrier_each_round=draw(st.booleans()),
    )


def _machine(sc):
    width = max(2, sc.clients)
    return Paragon(
        ParagonConfig(
            compute_nodes=sc.clients,
            io_nodes=sc.io_nodes,
            mesh=MeshParams(width=width, height=2, per_hop_s=sc.per_hop_s),
            seed=3,
        )
    )


def _run(sc, mode, probes=(), fault=None, cadence=None, two_level=False):
    """Run scenario ``sc`` with completions ``mode`` ('folded',
    'reference' or 'scalar'); returns every observable.  ``two_level``
    runs it on PPFS with shared I/O-node caches and then reads every
    round again, so the second pass hits."""
    machine = _machine(sc)
    env = machine.env
    fs = PPFS(machine, PPFSPolicies.two_level()) if two_level else PFS(machine)
    for ion in machine.ionodes:
        ion._eager = mode != "scalar"
    if mode == "reference":
        fs._fanout = partial(reference_fanout, fs)
    ionodes = machine.ionodes
    n_io = len(ionodes)
    files = [
        types.SimpleNamespace(
            layout=StripeLayout(n_ionodes=n_io, base=0 if sc.shared else c * 64 * SU),
            file_id=3 if sc.shared else 3 + c,
        )
        for c in range(sc.clients)
    ]
    rounds = [(reqs, sc.is_write) for reqs in sc.rounds]
    if two_level:
        rounds += [(reqs, False) for reqs in sc.rounds]
    log = []

    telemetry = None
    if cadence is not None:
        telemetry = Telemetry(cadence).attach(machine, fs)
        telemetry.start()

    def look(tag):
        log.append((tag, env.now, tuple((ion.queue_length, ion.busy) for ion in ionodes)))
        if telemetry is not None:
            telemetry._sample(env.now)

    # Early probes: armed before any request, so they sort ahead of every
    # completion at their instant.
    for t in probes:
        Timeout(env, t).callbacks.append(lambda _ev: look("probe"))
    if fault is not None:
        fault(env, ionodes, log)

    barrier = [Event(env) for _ in rounds]
    arrivals = [0] * len(rounds)

    def client(c):
        for r, (reqs, is_write) in enumerate(rounds):
            if r == 0 or sc.barrier_each_round:
                arrivals[r] += 1
                if arrivals[r] == sc.clients:
                    barrier[r].succeed()
                yield barrier[r]
            offset, nbytes = reqs[c]
            yield fs._fanout(c, files[c], offset, nbytes, is_write)
            # Late probe: this resume sorts after every completion at now.
            look(("done", c, r))

    for c in range(sc.clients):
        env.process(client(c))
    env.run()
    counters = [
        (ion.requests_served, ion.bytes_served, ion.busy_time,
         ion.array._arm.head_pos, ion.failed_requests)
        for ion in ionodes
    ]
    series = telemetry.series.rows.tolist() if telemetry is not None else None
    scache = None
    if two_level:
        scache = [
            (stats.hits, stats.misses, stats.evictions)
            for stats in (fs.server_cache(i).stats for i in range(n_io))
        ]
    return types.SimpleNamespace(log=log, counters=counters, now=env.now,
                                 series=series, scheduled=env._seq, scache=scache)


def _completions(res):
    return [(tag, now) for tag, now, _ in res.log if tag != "probe"]


def _instants(res):
    return sorted({now for tag, now, _ in res.log if tag != "probe"})


# -- tests ---------------------------------------------------------------------
class TestFoldedFanout:
    @given(scenarios(), st.booleans())
    @settings(max_examples=100, deadline=None)
    # Client 1's lone chunk and client 0's last one end at the same
    # instant on two nodes, and node 1's chain started before node 0's
    # second arrival: the scalar queue must still complete client 0 first.
    @example(
        types.SimpleNamespace(
            clients=3, io_nodes=3, per_hop_s=0.0, shared=True, is_write=False,
            rounds=[[(0, 3 * SU), (0, SU), (0, 3 * SU)]], barrier_each_round=False,
        ),
        False,
    )
    def test_matches_per_chunk_and_scalar(self, sc, two_level):
        scalar = _run(sc, "scalar", two_level=two_level)
        if two_level:
            # No reference: it bypasses the server caches.
            folded = _run(sc, "folded", two_level=True)
            assert sum(hits for hits, _, _ in folded.scache)
        else:
            ref = _run(sc, "reference")
            probes = _instants(ref)
            ref = _run(sc, "reference", probes)
            folded = _run(sc, "folded", probes)
            # Everything, queue/busy readings at tied instants included.
            assert folded.log == ref.log
            assert folded.counters == ref.counters
            assert folded.now == ref.now
            assert folded.scheduled <= ref.scheduled
        # The scalar queue: same completion instants, order, counters and
        # server-cache hits, misses and evictions.
        assert _completions(folded) == _completions(scalar)
        assert folded.counters == scalar.counters
        assert folded.scache == scalar.scache

    @given(scenarios())
    @settings(max_examples=50, deadline=None)
    def test_telemetry_cadence_on_completion_instants(self, sc):
        instants = _instants(_run(sc, "reference"))
        # The sampler's first sample lands exactly on the first completion
        # instant; the probes sample every completion instant as well,
        # once ahead of and once behind the completions there.
        cadence = instants[0]
        ref = _run(sc, "reference", instants, cadence=cadence)
        folded = _run(sc, "folded", instants, cadence=cadence)
        assert len(folded.series) > len(instants)
        assert folded.series == ref.series
        assert folded.log == ref.log

    @given(
        scenarios(),
        st.sampled_from(("crash", "disable", "crash_restart")),
        st.integers(0, 3),
        st.integers(0, 10**6),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    # Node 2 serves only client 1's third chunk, which ends exactly when
    # client 0's request completes, while client 1's other chunks are
    # still queued: the late crash must find that chunk already done.
    @example(
        types.SimpleNamespace(
            clients=2, io_nodes=3, per_hop_s=0.0, shared=True, is_write=True,
            rounds=[[(0, 2 * SU), (0, 3 * SU)]], barrier_each_round=False,
        ),
        "crash", 2, 0, True,
    )
    def test_fault_transitions_with_folded_chunks_in_flight(
        self, sc, kind, node, pick, late
    ):
        instants = _instants(_run(sc, "reference"))
        # Exactly on a completion instant, while later chunks are queued.
        at = instants[pick % len(instants)]
        node = node % sc.io_nodes

        def fault(env, ionodes, log):
            ion = ionodes[node]

            def hit(_ev):
                if kind == "disable":
                    ion._disable_eager()
                else:
                    ion.crash()
                    if kind == "crash_restart":
                        Timeout(env, 0.01).callbacks.append(lambda _e: ion.restart())
                log.append((kind, env.now, tuple((i.queue_length, i.busy) for i in ionodes)))

            if late:
                # Armed mid-run: sorts after everything already queued at `at`.
                def arm(_ev):
                    env.schedule_at(at).callbacks.append(hit)

                Timeout(env, at / 2).callbacks.append(arm)
            else:
                Timeout(env, at).callbacks.append(hit)

        ref = _run(sc, "reference", instants, fault)
        folded = _run(sc, "folded", instants, fault)
        assert folded.log == ref.log
        assert folded.counters == ref.counters
        assert folded.now == ref.now


class TestJoin:
    @pytest.mark.parametrize("folded", (True, False))
    def test_equal_ends_complete_at_the_later_reservation(self, folded):
        """Three chunks end at the same instant on three idle nodes; the
        middle reservation belongs to another request.  That request
        completes first, folded or not: the fold keeps the *later* of two
        equal ends."""
        machine = _machine(types.SimpleNamespace(clients=1, io_nodes=3, per_hop_s=0.0))
        env = machine.env
        ion_a1, ion_b, ion_a2 = machine.ionodes
        order = []
        a, b = Join(env, 2), Join(env, 1)
        a.done.callbacks.append(lambda _ev: order.append("a"))
        b.done.callbacks.append(lambda _ev: order.append("b"))
        if folded:
            for ion, join in ((ion_a1, a), (ion_b, b), (ion_a2, a)):
                ion.submit(0, SU, True, 0.0, -1, join)
        else:
            for ion, join in ((ion_a1, a), (ion_b, b), (ion_a2, a)):
                join.add(ion.submit(0, SU, True))
        assert ion_a1._free_at == ion_b._free_at == ion_a2._free_at
        env.run()
        assert order == ["b", "a"]

    def test_mixed_folded_and_per_chunk_chunks(self):
        """A fan-out over an eager and a scalar node completes once, on
        the hop after its last chunk, whichever kind that is."""
        for scalar_first in (False, True):
            machine = _machine(types.SimpleNamespace(clients=1, io_nodes=2, per_hop_s=0.0))
            env = machine.env
            eager, scalar = machine.ionodes
            scalar._eager = False
            eager._eager = True
            join = Join(env, 2)
            fired = []
            join.done.callbacks.append(lambda _ev: fired.append(env.now))
            if scalar_first:
                scalar.submit(0, 4 * SU, True, 0.0, -1, join)
                assert eager.submit(0, SU, True, 0.0, -1, join) is None
            else:
                assert eager.submit(0, 4 * SU, True, 0.0, -1, join) is None
                scalar.submit(0, SU, True, 0.0, -1, join)
            eager_end = eager._free_at
            env.run()
            assert len(fired) == 1
            assert fired[0] >= eager_end

    def test_schedule_reserved_rejects_the_past(self):
        env = Environment()
        env.timeout(1.0)
        env.run()
        with pytest.raises(SimulationError):
            env.schedule_reserved(0.5, 0, lambda _ev: None)

    def test_schedule_reserved_keeps_the_reserved_order(self):
        env = Environment()
        order = []
        seq = env._seq
        env._seq += 1  # reserved before the timeout below
        env.timeout(1.0).callbacks.append(lambda _ev: order.append("timeout"))
        env.schedule_reserved(1.0, seq, lambda _ev: order.append("reserved"))
        env.run()
        assert order == ["reserved", "timeout"]
