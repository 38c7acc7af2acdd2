"""The ledger's workloads, the layers its traced runs split time across,
and the functions whose calls they count.

Nothing here imports :mod:`repro` at module level, so the parent process
reads names and maps without paying the simulator's import cost; the
builders import it when a child sample calls them.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Workload:
    """One named run of the simulator, built from a seed.

    ``build(seed, smoke)`` returns an unstarted ``Experiment``; ``smoke``
    selects the small-scale twin used by ``ledger.py --smoke``.
    ``pins`` are per-program ``Trace.content_hash()`` prefixes, in
    ``result.traces`` order, that the full-scale run must reproduce at
    :data:`PIN_SEED`.  ``event_twin`` names the event-fidelity workload a
    fluid one is checked against.
    """

    name: str
    why: str
    build: Callable[[int, bool], Any]
    pins: tuple[str, ...] = ()
    event_twin: str | None = None


#: The seed the content-hash pins were measured at.
PIN_SEED = 1995


def _experiment(app: str, seed: int, smoke: bool, config=None, machine=None, **kwargs):
    """``app`` with ``config`` on ``machine`` (default: the paper's
    partition), or its small-scale twin, on a machine built from ``seed``."""
    from repro.apps.workloads import paper_machine, small_machine
    from repro.core.registry import paper_experiment, small_experiment

    if smoke:
        build, machine = small_experiment, small_machine
    else:
        build, machine = paper_experiment, machine or paper_machine
        if config is not None:
            kwargs["config"] = config
    return build(app, machine_factory=functools.partial(machine, seed=seed), **kwargs)


def _ckpt_storm(seed: int, smoke: bool):
    from repro.apps.checkpoint import CheckpointConfig
    from repro.util.units import KB, MB

    # The production dump shape (16 MB per node in 1 MB chunks, so one
    # write fans out to 16 I/O-node chunks) on the paper's partition.
    config = CheckpointConfig(checkpoints=4, state_bytes=16 * MB, chunk_bytes=1024 * KB)
    return _experiment("checkpoint", seed, smoke, config)


def _htf_event(seed: int, smoke: bool):
    return _experiment("htf", seed, smoke)


def _htf_fluid(seed: int, smoke: bool):
    return _experiment("htf", seed, smoke, fidelity="fluid")


def _escat_ppfs(seed: int, smoke: bool):
    from repro.apps.escat import EscatConfig
    from repro.apps.workloads import production_machine
    from repro.ppfs.policies import PPFSPolicies

    # 512 ESCAT nodes on the production machine: at the paper's 128 the
    # run is too short for the ppfs layer to stand out from setup.
    return _experiment(
        "escat", seed, smoke, EscatConfig(nodes=512), production_machine,
        filesystem="ppfs", policies=PPFSPolicies.from_name("escat_tuned"),
    )


def _htf_observed(seed: int, smoke: bool):
    from repro.apps.htf import HTFConfig

    # A quarter of the partition and two SCF passes: about 100k spans,
    # so a sample stays near three CPU-seconds while spans, telemetry,
    # analysis and export still carry most of it.
    config = HTFConfig(nodes=32, extra_record_nodes=21, scf_passes=2)
    return _experiment("htf", seed, smoke, config, spans=True, telemetry=True)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ckpt-storm",
            "barrier-synchronized checkpoint write storm; per-chunk fan-out, "
            "I/O-node submits and kernel events carry the run",
            _ckpt_storm,
            pins=("ef575aada064",),
        ),
        Workload(
            "htf-event",
            "read-dominated HTF with pscf re-reads on the event path; a "
            "write-only gain that costs reads shows here",
            _htf_event,
            pins=("7db61a37a8df", "130da3f68ac0", "5c1eb68ef2e2"),
        ),
        Workload(
            "htf-fluid",
            "the same HTF priced in closed form by sim.fluid; the kernel idles, "
            "so event-path gains should not move it",
            _htf_fluid,
            event_twin="htf-event",
        ),
        Workload(
            "escat-ppfs",
            "ESCAT on PPFS with write-behind and aggregation; the only "
            "workload that runs the ppfs layer and its columnar flusher",
            _escat_ppfs,
            pins=("40db659283d0",),
        ),
        Workload(
            "htf-observed",
            "HTF with spans and telemetry through analysis and export; the "
            "observability layers carry the run and its memory",
            _htf_observed,
            pins=("7db61a37a8df", "651b6db1fa71", "de9df6d5ecff"),
        ),
    )
}


# -- layers -------------------------------------------------------------------
#: ``src/repro``-relative path prefix -> layer, first match wins.  Files
#: under ``src/repro`` that match nothing belong to ``core``; code outside
#: it (numpy, the stdlib, builtins, this harness) to ``other``.
LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("sim/fluid.py", "sim.fluid"),
    ("sim/", "sim"),
    ("apps/", "apps"),
    ("pfs/", "pfs"),
    ("ppfs/", "ppfs"),
    ("machine/ionode.py", "machine.ionode"),
    ("machine/raid.py", "machine.ionode"),
    ("machine/disk.py", "machine.ionode"),
    ("machine/burstbuffer.py", "machine.ionode"),
    ("machine/mesh.py", "machine.mesh"),
    ("pablo/", "pablo"),
    ("spans/", "spans"),
    ("telemetry/", "telemetry"),
    ("analysis/", "analysis"),
)

LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in LAYER_PREFIXES)
) + ("core", "other")


def layer_of(filename: str, repro_dir: str) -> str:
    """The layer that owns code defined in ``filename``."""
    rel = os.path.relpath(filename, repro_dir) if os.path.isabs(filename) else ".."
    if rel.startswith(".."):
        return "other"
    rel = rel.replace(os.sep, "/")
    for prefix, layer in LAYER_PREFIXES:
        if rel.startswith(prefix):
            return layer
    return "core"


#: Call-count metric -> the (``src/repro``-relative file, function name)
#: pairs it sums.  Only plain functions: cProfile counts every resume of
#: a generator as a call.
CALL_COUNTS: dict[str, tuple[tuple[str, str], ...]] = {
    "pfs.fanout.calls": (("pfs/filesystem.py", "_fanout"), ("ppfs/server.py", "_fanout")),
    "pfs.decompose.calls": (("pfs/striping.py", "decompose"),),
    "pfs.decompose_batch.calls": (("pfs/striping.py", "decompose_batch"),),
    "machine.ionode.submit.calls": (
        ("machine/ionode.py", "submit"), ("machine/ionode.py", "submit_control"),
    ),
    "machine.ionode.submit_batch.calls": (("machine/ionode.py", "submit_batch"),),
    "machine.raid.service.calls": (("machine/raid.py", "service_time"),),
    "machine.raid.service_batch.calls": (("machine/raid.py", "service_batch"),),
    "machine.mesh.messages": (("machine/mesh.py", "message_time"),),
}
