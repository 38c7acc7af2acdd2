"""Paper-calibrated and test-scale workload presets.

``paper_*`` presets reproduce the runs behind Tables 1-6 and Figures
2-17 (128-node partition of the Caltech machine).  ``small_*`` presets
shrink node counts and iteration counts for fast tests while preserving
each code's structure (phases, modes, file roles).
"""

from __future__ import annotations

from ..machine.mesh import MeshParams
from ..machine.paragon import Paragon, ParagonConfig
from ..util.units import KB
from .checkpoint import CheckpointConfig
from .escat import EscatConfig
from .htf import HTFConfig
from .render import RenderConfig

__all__ = [
    "paper_machine",
    "small_machine",
    "production_machine",
    "paper_escat",
    "small_escat",
    "production_escat",
    "paper_render",
    "small_render",
    "production_render",
    "paper_htf",
    "small_htf",
    "production_htf",
    "paper_checkpoint",
    "small_checkpoint",
    "production_checkpoint",
]


def paper_machine(seed: int = 1995) -> Paragon:
    """The 128-node partition + 16 I/O nodes used for all three studies."""
    return Paragon(
        ParagonConfig(
            compute_nodes=128,
            io_nodes=16,
            mesh=MeshParams(width=16, height=8),
            seed=seed,
        )
    )


def small_machine(nodes: int = 8, io_nodes: int = 4, seed: int = 7) -> Paragon:
    """A test-scale machine (structure intact, cheap to simulate)."""
    width = max(2, nodes // 2)
    height = max(2, -(-nodes // width))
    return Paragon(
        ParagonConfig(
            compute_nodes=nodes,
            io_nodes=io_nodes,
            mesh=MeshParams(width=width, height=height),
            seed=seed,
        )
    )


def production_machine(seed: int = 1995) -> Paragon:
    """The ROADMAP north-star scale: 2048 compute nodes + 64 I/O nodes.

    One order of magnitude past the paper's partition — the size the
    batched execution layer exists for.  The mesh is the machine-family
    64x32 grid; the I/O-node count keeps the paper's 32:1
    compute-to-I/O-node ratio.
    """
    return Paragon(
        ParagonConfig(
            compute_nodes=2048,
            io_nodes=64,
            mesh=MeshParams(width=64, height=32),
            seed=seed,
        )
    )


def paper_escat() -> EscatConfig:
    """The Table 1-2 run: 128 nodes, 52 cycles, 2 KB quadrature records."""
    return EscatConfig()


def small_escat(nodes: int = 8) -> EscatConfig:
    """Structure-preserving miniature (4 cycles, small init reads)."""
    return EscatConfig(
        nodes=nodes,
        iterations=4,
        cycle_compute_start_s=2.0,
        cycle_compute_end_s=1.0,
        init_small_reads=30,
        init_medium_reads=3,
        init_large_reads=4,
        init_compute_s=1.0,
        phase3_compute_s=1.0,
        phase4_compute_s=0.5,
    )


def production_escat(nodes: int = 2048) -> EscatConfig:
    """ESCAT scaled to the production partition.

    Per-node structure (52 cycles, 2 KB quadrature records) is the
    paper's; only the partition grows.
    """
    return EscatConfig(nodes=nodes)


def paper_render() -> RenderConfig:
    """The Table 3-4 run: 100 frames of the Mars flyby dataset."""
    return RenderConfig()


def small_render(renderers: int = 7, frames: int = 5) -> RenderConfig:
    """Miniature flyby: few frames, megabyte-scale dataset."""
    return RenderConfig(
        renderers=renderers,
        frames=frames,
        data_files=((4, 3 * 1024 * 1024), (6, 3 * 1024 * 1024 // 2)),
        control_reads=4,
        control_seeks=2,
        render_compute_s=0.3,
        setup_compute_s=0.5,
    )


def production_render(renderers: int = 2047, frames: int = 100) -> RenderConfig:
    """RENDER scaled to the production partition (one control node)."""
    return RenderConfig(renderers=renderers, frames=frames)


def paper_checkpoint() -> CheckpointConfig:
    """Paper-scale checkpointing: 128 nodes dump 512 MB every 5 minutes."""
    return CheckpointConfig()


def small_checkpoint(nodes: int = 8) -> CheckpointConfig:
    """Structure-preserving miniature: 4 epochs of 256 KB/node dumps."""
    return CheckpointConfig(
        nodes=nodes,
        checkpoints=4,
        interval_s=2.0,
        state_bytes=256 * KB,
        chunk_bytes=64 * KB,
    )


def production_checkpoint(nodes: int = 2048) -> CheckpointConfig:
    """Checkpoint/restart at production scale.

    16 MB of state per node in 1 MB chunks: 32 GB per epoch across the
    partition, the regime where the burst-buffer/write-behind tiers and
    the batched flush path carry the load.
    """
    return CheckpointConfig(
        nodes=nodes,
        state_bytes=16 * 1024 * KB,
        chunk_bytes=1024 * KB,
    )


def paper_htf() -> HTFConfig:
    """The Table 5-6 run: 16 atoms, 128 nodes, 6 SCF passes."""
    return HTFConfig()


def production_htf(nodes: int = 2048) -> HTFConfig:
    """HTF scaled to the production partition.

    The record-holder split keeps the paper's proportions (roughly two
    thirds of the partition holds an extra integral record).
    """
    return HTFConfig(nodes=nodes, extra_record_nodes=(nodes * 84) // 128)


def small_htf(nodes: int = 8) -> HTFConfig:
    """Miniature pipeline: few records and passes, tiny aux plan."""
    return HTFConfig(
        nodes=nodes,
        extra_record_nodes=nodes // 2,
        records_base=3,
        scf_passes=2,
        psetup_small_reads=12,
        psetup_medium_reads=8,
        psetup_small_writes=10,
        psetup_medium_writes=9,
        psetup_compute_per_op_s=0.01,
        pargos_input_small_reads=10,
        pargos_input_medium_reads=2,
        pargos_cycle_compute_s=0.5,
        scf_compute_per_record_s=0.1,
        scf_pass_compute_s=0.2,
        aux_opens=8,
        aux_closes=7,
        aux_small_reads=12,
        aux_medium_reads=6,
        aux_large_reads=4,
        aux_small_writes=5,
        aux_medium_writes=6,
        aux_large_writes=2,
        aux_seeks=9,
    )
