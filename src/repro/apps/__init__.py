"""Application skeletons: ESCAT, RENDER, the HTF pipeline, and the
checkpoint/restart family."""

from .base import Application, Collective, PhaseMark
from .checkpoint import Checkpoint, CheckpointConfig, CheckpointStats
from .escat import Escat, EscatConfig
from .escat_science import ScienceEscat, ScienceEscatConfig
from .htf import HartreeFock, HTFConfig, HTFResult, Pargos, Pscf, Psetup
from .htf_science import ScienceHartreeFock, ScienceHTFConfig
from .render_science import ScienceRender, ScienceRenderConfig
from .render import Render, RenderConfig
from .synthetic import SyntheticConfig, SyntheticKernel
from .trace import TraceReplay, TraceReplayConfig
from .workloads import (
    paper_checkpoint,
    paper_escat,
    paper_htf,
    paper_machine,
    paper_render,
    small_checkpoint,
    small_escat,
    small_htf,
    small_machine,
    small_render,
)

__all__ = [
    "Application",
    "Collective",
    "PhaseMark",
    "Checkpoint",
    "CheckpointConfig",
    "CheckpointStats",
    "Escat",
    "EscatConfig",
    "ScienceEscat",
    "ScienceEscatConfig",
    "HartreeFock",
    "HTFConfig",
    "HTFResult",
    "Pargos",
    "Pscf",
    "Psetup",
    "ScienceHartreeFock",
    "ScienceHTFConfig",
    "ScienceRender",
    "ScienceRenderConfig",
    "Render",
    "RenderConfig",
    "SyntheticConfig",
    "SyntheticKernel",
    "TraceReplay",
    "TraceReplayConfig",
    "paper_checkpoint",
    "paper_escat",
    "paper_htf",
    "paper_machine",
    "paper_render",
    "small_checkpoint",
    "small_escat",
    "small_htf",
    "small_machine",
    "small_render",
]
