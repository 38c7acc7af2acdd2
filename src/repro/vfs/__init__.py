"""repro.vfs — run arbitrary Python programs on the simulated machine.

The bring-your-own-app front-end: a Python file API
(:class:`SimFileSystem` / :class:`SimFile`) over the simulated parallel
file system, plus the :class:`SimMachine` harness that gives each user
program a compute node and a worker thread and captures a standard Pablo
trace.  Programs written against this API run unmodified; their I/O
composes with PPFS policy presets, fault plans, telemetry, spans and the
burst-buffer tier exactly like the built-in application skeletons.
"""

from .bridge import Channel, ProgramCrashed
from .file import AsyncRead, SimFile
from .filesystem import NodeExecutor, SimFileSystem
from .harness import SimMachine

__all__ = [
    "AsyncRead",
    "Channel",
    "NodeExecutor",
    "ProgramCrashed",
    "SimFile",
    "SimFileSystem",
    "SimMachine",
]
