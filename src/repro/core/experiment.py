"""Experiment harness: application x machine x file system -> trace(s).

One declarative record (:class:`Experiment`) names everything a run
needs: an application from the registry and its config, plus the
:class:`~repro.core.assembly.Assembly` fields that compose the machine,
file system and optional layers.  ``run()`` builds the assembly, hands
the app's runner the capture factory, and finishes the run.  This is
the entry point the benches, examples and tests share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .assembly import Assembly, ExperimentResult
from .registry import APPLICATIONS

__all__ = ["Experiment", "ExperimentResult"]


@dataclass
class Experiment(Assembly):
    """Declarative description of one run.

    Parameters
    ----------
    app:
        'escat', 'render', 'htf', 'checkpoint' or 'trace' (replay an
        ingested trace, see :mod:`repro.apps.trace`).
    config:
        Application workload config; None = the paper's run.

    Every other field is an :class:`Assembly` field (keyword-only).
    """

    app: str
    config: Any = None

    def __post_init__(self) -> None:
        if self.app not in APPLICATIONS:
            raise ValueError(f"unknown app {self.app!r}; pick from {sorted(APPLICATIONS)}")
        super().__post_init__()

    def run(self) -> ExperimentResult:
        """Execute the experiment; returns traces keyed by program name."""
        entry = APPLICATIONS[self.app]
        config = self.config if self.config is not None else entry.presets["paper"]()
        if not isinstance(config, entry.config_type):
            raise TypeError(
                f"{self.app} needs {entry.config_type.__name__}, got {type(config).__name__}"
            )
        result = self.build()
        result.traces, result.app = entry.runner(
            self.app, result.machine, result.fs, config, self.capture
        )
        return self.finish(result)
