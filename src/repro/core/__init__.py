"""The characterization pipeline: experiments, reports, comparisons."""

from ..analysis.report import CharacterizationReport
from .assembly import Assembly
from .compare import AppSummary, CrossAppComparison
from .experiment import Experiment, ExperimentResult
from .registry import APPLICATIONS, paper_experiment, small_experiment
from .replay import ReplayResult, replay_trace

__all__ = [
    "Assembly",
    "CharacterizationReport",
    "AppSummary",
    "CrossAppComparison",
    "Experiment",
    "ExperimentResult",
    "APPLICATIONS",
    "ReplayResult",
    "replay_trace",
    "paper_experiment",
    "small_experiment",
]
