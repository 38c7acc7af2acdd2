"""Parallel experiment-campaign engine with a content-addressed result cache.

Turns the single-run :class:`~repro.core.Experiment` harness into a
fleet runner: declare a parameter grid (:class:`CampaignSpec`), execute
it across worker processes (:class:`CampaignRunner`), and every finished
run lands in an on-disk cache keyed by the run's content hash
(:class:`ResultCache`) — so repeating a campaign re-simulates nothing
and extending it re-simulates only the new cells.

>>> from repro.campaign import CampaignSpec, CampaignRunner
>>> spec = CampaignSpec(apps=("escat", "render"), filesystems=("pfs", "ppfs"),
...                     policies=(None, "escat_tuned"))
>>> report = CampaignRunner(spec, cache_dir="cache/", jobs=4).run()  # doctest: +SKIP
>>> print(report.summary())  # doctest: +SKIP
"""

from .cache import MODEL_VERSION, ResultCache
from .metrics import CampaignManifest, RunRecord, render_summary, run_metrics
from .progress import Progress
from .runner import CampaignReport, CampaignRunner, execute_run
from .spec import CampaignSpec, RunSpec

__all__ = [
    "CampaignSpec",
    "RunSpec",
    "CampaignRunner",
    "CampaignReport",
    "MODEL_VERSION",
    "ResultCache",
    "CampaignManifest",
    "RunRecord",
    "Progress",
    "run_metrics",
    "render_summary",
    "execute_run",
]
