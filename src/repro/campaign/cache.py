"""Content-addressed on-disk result cache.

Each completed run is stored under ``<root>/<run_hash>/`` holding the
run's SDDF traces, its ``spec.json``, its ``metrics.json`` and the
:data:`MODEL_VERSION` that produced it.  Entries are built in a staging
directory and published with an atomic rename, so a cache can be shared
by concurrent workers and a killed campaign never leaves a half-written
entry that later looks like a hit.

``run_hash`` names *what* was simulated, not the code that simulated it,
so an entry written by an older simulator would otherwise be served as a
hit forever.  An entry whose model version differs from the current one
(or that has none) is *stale*: the runner recomputes it and
``repro campaign status`` flags it.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, Optional

from ..pablo.trace import Trace
from ..util.validation import sanitize_filename
from .spec import RunSpec

__all__ = ["MODEL_VERSION", "ResultCache"]

#: Version of the simulation model behind every cached result.  Bump it
#: whenever a change alters simulated results: the golden fixtures
#: (``tests/data/golden_trace_hashes.json``) are regenerated, or the span
#: records or telemetry counters whose summaries cached metrics hold
#: change.
MODEL_VERSION = 3

_METRICS = "metrics.json"
_SPEC = "spec.json"
_MODEL = "model_version"
_STAGING = ".staging"


class ResultCache:
    """Run results keyed by content hash."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)

    # -- paths -------------------------------------------------------------
    def entry_dir(self, run_hash: str) -> str:
        return os.path.join(self.root, run_hash)

    def trace_path(self, run_hash: str, name: str) -> str:
        return os.path.join(self.entry_dir(run_hash), f"{sanitize_filename(name)}.sddf")

    # -- queries -----------------------------------------------------------
    def has(self, run_hash: str) -> bool:
        """True iff a complete entry exists (metrics.json is written last)."""
        return os.path.isfile(os.path.join(self.entry_dir(run_hash), _METRICS))

    def load_metrics(self, run_hash: str) -> Optional[dict[str, Any]]:
        """The entry's metrics, or ``None`` when it is missing or its
        ``metrics.json`` does not parse (e.g. a truncated file)."""
        try:
            with open(os.path.join(self.entry_dir(run_hash), _METRICS)) as fh:
                metrics = json.load(fh)
        except (OSError, ValueError):
            return None
        return metrics if isinstance(metrics, dict) else None

    def model_version(self, run_hash: str) -> Optional[int]:
        """The model version the entry was written under (``None`` when it
        predates versioned entries or the file does not parse)."""
        try:
            with open(os.path.join(self.entry_dir(run_hash), _MODEL)) as fh:
                return int(fh.read())
        except (OSError, ValueError):
            return None

    def stale(self, run_hash: str) -> bool:
        """True iff the entry was written under another model version."""
        return self.model_version(run_hash) != MODEL_VERSION

    def load_spec(self, run_hash: str) -> Optional[RunSpec]:
        """The entry's run spec, or None when it is missing, unreadable or
        no longer validates (say, its trace file is gone)."""
        try:
            with open(os.path.join(self.entry_dir(run_hash), _SPEC)) as fh:
                return RunSpec.from_dict(json.load(fh))
        except (OSError, KeyError, ValueError):
            return None

    def load_trace(self, run_hash: str, name: str) -> Trace:
        return Trace.load(self.trace_path(run_hash, name))

    def entries(self) -> list[str]:
        """Hashes of all complete entries, sorted."""
        if not os.path.isdir(self.root):
            return []
        return sorted(h for h in os.listdir(self.root) if self.has(h))

    # -- mutation ----------------------------------------------------------
    def store(
        self, spec: RunSpec, traces: dict[str, Trace], metrics: dict[str, Any]
    ) -> str:
        """Publish one run's results; returns the entry directory.

        Safe against concurrent writers of the same hash: the loser's
        staging directory is discarded and the existing entry kept.
        """
        final = self.entry_dir(spec.run_hash)
        staging = os.path.join(self.root, _STAGING, f"{spec.run_hash}.{os.getpid()}")
        os.makedirs(staging, exist_ok=True)
        try:
            for name, trace in traces.items():
                trace.save(os.path.join(staging, f"{sanitize_filename(name)}.sddf"))
            with open(os.path.join(staging, _SPEC), "w") as fh:
                json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
            with open(os.path.join(staging, _MODEL), "w") as fh:
                fh.write(f"{MODEL_VERSION}\n")
            # metrics.json last: its presence marks the entry complete.
            with open(os.path.join(staging, _METRICS), "w") as fh:
                json.dump(metrics, fh, indent=2, sort_keys=True)
            try:
                os.replace(staging, final)
            except OSError:
                if not self.has(spec.run_hash):
                    raise
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return final

    def evict(self, run_hash: str) -> bool:
        """Remove one entry; returns whether anything was deleted."""
        path = self.entry_dir(run_hash)
        if not os.path.isdir(path):
            return False
        shutil.rmtree(path)
        return True

    def clean(self) -> int:
        """Remove every entry, manifest and staging debris; returns the
        number of entries removed."""
        removed = 0
        for run_hash in self.entries():
            removed += self.evict(run_hash)
        shutil.rmtree(os.path.join(self.root, _STAGING), ignore_errors=True)
        if os.path.isdir(self.root):
            for fn in os.listdir(self.root):
                if fn.endswith(".manifest.json"):
                    os.remove(os.path.join(self.root, fn))
            if not os.listdir(self.root):
                os.rmdir(self.root)
        return removed

    def size_bytes(self) -> int:
        """Total bytes stored under complete entries."""
        total = 0
        for run_hash in self.entries():
            entry = self.entry_dir(run_hash)
            for fn in os.listdir(entry):
                total += os.path.getsize(os.path.join(entry, fn))
        return total
