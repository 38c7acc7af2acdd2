"""Hierarchical storage management over PFS + tape.

A Unitree-style multilevel storage manager (§1): disk-resident files
migrate to tape when cold or when the disk high-water mark is crossed,
and accessing a migrated file transparently *stages it back in* — paying
the tape mount + stream penalty the file-archive studies in the paper's
related work (Jensen & Reed; Lawrie, Randall & Barton; Smith) measured.

:class:`HSM` is a facade over a file system: it binds the file system's
``recall`` hook, so every open of a migrated file first stages it in
(inside the traced open), and ``open`` notes each access; every other
operation passes straight through, so application skeletons run on an
HSM unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..pfs.errors import FileNotFound, PFSError
from ..pfs.filesystem import PFS
from .tape import TapeLibrary

__all__ = ["MigrationPolicy", "AgeBasedPolicy", "WatermarkPolicy", "HSM"]


@dataclass(frozen=True)
class MigrationPolicy:
    """Base policy: no migration (everything stays on disk)."""

    def victims(self, hsm: "HSM", now: float) -> list[str]:
        """Paths to migrate, ordered; subclasses implement."""
        return []


@dataclass(frozen=True)
class AgeBasedPolicy(MigrationPolicy):
    """Migrate files untouched for ``age_s`` seconds (oldest first).

    The Lawrie/Randall-style automatic file migration criterion.
    """

    age_s: float = 3600.0

    def victims(self, hsm: "HSM", now: float) -> list[str]:
        cold = [
            (last, path)
            for path, last in hsm.last_access.items()
            if now - last >= self.age_s and not hsm.is_migrated(path)
        ]
        return [path for _, path in sorted(cold)]


@dataclass(frozen=True)
class WatermarkPolicy(MigrationPolicy):
    """Keep disk residency under a high-water mark.

    When resident bytes exceed ``high_fraction * capacity``, migrate
    least-recently-accessed files until under ``low_fraction * capacity``.
    """

    capacity_bytes: int = 1 << 30
    high_fraction: float = 0.9
    low_fraction: float = 0.7

    def __post_init__(self) -> None:
        if not 0 < self.low_fraction < self.high_fraction <= 1.0:
            raise ValueError("need 0 < low < high <= 1")
        if self.capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1")

    def victims(self, hsm: "HSM", now: float) -> list[str]:
        resident = hsm.disk_resident_bytes()
        if resident <= self.high_fraction * self.capacity_bytes:
            return []
        target = self.low_fraction * self.capacity_bytes
        by_age = sorted(
            (last, path)
            for path, last in hsm.last_access.items()
            if not hsm.is_migrated(path)
        )
        out = []
        for _, path in by_age:
            if resident <= target:
                break
            f = hsm.fs.lookup(path)
            if f is None or f.openers:
                continue
            out.append(path)
            resident -= f.size
        return out


@dataclass
class HSMStats:
    """Migration/staging accounting."""

    migrations: int = 0
    stage_ins: int = 0
    bytes_migrated: int = 0
    bytes_staged_in: int = 0
    stage_in_wait_s: float = 0.0


class HSM:
    """Multilevel storage manager facade (see module docstring)."""

    def __init__(self, fs: PFS, tape: TapeLibrary, policy: Optional[MigrationPolicy] = None):
        self.fs = fs
        self.env = fs.env
        self.tape = tape
        self.policy = policy or MigrationPolicy()
        self._migrated: set[str] = set()
        # In-flight recalls: concurrent openers of the same migrated file
        # share one tape transfer instead of each mounting a volume.
        self._staging: dict[str, object] = {}
        self.last_access: dict[str, float] = {}
        self.stats = HSMStats()
        fs.recall = self._recall

    # -- state ------------------------------------------------------------------
    def is_migrated(self, path: str) -> bool:
        return path in self._migrated

    def disk_resident_bytes(self) -> int:
        """Bytes of file data currently on the disk level."""
        return sum(
            f.size
            for path, f in self.fs._files.items()
            if path not in self._migrated
        )

    def tape_resident_paths(self) -> list[str]:
        return sorted(self._migrated)

    # -- migration ----------------------------------------------------------------
    def migrate(self, path: str):
        """Process generator: move a file's data to tape.

        The file's metadata stays on disk (so later opens find it); a
        subsequent open pays the stage-in.  Open files cannot migrate.
        """
        f = self.fs.lookup(path)
        if f is None:
            raise FileNotFound(path)
        if f.openers:
            raise PFSError(f"cannot migrate {path!r}: file is open")
        if path in self._migrated:
            return
        yield from self.tape.write(f.size)
        self._migrated.add(path)
        self.stats.migrations += 1
        self.stats.bytes_migrated += f.size

    def stage_in(self, path: str):
        """Process generator: recall a migrated file to disk.

        Concurrent callers coalesce: the first performs the tape read;
        the rest wait for the same recall to complete.
        """
        from ..sim.core import Event

        f = self.fs.lookup(path)
        if f is None:
            raise FileNotFound(path)
        if path not in self._migrated:
            return
        pending = self._staging.get(path)
        if pending is not None:
            t0 = self.env.now
            yield pending
            self.stats.stage_in_wait_s += self.env.now - t0
            return
        done = Event(self.env)
        self._staging[path] = done
        t0 = self.env.now
        try:
            yield from self.tape.read(f.size)
        finally:
            del self._staging[path]
        self._migrated.discard(path)
        self.stats.stage_ins += 1
        self.stats.bytes_staged_in += f.size
        self.stats.stage_in_wait_s += self.env.now - t0
        done.succeed()

    def apply_policy(self):
        """Process generator: migrate everything the policy selects now."""
        for path in self.policy.victims(self, self.env.now):
            if not self.is_migrated(path):
                yield from self.migrate(path)

    def _recall(self, path: str):
        """The file system's open-time recall: stage ``path`` in if it
        lives on tape."""
        if path in self._migrated:
            yield from self.stage_in(path)

    # -- file-system facade ---------------------------------------------------------
    def open(self, node: int, path: str, *args, **kwargs):
        """Open (migrated files stage in transparently) and note the access."""
        fd = yield from self.fs.open(node, path, *args, **kwargs)
        self.last_access[path] = self.env.now
        return fd

    def ensure(self, path: str, **kwargs):
        f = self.fs.ensure(path, **kwargs)
        self.last_access.setdefault(path, self.env.now)
        return f

    def __getattr__(self, name):
        # Everything else (read/write/seek/close/...) passes through.
        return getattr(self.fs, name)
