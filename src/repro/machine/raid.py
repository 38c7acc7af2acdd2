"""RAID-3 disk array model.

Each Paragon I/O node owned a RAID-3 array of five 1.2 GB disks (§3.2):
byte-interleaved striping over four data disks plus one dedicated parity
disk.  In RAID-3 all spindles are synchronized and every request engages
every arm, so:

* transfer bandwidth is ~4x a single disk (four data disks in parallel),
* positioning time is that of a single disk (arms move in lockstep),
* small writes carry no read-modify-write penalty (parity is computed on
  the fly across the byte-interleaved stripe) but still pay the full
  positioning cost, which is why tiny requests utilize the array poorly —
  the effect §8 discusses for ESCAT's 2 KB writes.

Losing one disk is survivable — that is the array's whole point — but not
free.  The array walks a small state machine driven by
:mod:`repro.faults`:

* ``healthy`` — normal service.
* ``degraded`` — one disk lost; every access reconstructs the missing
  byte lane from the survivors plus parity, multiplying service time by
  ``degraded_service_factor`` (plus a fixed parity-engine overhead).
* ``rebuilding`` — a spare is being rewritten; service stays degraded
  while the rebuild traffic additionally competes for the arm (the
  injector issues the rebuild reads through the I/O-node queue).
* ``failed`` — a second disk lost before the rebuild finished; RAID-3
  cannot reconstruct, and any access raises :class:`DataLoss`.

Independently, :meth:`Raid3Array.set_slow` models a fail-slow disk (a
spindle serving at a fraction of its rated speed without failing
outright) by scaling service times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..pfs.errors import DataLoss
from ..util.validation import check_nonneg
from .disk import Disk, DiskParams

__all__ = ["Raid3Params", "Raid3Array", "STATE_CODES"]

#: Numeric codes for the array state machine, stable across releases so
#: telemetry time series can store the state as a float64 column.
STATE_CODES = {"healthy": 0, "degraded": 1, "rebuilding": 2, "failed": 3}


@dataclass(frozen=True)
class Raid3Params:
    """Array geometry: data disks + one parity disk, per-disk params."""

    data_disks: int = 4
    disk: DiskParams = field(default_factory=DiskParams)
    #: Array controller overhead per request (command + parity engine).
    controller_overhead_s: float = 0.0015
    #: Service-time multiplier while one disk is lost (reconstruction
    #: reads engage the parity engine on every access).
    degraded_service_factor: float = 1.6
    #: Fixed extra per-request cost in degraded mode (lane reconstruction
    #: setup in the controller).
    degraded_overhead_s: float = 0.0005
    #: Controller reconfiguration window right after a disk loss, during
    #: which the I/O node rejects data requests (DegradedService).
    reconfig_s: float = 0.05

    def __post_init__(self) -> None:
        if self.data_disks < 1:
            raise ValueError(f"data_disks must be >= 1, got {self.data_disks}")
        check_nonneg(self.controller_overhead_s, "controller_overhead_s")
        if self.degraded_service_factor < 1.0:
            raise ValueError(
                "degraded_service_factor must be >= 1, "
                f"got {self.degraded_service_factor}"
            )
        check_nonneg(self.degraded_overhead_s, "degraded_overhead_s")
        check_nonneg(self.reconfig_s, "reconfig_s")

    @property
    def capacity_bytes(self) -> int:
        """Usable capacity (parity disk excluded)."""
        return self.data_disks * self.disk.capacity_bytes

    @property
    def transfer_rate_bps(self) -> float:
        """Aggregate media rate across the data disks."""
        return self.data_disks * self.disk.transfer_rate_bps


class Raid3Array:
    """Service-time calculator for one RAID-3 array.

    Byte interleave means a logical request of ``n`` bytes moves ``n /
    data_disks`` bytes per disk, all disks in lockstep; the array behaves
    like one disk with multiplied transfer rate.  We model it with a single
    representative :class:`Disk` whose transfer is scaled.
    """

    def __init__(self, params: Raid3Params | None = None):
        self.params = params or Raid3Params()
        # Representative lockstep spindle; logical byte addresses are
        # mapped to per-disk addresses by dividing by the interleave width.
        self._arm = Disk(self.params.disk)
        #: healthy | degraded | rebuilding | failed (see module docstring).
        self.state = "healthy"
        # One combined multiplier/addend pair so the hot path pays a
        # single flag check when the array is pristine.  _impaired is the
        # only attribute service_time reads on the healthy path.
        self._impaired = False
        self._degraded_factor = 1.0
        self._slow_factor = 1.0
        self._factor = 1.0
        self._extra_s = 0.0

    @property
    def capacity_bytes(self) -> int:
        return self.params.capacity_bytes

    # -- fault state transitions (driven by repro.faults) ----------------------
    def _refresh(self) -> None:
        self._factor = self._degraded_factor * self._slow_factor
        self._extra_s = (
            self.params.degraded_overhead_s if self._degraded_factor != 1.0 else 0.0
        )
        self._impaired = (
            self._factor != 1.0 or self._extra_s != 0.0 or self.state == "failed"
        )

    def fail_disk(self) -> str:
        """Lose one disk; returns the new state.

        A first loss degrades the array; a second loss before the rebuild
        completed fails it outright (RAID-3 tolerates exactly one).
        """
        if self.state == "healthy":
            self.state = "degraded"
            self._degraded_factor = self.params.degraded_service_factor
        else:
            self.state = "failed"
        self._refresh()
        return self.state

    def start_rebuild(self) -> None:
        """A spare is in place; reconstruction traffic begins.

        Service stays at the degraded rate until :meth:`complete_rebuild`.
        """
        if self.state != "degraded":
            raise ValueError(f"cannot start rebuild from state {self.state!r}")
        self.state = "rebuilding"
        self._refresh()

    def complete_rebuild(self) -> None:
        """The spare holds a full copy again; service returns to normal."""
        if self.state != "rebuilding":
            raise ValueError(f"cannot complete rebuild from state {self.state!r}")
        self.state = "healthy"
        self._degraded_factor = 1.0
        self._refresh()

    def set_slow(self, factor: float) -> None:
        """Mark the array fail-slow: every service time scales by ``factor``."""
        if factor < 1.0:
            raise ValueError(f"slow factor must be >= 1, got {factor}")
        self._slow_factor = factor
        self._refresh()

    def clear_slow(self) -> None:
        """End a fail-slow episode."""
        self._slow_factor = 1.0
        self._refresh()

    def service_time(self, offset: int, nbytes: int, is_write: bool = False) -> float:
        """Service time for a logical request at ``offset`` of ``nbytes``.

        ``is_write`` is accepted for interface symmetry; RAID-3 reads and
        writes cost the same (no read-modify-write at byte interleave).
        Raises :class:`DataLoss` once two disks are gone.
        """
        if offset < 0:  # inline check_nonneg: per-request hot path
            raise ValueError(f"offset must be >= 0, got {offset!r}")
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        p = self.params
        per_disk_offset = offset // p.data_disks
        per_disk_bytes = -(-nbytes // p.data_disks) if nbytes else 0  # ceil
        if not self._impaired:
            t = self._arm.service_time(per_disk_offset, per_disk_bytes)
            return t + p.controller_overhead_s
        if self.state == "failed":
            raise DataLoss(
                "RAID-3 array lost a second disk before the rebuild "
                "finished; the stripe is unrecoverable"
            )
        t = self._arm.service_time(per_disk_offset, per_disk_bytes)
        return t * self._factor + self._extra_s + p.controller_overhead_s

    def service_batch(
        self, offsets: np.ndarray, sizes: np.ndarray, is_write: bool = False
    ) -> np.ndarray:
        """Vectorized :meth:`service_time` over a request cohort.

        Same address mapping and impairment arithmetic as the scalar path,
        element-for-element bit-identical (the expressions keep the scalar
        grouping).  Raises :class:`DataLoss` up front when failed — the
        scalar loop would raise on its first request too.
        """
        p = self.params
        if self.state == "failed":
            raise DataLoss(
                "RAID-3 array lost a second disk before the rebuild "
                "finished; the stripe is unrecoverable"
            )
        per_disk_offsets = offsets // p.data_disks
        per_disk_sizes = -((-sizes) // p.data_disks)  # ceil, 0 stays 0
        t = self._arm.service_batch(per_disk_offsets, per_disk_sizes)
        if not self._impaired:
            return t + p.controller_overhead_s
        return t * self._factor + self._extra_s + p.controller_overhead_s
