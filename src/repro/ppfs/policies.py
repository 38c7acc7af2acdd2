"""PPFS policy configuration.

One frozen record naming every policy choice PPFS exposes (§9: "user
control of file cache sizes and policies, as well as data placement").
Preset constructors give the configurations the benches compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..util.units import KB

__all__ = ["PPFSPolicies"]


@dataclass(frozen=True)
class PPFSPolicies:
    """Policy knobs for one PPFS instance."""

    #: Client block cache: block size and capacity (blocks); 0 blocks
    #: disables read caching.
    cache_block_bytes: int = 64 * KB
    cache_blocks: int = 64
    cache_policy: str = "lru"  # or 'mru'
    #: Prefetch policy: 'none', 'sequential', or 'adaptive'.
    prefetch: str = "none"
    prefetch_depth: int = 2
    #: Write-behind: writes complete into client buffers; a flusher
    #: drains them asynchronously.
    write_behind: bool = False
    #: Global aggregation: pending writes are coalesced into large
    #: contiguous transfers before hitting the I/O nodes.
    aggregation: bool = False
    #: Flusher wake interval (seconds) when write-behind is on.
    flush_interval_s: float = 1.0
    #: Aggregation drains runs of at least this size eagerly; smaller
    #: fragments wait for the interval flush.
    aggregate_min_bytes: int = 64 * KB
    #: Server-side (I/O-node) cache blocks per node; 0 disables.  This is
    #: the second level of the paper's "two level buffering at compute
    #: nodes and input/output nodes" (§8) — shared across all clients.
    server_cache_blocks: int = 0
    #: Server cache block size.
    server_cache_block_bytes: int = 64 * KB
    #: I/O-node service time for a server-cache hit (no disk motion).
    server_cache_hit_s: float = 0.0015

    def __post_init__(self) -> None:
        if self.cache_block_bytes < 1:
            raise ValueError("cache_block_bytes must be >= 1")
        if self.cache_blocks < 0:
            raise ValueError("cache_blocks must be >= 0")
        if self.cache_policy not in ("lru", "mru"):
            raise ValueError(f"cache_policy must be lru/mru, got {self.cache_policy!r}")
        if self.prefetch not in ("none", "sequential", "adaptive"):
            raise ValueError(f"bad prefetch policy {self.prefetch!r}")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        if self.flush_interval_s <= 0:
            raise ValueError("flush_interval_s must be > 0")
        if self.aggregate_min_bytes < 1:
            raise ValueError("aggregate_min_bytes must be >= 1")
        if self.server_cache_blocks < 0:
            raise ValueError("server_cache_blocks must be >= 0")
        if self.server_cache_block_bytes < 1:
            raise ValueError("server_cache_block_bytes must be >= 1")
        if self.server_cache_hit_s < 0:
            raise ValueError("server_cache_hit_s must be >= 0")

    # -- presets --------------------------------------------------------------
    @classmethod
    def presets(cls) -> tuple[str, ...]:
        """Names of the registered preset configurations, sorted."""
        return tuple(sorted(_PRESETS))

    @classmethod
    def from_name(cls, name: str) -> "PPFSPolicies":
        """Build the named preset (the registry the CLI and campaign share)."""
        try:
            return _PRESETS[name]()
        except KeyError:
            raise ValueError(
                f"unknown policy preset {name!r}; pick from {sorted(_PRESETS)}"
            ) from None

    @staticmethod
    def default() -> "PPFSPolicies":
        """Client caching on, everything else off (the constructor defaults)."""
        return PPFSPolicies()

    @staticmethod
    def passthrough() -> "PPFSPolicies":
        """No caching, no prefetch, synchronous writes (PFS-like)."""
        return PPFSPolicies(cache_blocks=0)

    @staticmethod
    def escat_tuned() -> "PPFSPolicies":
        """The §5.2 configuration: write-behind + global aggregation."""
        return PPFSPolicies(write_behind=True, aggregation=True)

    @staticmethod
    def sequential_reader() -> "PPFSPolicies":
        """Cache + fixed sequential readahead."""
        return PPFSPolicies(prefetch="sequential", prefetch_depth=4)

    @staticmethod
    def adaptive() -> "PPFSPolicies":
        """Cache + Markov pattern-predicting prefetch (§10)."""
        return PPFSPolicies(prefetch="adaptive", prefetch_depth=4)

    @staticmethod
    def two_level() -> "PPFSPolicies":
        """Client caches plus shared I/O-node caches (§8)."""
        return PPFSPolicies(server_cache_blocks=128)


#: name -> preset constructor; one source of truth for the CLI and the
#: campaign grid (``PPFSPolicies.presets()`` / ``PPFSPolicies.from_name()``).
_PRESETS: dict[str, Callable[[], PPFSPolicies]] = {
    "default": PPFSPolicies.default,
    "passthrough": PPFSPolicies.passthrough,
    "escat_tuned": PPFSPolicies.escat_tuned,
    "sequential_reader": PPFSPolicies.sequential_reader,
    "adaptive": PPFSPolicies.adaptive,
    "two_level": PPFSPolicies.two_level,
}
