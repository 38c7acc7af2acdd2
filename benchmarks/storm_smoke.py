"""Checkpoint-storm smoke: batched and scalar I/O nodes must agree.

Runs a small barrier-synchronized checkpoint storm in the production
dump shape — 1 MB writes, each fanning out to 16 I/O-node chunks — twice:
once with the eager (batched) I/O nodes, whose chunk completions fold
into one kernel event per request, and once with ``REPRO_NO_BATCH=1``
(the scalar queue, one completion per chunk).  Exits non-zero when the
trace hashes, makespans or any I/O node's counters differ.

Usage::

    PYTHONPATH=src python benchmarks/storm_smoke.py [--seed N]
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from repro.apps.checkpoint import CheckpointConfig
from repro.core.registry import paper_experiment
from repro.machine.mesh import MeshParams
from repro.machine.paragon import Paragon, ParagonConfig
from repro.util.units import MB


def _machine(seed: int) -> Paragon:
    return Paragon(
        ParagonConfig(
            compute_nodes=32, io_nodes=16, mesh=MeshParams(width=8, height=4), seed=seed
        )
    )


def storm(seed: int, scalar: bool) -> dict:
    """One run's observables; ``scalar`` sets ``REPRO_NO_BATCH`` while
    the machine is built (I/O nodes read it at construction)."""
    saved = os.environ.pop("REPRO_NO_BATCH", None)
    if scalar:
        os.environ["REPRO_NO_BATCH"] = "1"
    try:
        experiment = paper_experiment(
            "checkpoint",
            machine_factory=partial(_machine, seed),
            config=CheckpointConfig(
                nodes=32, checkpoints=2, state_bytes=4 * MB, chunk_bytes=1 * MB
            ),
        )
        result = experiment.run()
    finally:
        os.environ.pop("REPRO_NO_BATCH", None)
        if saved is not None:
            os.environ["REPRO_NO_BATCH"] = saved
    machine = result.machine
    return {
        "traces": {name: t.content_hash() for name, t in sorted(result.traces.items())},
        "now": machine.env.now,
        "ionodes": [
            (ion.requests_served, ion.bytes_served, ion.busy_time, ion.array._arm.head_pos)
            for ion in machine.ionodes
        ],
        "scheduled": machine.env._seq,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1995)
    args = parser.parse_args(argv)
    batched = storm(args.seed, scalar=False)
    scalar = storm(args.seed, scalar=True)
    for name, runs in (("batched", batched), ("scalar", scalar)):
        traces = ", ".join(f"{k} {v[:16]}" for k, v in runs["traces"].items())
        print(f"{name:>8}: {traces}  makespan {runs['now']:.6f}s  "
              f"{runs['scheduled']:,} kernel events")
    bad = [key for key in ("traces", "now", "ionodes") if batched[key] != scalar[key]]
    if bad:
        print(f"storm-smoke: batched and scalar runs differ in {', '.join(bad)}",
              file=sys.stderr)
        return 1
    print("storm-smoke: batched and scalar runs agree "
          f"({len(batched['ionodes'])} I/O nodes, counters and head positions equal)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
