"""Production-scale (2048-node) wall-time benchmark.

The batched columnar execution layer exists so the ROADMAP's "thousands
of compute nodes" target is simulable in interactive time.  This bench
pins that claim with numbers: `Experiment.run()` wall seconds, event
counts, and simulated-seconds-per-wall-second throughput for the
``--scale production`` preset (2048 compute nodes, 64 I/O nodes).

Runs two ways:

* ``python benchmarks/bench_production_scale.py`` — full production
  runs of ESCAT, checkpoint, and HTF (a minute or two of wall time);
* ``python benchmarks/bench_production_scale.py --smoke`` — the CI
  ``make scale-smoke`` entry: still the full 2048-node machine, but a
  structurally-trimmed ESCAT workload so the job finishes in seconds.

Both emit the machine-readable ``BENCH_scale.json`` artifact the CI
perf-smoke step uploads.
"""

from __future__ import annotations

import argparse
import dataclasses

from repro.core.registry import APPLICATIONS, production_experiment

from benchmarks._common import best_of, emit, emit_json

#: Full-mode applications (render's 100-frame flyby at 2047 renderers is
#: left to explicit runs; the three below cover write burst, flush
#: cohort, and read-heavy phase structure).
FULL_APPS = ("escat", "checkpoint", "htf")

#: Smoke-mode workload trim: the full 2048-node partition, but two ESCAT
#: cycles and a token init phase, so CI measures the production machine
#: path without paying a full production run.
SMOKE_OVERRIDES = {
    "iterations": 2,
    "init_small_reads": 4,
    "init_medium_reads": 1,
    "init_large_reads": 1,
}


def run_production(app: str, repeats: int = 1, overrides: dict | None = None) -> dict:
    """One production-preset measurement record (wall is best-of-N)."""
    kwargs = {}
    if overrides:
        base = APPLICATIONS[app].presets["production"]()
        kwargs["config"] = dataclasses.replace(base, **overrides)
    wall_s, result = best_of(
        lambda exp: exp.run(),
        repeats,
        setup=lambda: production_experiment(app, **kwargs),
    )
    trace = result.trace
    machine = result.machine
    return {
        "wall_s": round(wall_s, 4),
        "events": len(trace),
        "sim_span_s": round(trace.duration, 3),
        "sim_s_per_wall_s": round(trace.duration / wall_s, 1) if wall_s else 0.0,
        "compute_nodes": machine.config.compute_nodes,
        "io_nodes": machine.config.io_nodes,
    }


def measure(smoke: bool, repeats: int) -> dict:
    if smoke:
        apps = {"escat": run_production("escat", repeats, SMOKE_OVERRIDES)}
    else:
        apps = {app: run_production(app, repeats) for app in FULL_APPS}
    return {"mode": "smoke" if smoke else "full", "apps": apps}


def render(payload: dict) -> str:
    lines = [
        f"production scale ({payload['mode']})",
        f"{'app':<12} {'wall(s)':>9} {'events':>10} {'sim span(s)':>12} "
        f"{'sim s / wall s':>15} {'nodes':>6} {'io':>4}",
        "-" * 74,
    ]
    for app, rec in payload["apps"].items():
        lines.append(
            f"{app:<12} {rec['wall_s']:>9.2f} {rec['events']:>10,} "
            f"{rec['sim_span_s']:>12,.0f} {rec['sim_s_per_wall_s']:>15,.1f} "
            f"{rec['compute_nodes']:>6} {rec['io_nodes']:>4}"
        )
    return "\n".join(lines)


# -- pytest-benchmark entry point ----------------------------------------------
def test_production_smoke(benchmark):
    rec = benchmark(run_production, "escat", 1, SMOKE_OVERRIDES)
    assert rec["compute_nodes"] == 2048 and rec["events"] > 0


# -- script entry (CI scale-smoke, `make perf`) --------------------------------
def main(argv=None) -> str:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="trimmed ESCAT on the full 2048-node machine (CI entry)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="best-of-N per app (default 1)"
    )
    args = parser.parse_args(argv)
    payload = measure(args.smoke, args.repeats)
    emit("production_scale", render(payload))
    return emit_json("BENCH_scale", payload)


if __name__ == "__main__":
    print(main())
