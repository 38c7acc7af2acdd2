"""Spans overhead benchmark: off must cost ~nothing, on must stay cheap.

The spans subsystem's acceptance bars mirror telemetry's:

* **zero-cost when off** — with ``spans=None`` every hook site in the
  request path is one attribute load + ``is not None`` test; the
  off/baseline wall-time ratio should sit within run-to-run noise of
  1.0 (as with telemetry, the off path *is* the baseline — the checks
  cannot be compiled out);
* **cheap when on** — recording full causal span trees must keep
  paper-scale ESCAT overhead at or below 10% (x1.10).  Two design
  decisions keep the run itself cheap: ``op.*`` root spans are never
  recorded during the run at all (they are synthesized at finalize
  from the Pablo trace's columnar events), and hot hook sites stage
  flat fixed-width records into ``array('d')`` buffers whose parents
  are resolved vectorially by timestamp containment.  Finalize is
  deferred until the first consumer touches ``recorder.store``, so
  the spans-on timed window ends by reading ``len(store)``: the
  figure includes the expansion work the run defers, and every
  consumer of a span tree pays it.

Measured quantities:

* **run cost per app, off vs on** — interleaved `Experiment.run()`
  pairs for each small-scale app, spans-on including finalize;
* **paper-scale ESCAT, off vs on** — the x1.10 acceptance number;
* **store-append microbench** — raw ``SpanStore.add`` throughput, the
  per-span price of a direct (low-rate) hook.

Run cost is CPU time (``time.process_time``), not wall time: the
quantity under the acceptance bar is the compute cost of recording,
and on shared CI runners wall-clock deltas are dominated by whichever
run absorbs a neighbor's interference.  Each timed run is preceded by
a ``gc.collect()`` so one config's garbage never drifts into its
partner's measurement.

Runs two ways:

* under pytest-benchmark (``pytest benchmarks/bench_spans_overhead.py
  --benchmark-only``);
* as a script (``python benchmarks/bench_spans_overhead.py``) emitting
  the machine-readable ``BENCH_spans.json`` artifact the CI perf-smoke
  step uploads.
"""

from __future__ import annotations

import argparse
import gc
import time

from repro.core.registry import paper_experiment, small_experiment

from benchmarks._common import emit, emit_json

APPS = ("escat", "render", "htf", "checkpoint")

#: Paper-scale acceptance bar for spans-on overhead.
ACCEPTANCE_RATIO = 1.10


def paired_wall_time(app: str, repeats: int = 3, scale: str = "small"):
    """Interleaved best-of-N off/on pair: (off_s, on_s, span_count).

    Off and on runs alternate within one loop — and swap order every
    repeat — so slow process-wide drift (allocator growth, frequency
    scaling) hits both sides equally instead of inflating whichever
    config is consistently measured last.  Runs are timed in CPU time
    with collection forced (and deferred) around each one, so neither
    scheduler interference nor the partner config's garbage lands in a
    measurement.
    """
    build = paper_experiment if scale == "paper" else small_experiment
    best_off = best_on = float("inf")
    spans = 0
    for rep in range(repeats):
        for config in (None, True) if rep % 2 == 0 else (True, None):
            gc.collect()
            gc.disable()
            t0 = time.process_time()
            result = build(app, spans=config).run()
            if config is not None:
                spans = len(result.spans.store)  # runs the deferred finalize
            elapsed = time.process_time() - t0
            gc.enable()
            if config is None:
                best_off = min(best_off, elapsed)
            else:
                best_on = min(best_on, elapsed)
    return best_off, best_on, spans


def append_churn(appends: int = 100_000) -> int:
    """Raw store-append throughput: the price of a direct span hook."""
    from repro.spans import SpanStore

    store = SpanStore()
    add = store.add
    for i in range(appends):
        add("op.read", i % 128, float(i), float(i) + 0.5, -1, 4096)
    return len(store)


# -- pytest-benchmark entry points ---------------------------------------------
def test_store_append_throughput(benchmark):
    count = benchmark(append_churn, 20_000)
    assert count == 20_000


def test_spans_off_wall_time(benchmark):
    best, _ = benchmark(
        lambda: (small_experiment("escat", spans=None).run(), 0)
    )
    assert best is not None


def test_spans_on_wall_time(benchmark):
    def run_and_finalize():
        result = small_experiment("escat", spans=True).run()
        return len(result.spans.store)

    assert benchmark(run_and_finalize) > 0


# -- script entry (CI perf-smoke, `make perf`) ---------------------------------
def main(argv=None) -> str:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N per config (default 3)"
    )
    parser.add_argument(
        "--skip-paper", action="store_true",
        help="skip the paper-scale ESCAT acceptance measurement",
    )
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    appended = append_churn()
    append_s = time.perf_counter() - t0

    payload: dict = {
        "append_per_s": round(appended / append_s),
        "acceptance_ratio": ACCEPTANCE_RATIO,
        "wall_s": {},
        "overhead_ratio": {},
    }
    lines = [f"store append: {payload['append_per_s']:,} spans/s"]
    for app in APPS:
        off, on, spans = paired_wall_time(app, args.repeats)
        ratio = on / off if off else float("nan")
        payload["wall_s"][app] = {"off": round(off, 4), "on": round(on, 4)}
        payload["overhead_ratio"][app] = round(ratio, 4)
        lines.append(
            f"{app:<10} off {off:>8.4f}s  on {on:>8.4f}s "
            f"(x{ratio:.3f}, {spans:,} spans)"
        )

    if not args.skip_paper:
        off, on, spans = paired_wall_time("escat", args.repeats, scale="paper")
        ratio = on / off if off else float("nan")
        payload["paper_escat"] = {
            "off_s": round(off, 4),
            "on_s": round(on, 4),
            "spans": spans,
            "overhead_ratio": round(ratio, 4),
            "within_acceptance": ratio <= ACCEPTANCE_RATIO,
        }
        lines.append(
            f"paper escat: off {off:.4f}s  on {on:.4f}s "
            f"(x{ratio:.3f}, {spans:,} spans; acceptance <= "
            f"{ACCEPTANCE_RATIO:g}{'' if ratio <= ACCEPTANCE_RATIO else ', NOT MET'})"
        )

    emit("spans_overhead", "\n".join(lines))
    return emit_json("BENCH_spans", payload)


if __name__ == "__main__":
    print(main())
