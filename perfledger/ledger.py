"""The simulator's performance ledger: end-to-end and per-layer metrics
for five named workloads, with correctness gates.

::

    python3 perfledger/ledger.py [--workload a,b] [--seed 1995]
        [--repeats 5 | --seconds S] [--trace 0|1] [--json PATH]
        [--compare OLD.json] [--smoke]

Run from the repository root.  Every sample is a fresh child process
(``sample.py``), one at a time.  Samples go round-robin across the
selected workloads and the starting workload rotates each round.  With
``--trace 1`` each round also makes one cProfile-traced sample per
workload, alternating which of the pair runs first; the traced samples
give the per-layer split and never feed an end-to-end number.

``--repeats N`` runs N rounds; ``--seconds S`` instead starts rounds
until the next sample would end past S seconds (the first round always
runs).  Every timing is the child's CPU seconds.  Metric names, units
and regression bounds come from ``BENCHMARK.json`` at the root.

When one workload is selected, the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end medians with ``--trace 0`` or the per-layer values with
``--trace 1``.  The exit code is 1 when a workload produced no usable
sample or ``--compare`` finds a regression, 2 on bad arguments or when
``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import LAYERS, PIN_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
TMP = os.path.join(ROOT, ".ledger-tmp")

#: A sample that runs longer than this fails.
SAMPLE_TIMEOUT_S = 300.0
#: With ``--seconds``, every child is stopped by budget + this slack.
DEADLINE_SLACK_S = 150.0


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- running samples ----------------------------------------------------------
def run_child(name: str, seed: int, smoke: bool, traced: bool, timeout: float) -> dict:
    """One sample in a fresh child: its JSON output plus ``ok``/``error``."""
    spec = {"workload": name, "seed": seed, "smoke": smoke, "traced": traced, "tmp": TMP}
    # A fixed hash seed gives every child the same set/dict layouts, so
    # peak RSS repeats instead of wandering with string-hash randomization.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, SAMPLE, json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "error": f"timed out after {timeout:.0f} s"}
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        return {"ok": False, "traced": traced, "error": lines[-1], "elapsed": elapsed}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"ok": True, "traced": traced, "error": None, "elapsed": elapsed, **out}


def schedule(names: list[str], traced: bool):
    """Endless (round, workload, traced) jobs: round-robin, the starting
    workload rotating each round; with ``traced`` an untraced/traced pair
    per workload whose order alternates by round."""
    for rnd in itertools.count():
        shift = rnd % len(names)
        for name in names[shift:] + names[:shift]:
            pair = [(name, False), (name, True)] if traced else [(name, False)]
            for kind in pair if rnd % 2 == 0 else pair[::-1]:
                yield (rnd, *kind)


def collect(names, seed, smoke, traced, repeats, seconds) -> tuple[dict, dict]:
    """Run the samples; returns (samples per workload, event twins)."""
    deadline = float("inf") if seconds is None else time.perf_counter() + seconds + DEADLINE_SLACK_S

    def timeout() -> float:
        return min(SAMPLE_TIMEOUT_S, deadline - time.perf_counter())

    twins = {}
    for name in names:
        twin = WORKLOADS[name].event_twin
        if twin is not None and twin not in twins:
            print(f"[ledger] event twin {twin} (untimed)", file=sys.stderr)
            twins[twin] = run_child(twin, seed, smoke, False, timeout())

    samples: dict[str, list[dict]] = {name: [] for name in names}
    last: dict[tuple[str, bool], float] = {}
    started = time.perf_counter()
    for rnd, name, kind in schedule(names, traced):
        if seconds is None:
            if rnd >= repeats:
                break
        elif rnd > 0 and time.perf_counter() - started + last.get((name, kind), 0.0) > seconds:
            break
        if timeout() <= 0:
            break
        sample = run_child(name, seed, smoke, kind, timeout())
        last[(name, kind)] = sample.get("elapsed", 0.0)
        samples[name].append(sample)
        state = "ok" if sample["ok"] else f"FAILED: {sample['error']}"
        label = "traced" if kind else "timed"
        print(f"[ledger] round {rnd} {name} {label}: {state}", file=sys.stderr)
    return samples, twins


# -- gates and metrics --------------------------------------------------------
def gate(name: str, samples: list[dict], twins: dict, seed: int, smoke: bool) -> None:
    """Mark samples that break a correctness gate as failed, in place.

    * pins: at :data:`PIN_SEED` and full scale, each program's content
      hash starts with the workload's pinned prefix;
    * twin: a fluid workload's per-program event counts equal its event
      twin's;
    * repeat: every count (and every hash) equals the first good
      sample's, and every traced call count the first traced sample's.
    """
    workload = WORKLOADS[name]
    twin = twins.get(workload.event_twin) if workload.event_twin else None
    good = [s for s in samples if s["ok"]]
    ref = good[0] if good else None
    ref_traced = next((s for s in good if s["traced"]), None)
    for s in good:
        hashes = [p["hash"] for p in s["programs"].values()]
        if workload.pins and seed == PIN_SEED and not smoke and not (
            len(hashes) == len(workload.pins)
            and all(h.startswith(pin) for h, pin in zip(hashes, workload.pins))
        ):
            fail(s, f"content hashes {[h[:12] for h in hashes]} != pins {list(workload.pins)}")
        elif twin is not None and not twin["ok"]:
            fail(s, f"event twin failed: {twin['error']}")
        elif twin is not None and events(s) != events(twin):
            fail(s, f"event counts {events(s)} != event twin's {events(twin)}")
        elif s["state"] != ref["state"] or s["programs"] != ref["programs"]:
            fail(s, "counts or hashes differ from the first sample's")
        elif s["traced"] and s["calls"] != ref_traced["calls"]:
            fail(s, "call counts differ from the first traced sample's")


def fail(sample: dict, why: str) -> None:
    sample["ok"], sample["error"] = False, why


def events(sample: dict) -> dict:
    return {name: p["events"] for name, p in sample["programs"].items()}


def makespan_err(sample: dict, twin: dict | None) -> float:
    """Max over programs of |duration - twin duration| / twin duration."""
    if twin is None:
        return 0.0
    return max(
        abs(p["duration"] - twin["programs"][name]["duration"]) / twin["programs"][name]["duration"]
        for name, p in sample["programs"].items()
    )


def summary(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def end_to_end(samples: list[dict], metrics: list[dict]) -> dict:
    timed = [s for s in samples if s["ok"] and not s["traced"]]
    if not timed:
        return {}
    return {m["name"]: summary([s["metrics"][m["name"]] for s in timed]) for m in metrics}


def per_layer(name: str, samples: list[dict], twins: dict) -> dict:
    """Every per-layer value: the split, profiled CPU and call counts of
    the median traced sample (one sample, so its layers add up to its
    total), and counts from public state."""
    good = [s for s in samples if s["ok"]]
    timed = [s for s in good if not s["traced"]]
    traced = sorted((s for s in good if s["traced"]), key=lambda s: s["profiled_s"])
    if not timed or not traced:
        return {}
    twin_name = WORKLOADS[name].event_twin
    mid = traced[(len(traced) - 1) // 2]
    values = {f"{layer}.self_s": mid["self_s"][layer] for layer in LAYERS}
    values["traced.total_s"] = mid["profiled_s"]
    values["traced.overhead"] = mid["profiled_s"] / statistics.median(
        s["metrics"]["total_s"] for s in timed
    )
    values["finalize_s"] = statistics.median(s["metrics"]["finalize_s"] for s in timed)
    values["sim.fluid.makespan_err"] = makespan_err(good[0], twins.get(twin_name) if twin_name else None)
    values.update(mid["calls"])
    values.update(good[0]["state"])
    return values


def evaluate(names, samples, twins, seed, smoke, bench) -> dict:
    ledger = {}
    for name in names:
        gate(name, samples[name], twins, seed, smoke)
        ledger[name] = {
            "attempted": len(samples[name]),
            "failed": sum(not s["ok"] for s in samples[name]),
            "errors": sorted({s["error"] for s in samples[name] if not s["ok"]}),
            "end_to_end": end_to_end(samples[name], bench["end_to_end"]),
            "per_layer": per_layer(name, samples[name], twins),
            # Information only: no bound or verdict reads wall time.
            "wall_s": [s["wall_s"] for s in samples[name] if s["ok"] and not s["traced"]],
        }
    return ledger


# -- reporting ----------------------------------------------------------------
def spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"]


def render(ledger: dict, bench: dict) -> str:
    lines = []
    for name, entry in ledger.items():
        lines.append(f"{name}: attempted {entry['attempted']}, failed {entry['failed']}")
        lines.extend(f"  failure: {error}" for error in entry["errors"])
        if entry["end_to_end"]:
            lines.append(f"  {'metric':<14}{'unit':<6}{'median':>10}{'q1':>10}{'q3':>10}{'n':>4}")
        for m in bench["end_to_end"]:
            stats = entry["end_to_end"].get(m["name"])
            if stats is None:
                continue
            note = "  unresolved: IQR wider than bound" if spread(stats) > m["bound"] else ""
            lines.append(
                f"  {m['name']:<14}{m['unit']:<6}{stats['median']:>10.4f}"
                f"{stats['q1']:>10.4f}{stats['q3']:>10.4f}{stats['n']:>4}{note}"
            )
    names = [n for n, e in ledger.items() if e["per_layer"]]
    if names:
        lines.append("")
        lines.append("per layer (the median traced sample; counts from public state)")
        lines.append(f"  {'metric':<36}{'unit':<7}" + "".join(f"{n:>14}" for n in names))
        for m in bench["per_layer"]:
            cells = "".join(cell(ledger[n]["per_layer"][m["name"]]) for n in names)
            lines.append(f"  {m['name']:<36}{m['unit']:<7}{cells}")
    return "\n".join(lines)


def cell(value) -> str:
    return f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"


def result_line(entry: dict, bench: dict, traced: bool) -> str | None:
    """The one-workload JSON summary, or None when it has no numbers."""
    if traced:
        values = entry["per_layer"]
        metrics = bench["per_layer"]
    else:
        values = {k: v["median"] for k, v in entry["end_to_end"].items()}
        metrics = bench["end_to_end"]
    if not values:
        return None
    return json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    })


def compare(old: dict, new: dict, bench: dict) -> tuple[str, bool]:
    """Classify each (end-to-end metric, workload) pair present in both
    ledgers and list every exact per-layer value that changed.  Returns
    (table, whether any pair is worse)."""
    rows, worse = [], False
    for name in sorted(set(old["workloads"]) & set(new["workloads"])):
        o, n = old["workloads"][name], new["workloads"][name]
        for m in bench["end_to_end"]:
            if m["name"] not in o["end_to_end"] or m["name"] not in n["end_to_end"]:
                continue
            verdict, change = classify(o["end_to_end"][m["name"]], n["end_to_end"][m["name"]], m)
            worse |= verdict == "worse"
            rows.append(f"  {name:<14}{m['name']:<14}{change:>+9.1%}  {verdict}")
        for m in bench["per_layer"]:
            before = o["per_layer"].get(m["name"])
            after = n["per_layer"].get(m["name"])
            if exact(m) and None not in (before, after) and before != after:
                rows.append(f"  {name:<14}{m['name']} {before} -> {after}  changed")
    return "\n".join(["compare (new median vs old median)", *rows]), worse


def exact(metric: dict) -> bool:
    """Whether the simulator, not a clock, determines the metric, so it
    must repeat exactly: counts, bytes and the fluid error."""
    return metric["unit"] != "s" and metric["name"] != "traced.overhead"


def classify(old: dict, new: dict, metric: dict) -> tuple[str, float]:
    """better / worse / unchanged against the metric's bound; unresolved
    when either side's IQR is wider than the bound, unless every new
    sample beats (or loses to) every old one."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = (new["median"] - old["median"]) / old["median"]
    if max(spread(old), spread(new)) > metric["bound"]:
        if all(sign * (b - a) < 0 for a in old["samples"] for b in new["samples"]):
            return "better", change
        if all(sign * (b - a) > 0 for a in old["samples"] for b in new["samples"]):
            return "worse", change
        return "unresolved", change
    if sign * change > metric["bound"]:
        return "worse", change
    if sign * change < -metric["bound"]:
        return "better", change
    return "unchanged", change


def host() -> dict:
    """Where the ledger ran: enough to tell two hosts apart."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "calibration_s": min(calibrate() for _ in range(3)),
    }


def calibrate(n: int = 1_000_000) -> float:
    """CPU seconds for a fixed pure-Python loop (lower = faster host)."""
    started = time.process_time()
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return time.process_time() - started


# -- entry point --------------------------------------------------------------
def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=",".join(WORKLOADS),
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seed", type=int, default=PIN_SEED, help="machine seed (default %(default)s)")
    parser.add_argument("--repeats", type=int, default=5, help="rounds to run (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run rounds for this many seconds instead of --repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add a traced sample per workload each round (default)")
    parser.add_argument("--json", metavar="PATH", help="write the ledger to PATH")
    parser.add_argument("--compare", metavar="OLD", help="classify changes against ledger OLD")
    parser.add_argument("--smoke", action="store_true",
                        help="small-scale twins, one round (overrides --repeats)")
    args = parser.parse_args(argv)
    args.workload = [w for w in args.workload.split(",") if w]
    unknown = sorted(set(args.workload) - set(WORKLOADS))
    if unknown or not args.workload:
        parser.error(f"unknown workloads {unknown}; pick from {sorted(WORKLOADS)}")
    if args.repeats < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--repeats and --seconds must be positive")
    if args.smoke:
        args.repeats, args.seconds = 1, None
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"ledger: no simulator source at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    # Compile up front so no sample pays bytecode compilation in setup_s.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    os.makedirs(TMP, exist_ok=True)
    try:
        samples, twins = collect(args.workload, args.seed, args.smoke, bool(args.trace),
                                 args.repeats, args.seconds)
    finally:
        try:
            os.rmdir(TMP)
        except OSError:
            pass
    ledger = evaluate(args.workload, samples, twins, args.seed, args.smoke, bench)
    print(render(ledger, bench))
    status = 0 if all(e["end_to_end"] for e in ledger.values()) else 1
    if args.trace and not all(e["per_layer"] for e in ledger.values()):
        status = 1
    doc = {
        "seed": args.seed,
        "smoke": args.smoke,
        "rounds": args.repeats if args.seconds is None else None,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": ledger,
    }
    if args.json:
        doc["host"] = host()
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            table, worse = compare(json.load(fh), doc, bench)
        print(table)
        status = max(status, int(worse))
    if len(args.workload) == 1:
        line = result_line(ledger[args.workload[0]], bench, bool(args.trace))
        if line is not None:
            print(line)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
