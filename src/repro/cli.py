"""Command-line interface.

::

    python -m repro run escat --scale small          # run + characterize
    python -m repro run escat --fs ppfs --policies escat_tuned
    python -m repro run htf --save-dir traces/       # save SDDF traces
    python -m repro characterize traces/escat.sddf   # report a saved trace
    python -m repro compare traces/*.sddf            # §8 cross-app table
    python -m repro replay traces/escat.sddf --fs ppfs --policies escat_tuned
    python -m repro campaign run --jobs 4            # parallel sweep + cache
    python -m repro campaign status                  # what's in the cache
    python -m repro campaign clean                   # drop cached results
    python -m repro run escat --faults plan.json     # run under injected faults
    python -m repro faults example --out plan.json   # starter fault plan
    python -m repro faults show plan.json            # describe a plan
    python -m repro faults report trace.sddf         # resilience summary
    python -m repro run escat --telemetry --save-dir out/   # sample live metrics
    python -m repro telemetry report out/escat.telemetry.jsonl
    python -m repro telemetry show out/escat.telemetry.jsonl --column mesh.bytes
    python -m repro telemetry export out/escat.telemetry.jsonl --format csv
    python -m repro telemetry export out/escat.telemetry.jsonl --format chrome
    python -m repro run escat --spans --save-dir out/    # record causal spans
    python -m repro spans report out/escat.spans.jsonl   # per-kind summary
    python -m repro spans critical-path out/escat.spans.jsonl  # phase attribution
    python -m repro spans export out/escat.spans.jsonl --format chrome --out t.json
    python -m repro run checkpoint --burst-buffer 64MB   # buffered checkpoints
    python -m repro campaign run --apps checkpoint --burst-buffers none,16MB
    python -m repro run trace --input darshan.jsonl  # replay an ingested trace
    python -m repro ingest convert darshan.csv out.sddf  # any format to any
    python -m repro ingest replay out.jsonl --fs ppfs --think anchor
    python -m repro campaign run --apps trace --traces a.jsonl,b.csv
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional

from .analysis.report import CharacterizationReport
from .analysis.resilience import ResilienceReport
from .apps.trace import THINK_TIMES
from .campaign.cache import MODEL_VERSION, ResultCache
from .campaign.runner import CampaignRunner, code_version
from .campaign.spec import CampaignSpec, RunSpec
from .core.assembly import FIDELITIES, FILESYSTEMS
from .core.compare import CrossAppComparison
from .core.registry import APPLICATIONS, MACHINES
from .core.replay import replay_trace
from .faults.plan import DiskFailure, FaultPlan, NodeOutage, RequestDrops
from .pablo.trace import Trace
from .ppfs.policies import PPFSPolicies
from .util import csv_list, parse_size

__all__ = ["main"]

_DEFAULT_CACHE_DIR = ".campaign-cache"

def _parse_number(text, parse=float):
    """Option ``text`` as ``parse`` reads it.  Anything else (the bare flag's
    True, text that does not parse) passes through unchanged for the run's
    own check to accept or reject."""
    try:
        return parse(text) if isinstance(text, str) else text
    except ValueError:
        return text


def _parse_size(text):
    """Option ``text`` as a byte count like ``64MB`` (see :func:`_parse_number`)."""
    return _parse_number(text, parse_size)


def _parse_override(pair: str) -> tuple[str, object]:
    """``key=value`` with value coerced to bool/int/float when it parses."""
    key, sep, raw = pair.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"--set expects key=value, got {pair!r}")
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return key, lowered == "true"
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            pass
    return key, raw


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'I/O Characteristics of Scalable "
        "Parallel Applications' (SC '95)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {code_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The file-system options every simulating command reads.
    fs_options = argparse.ArgumentParser(add_help=False)
    fs_options.add_argument("--fs", choices=FILESYSTEMS, default="pfs")
    fs_options.add_argument("--policies", choices=PPFSPolicies.presets(), default=None)

    run = sub.add_parser(
        "run", parents=[fs_options], help="run an application and characterize it"
    )
    run.set_defaults(handler=_cmd_run)
    run.add_argument("app", choices=sorted(APPLICATIONS))
    run.add_argument("--scale", choices=list(MACHINES), default="small")
    run.add_argument("--save-dir", default=None, metavar="DIR",
                     help="write SDDF trace(s) into DIR")
    run.add_argument("--faults", default=None, metavar="PLAN",
                     help="fault plan (JSON file path or inline JSON); "
                     "prints a resilience report after the run")
    run.add_argument("--telemetry", nargs="?", const=True, default=None,
                     metavar="CADENCE",
                     help="sample live metrics (optional cadence in simulated "
                     "seconds) and print a telemetry report; with --save-dir "
                     "also writes <app>.telemetry.jsonl")
    run.add_argument("--burst-buffer", nargs="?", const=True, default=None,
                     metavar="SIZE",
                     help="attach a host-side burst-buffer tier (optional log "
                     "capacity like 64MB; default capacity without a value); "
                     "checkpoint files destage through it asynchronously")
    run.add_argument("--spans", action="store_true", default=False,
                     help="record causal span trees and print the per-kind "
                     "summary and critical-path attribution; with --save-dir "
                     "also writes <app>.spans.jsonl")
    run.add_argument("--fidelity", choices=FIDELITIES, default=None,
                     help="execution fidelity: 'event' (discrete, "
                     "byte-identical; the default) or 'fluid' (closed-form "
                     "phase service, approximate but much faster)")
    run.add_argument("--mtbf", type=float, default=None, metavar="SEC",
                     help="mean time between failures for the checkpoint "
                     "report's optimal-interval model (checkpoint app only)")
    run.add_argument("--input", default=None, metavar="FILE",
                     help="trace file to replay (trace app only): JSONL/CSV "
                     "schema records or native SDDF")
    run.add_argument("--think", choices=THINK_TIMES, default=None,
                     help="trace app think time: preserve original gaps "
                     "(the default), none (back-to-back) or anchor (original "
                     "start times)")

    char = sub.add_parser("characterize", help="report a saved SDDF trace")
    char.set_defaults(handler=_cmd_characterize)
    char.add_argument("trace", help="path to a .sddf trace file")

    comp = sub.add_parser("compare", help="cross-application comparison")
    comp.set_defaults(handler=_cmd_compare)
    comp.add_argument("traces", nargs="+", help="two or more .sddf traces")

    rep = sub.add_parser(
        "replay", parents=[fs_options], help="replay a trace on another configuration"
    )
    rep.set_defaults(handler=_cmd_replay)
    rep.add_argument("trace", help="path to a trace file (.sddf/.jsonl/.csv)")
    rep.add_argument("--think", choices=THINK_TIMES, default="preserve")

    ing = sub.add_parser(
        "ingest", help="import/export external I/O traces (JSONL/CSV schema)"
    )
    isub = ing.add_subparsers(dest="ingest_command", required=True)

    iconv = isub.add_parser(
        "convert", help="convert a trace between JSONL/CSV/SDDF (by extension)"
    )
    iconv.set_defaults(handler=_cmd_ingest_convert)
    iconv.add_argument("src", help="input trace (.jsonl/.csv/.sddf)")
    iconv.add_argument("dst", help="output trace (.jsonl/.csv/.sddf)")

    irep = isub.add_parser(
        "replay", parents=[fs_options], help="ingest an external trace and "
        "replay it (alias of 'replay' that prints ingest statistics first)"
    )
    irep.set_defaults(handler=_cmd_ingest_replay)
    irep.add_argument("src", help="input trace (.jsonl/.csv/.sddf)")
    irep.add_argument("--think", choices=THINK_TIMES, default="preserve")

    camp = sub.add_parser(
        "campaign", help="run parameter sweeps with a content-addressed cache"
    )
    csub = camp.add_subparsers(dest="campaign_command", required=True)

    crun = csub.add_parser("run", help="expand a grid and execute it")
    crun.set_defaults(handler=_cmd_campaign_run)
    crun.add_argument("--name", default="campaign", help="campaign name")
    crun.add_argument("--apps", type=csv_list, default=sorted(APPLICATIONS),
                      metavar="A,B", help="comma-separated application names")
    crun.add_argument("--scales", type=csv_list, default=["small"], metavar="S,S")
    crun.add_argument("--fs", type=csv_list, default=["pfs"], metavar="FS,FS",
                      help="file systems to sweep (pfs,ppfs)")
    crun.add_argument("--policies", type=csv_list, default=["none"], metavar="P,P",
                      help="PPFS presets; 'none' = no preset "
                      f"(known: {', '.join(PPFSPolicies.presets())})")
    crun.add_argument("--seeds", type=csv_list, default=["default"], metavar="N,N",
                      help="machine RNG seeds; 'default' = calibrated seed")
    crun.add_argument("--set", action="append", type=_parse_override,
                      default=[], metavar="KEY=VALUE", dest="overrides",
                      help="workload-config override applied to every run")
    crun.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes (1 = in-process serial)")
    crun.add_argument("--timeout", type=float, default=None, metavar="SEC",
                      help="per-run timeout (parallel mode)")
    crun.add_argument("--retries", type=int, default=1, metavar="N",
                      help="extra attempts after a failed run")
    crun.add_argument("--cache-dir", default=_DEFAULT_CACHE_DIR, metavar="DIR")
    crun.add_argument("--quiet", action="store_true", help="suppress progress lines")

    crun.add_argument("--faults", type=csv_list, default=["none"], metavar="P,P",
                      help="fault-plan axis: comma-separated JSON file paths; "
                      "'none' = fault-free")
    crun.add_argument("--telemetry", type=csv_list, default=["none"],
                      metavar="C,C",
                      help="telemetry axis: comma-separated sampling cadences "
                      "in simulated seconds; 'none' = off")
    crun.add_argument("--burst-buffers", type=csv_list, default=["none"],
                      metavar="S,S",
                      help="burst-buffer axis: comma-separated log capacities "
                      "(e.g. none,16MB,64MB); 'none' = no tier")
    crun.add_argument("--fidelities", type=csv_list, default=["none"],
                      metavar="F,F",
                      help="fidelity axis: comma-separated from event,fluid; "
                      "'none'/'event' = discrete default")
    crun.add_argument("--spans", type=csv_list, default=["none"],
                      metavar="S,S",
                      help="spans axis: comma-separated from none,on — "
                      "enabled runs carry a per-kind span summary in the "
                      "manifest; 'none' = off")
    crun.add_argument("--traces", type=csv_list, default=["none"],
                      metavar="F,F",
                      help="ingested-trace axis (requires 'trace' in --apps): "
                      "comma-separated trace file paths; runs are cached by "
                      "trace *content*, not path")

    cstat = csub.add_parser("status", help="summarize the result cache")
    cstat.set_defaults(handler=_cmd_campaign_status)
    cstat.add_argument("--cache-dir", default=_DEFAULT_CACHE_DIR, metavar="DIR")

    cclean = csub.add_parser("clean", help="remove all cached results")
    cclean.set_defaults(handler=_cmd_campaign_clean)
    cclean.add_argument("--cache-dir", default=_DEFAULT_CACHE_DIR, metavar="DIR")

    faults = sub.add_parser("faults", help="fault plans and resilience reports")
    fsub = faults.add_subparsers(dest="faults_command", required=True)

    frep = fsub.add_parser("report", help="resilience summary of a saved trace")
    frep.set_defaults(handler=_cmd_faults_report)
    frep.add_argument("trace", help="path to a .sddf trace file")
    frep.add_argument("--baseline", default=None, metavar="TRACE",
                      help="fault-free twin trace for slowdown comparison")

    fshow = fsub.add_parser("show", help="describe a fault plan")
    fshow.set_defaults(handler=_cmd_faults_show)
    fshow.add_argument("plan", help="fault plan (JSON file path or inline JSON)")

    fex = fsub.add_parser("example", help="emit a starter fault plan")
    fex.set_defaults(handler=_cmd_faults_example)
    fex.add_argument("--out", default=None, metavar="PATH",
                     help="write the plan here instead of stdout")

    telem = sub.add_parser("telemetry", help="inspect saved telemetry captures")
    tsub = telem.add_subparsers(dest="telemetry_command", required=True)

    trep = tsub.add_parser("report", help="metric/profile report of a capture")
    trep.set_defaults(handler=_cmd_telemetry_report)
    trep.add_argument("file", help="path to a .telemetry.jsonl capture")

    tshow = tsub.add_parser("show", help="chart a sampled time-series column")
    tshow.set_defaults(handler=_cmd_telemetry_show)
    tshow.add_argument("file", help="path to a .telemetry.jsonl capture")
    tshow.add_argument("--column", action="append", default=[], metavar="COL",
                       help="column(s) to chart; omit to list what's available")
    tshow.add_argument("--width", type=int, default=72)
    tshow.add_argument("--height", type=int, default=8)

    texp = tsub.add_parser("export", help="convert a capture to CSV/Prometheus/Chrome")
    texp.set_defaults(handler=_cmd_telemetry_export)
    texp.add_argument("file", help="path to a .telemetry.jsonl capture")
    texp.add_argument("--format", choices=["csv", "prom", "chrome"], default="csv",
                      help="csv = the sampled time series, prom = the "
                      "metric registry in Prometheus text format, chrome = "
                      "counter events for Perfetto/chrome://tracing")
    texp.add_argument("--out", default=None, metavar="PATH",
                      help="write here instead of stdout")

    spans = sub.add_parser("spans", help="inspect saved causal span captures")
    ssub = spans.add_subparsers(dest="spans_command", required=True)

    srep = ssub.add_parser("report", help="per-kind summary of a span capture")
    srep.set_defaults(handler=_cmd_spans_report)
    srep.add_argument("file", help="path to a .spans.jsonl capture")

    sshow = ssub.add_parser("show", help="list spans (optionally one subtree)")
    sshow.set_defaults(handler=_cmd_spans_show)
    sshow.add_argument("file", help="path to a .spans.jsonl capture")
    sshow.add_argument("--kind", default=None, metavar="KIND",
                       help="only spans of this kind (e.g. ion.request)")
    sshow.add_argument("--root", type=int, default=None, metavar="ID",
                       help="print the subtree under span ID instead of a flat list")
    sshow.add_argument("--limit", type=int, default=40, metavar="N",
                       help="stop after N spans (flat list only)")

    sexp = ssub.add_parser("export", help="convert a capture to Chrome trace JSON")
    sexp.set_defaults(handler=_cmd_spans_export)
    sexp.add_argument("file", help="path to a .spans.jsonl capture")
    sexp.add_argument("--format", choices=["chrome", "jsonl"], default="chrome",
                      help="chrome = Perfetto/chrome://tracing trace-event "
                      "JSON, jsonl = the native round-trip form")
    sexp.add_argument("--out", default=None, metavar="PATH",
                      help="write here instead of stdout")
    sexp.add_argument("--telemetry", default=None, metavar="FILE",
                      help="merge counter lanes from this .telemetry.jsonl "
                      "capture into the Chrome timeline (chrome format only)")

    scrit = ssub.add_parser(
        "critical-path", help="per-phase makespan attribution of a capture"
    )
    scrit.set_defaults(handler=_cmd_spans_critical_path)
    scrit.add_argument("file", help="path to a .spans.jsonl capture")
    scrit.add_argument("--ops", type=int, default=0, metavar="N",
                       help="also list the N slowest critical-chain ops per phase")
    return parser


def _load_fault_plan(text: str) -> FaultPlan:
    """A fault plan from a JSON file path or inline JSON text."""
    try:
        return FaultPlan.load(text) if os.path.exists(text) else FaultPlan.from_json(text)
    except (OSError, ValueError) as exc:
        raise ValueError(f"bad fault plan: {exc}") from None


def _cmd_run(args) -> int:
    try:
        experiment = RunSpec(
            app=args.app, scale=args.scale, fs=args.fs, policy=args.policies,
            overrides={} if args.think is None else {"think_time": args.think},
            faults=_load_fault_plan(args.faults) if args.faults else None,
            telemetry=_parse_number(args.telemetry),
            burst_buffer=_parse_size(args.burst_buffer),
            fidelity=args.fidelity, spans=args.spans, trace=args.input,
        ).build_experiment()
    except ValueError as exc:
        print(f"repro run: {exc}", file=sys.stderr)
        return 2
    result = experiment.run()
    for name, trace in result.traces.items():
        print(CharacterizationReport(trace).render())
        print()
        if args.faults:
            print(ResilienceReport(trace).render())
            print()
        if args.save_dir:
            os.makedirs(args.save_dir, exist_ok=True)
            path = os.path.join(args.save_dir, f"{name}.sddf")
            trace.save(path)
            print(f"trace saved: {path} ({len(trace)} events)")
    if args.app == "checkpoint":
        from .analysis.checkpoint import CheckpointReport

        bb = getattr(result.machine, "burstbuffer", None)
        report = CheckpointReport(
            result.app.stats,
            interval_s=result.app.config.interval_s,
            burst_buffer=bb.stats_dict() if bb is not None else None,
        )
        print(report.render(mtbf_s=args.mtbf))
        print()
    if result.telemetry is not None:
        from .telemetry import render_report, to_jsonl

        print(render_report(result.telemetry.as_dict()))
        if args.save_dir:
            path = os.path.join(args.save_dir, f"{args.app}.telemetry.jsonl")
            to_jsonl(result.telemetry.as_dict(), path)
            print(f"telemetry saved: {path}")
    if result.spans is not None:
        from .analysis.critical_path import critical_path
        from .spans.export import write_jsonl

        store = result.spans.store
        print(_render_spans_summary(store))
        print()
        print(critical_path(store).render())
        if args.save_dir:
            path = os.path.join(args.save_dir, f"{args.app}.spans.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                write_jsonl(store, handle)
            print(f"spans saved: {path} ({len(store)} spans)")
    return 0


def _load_trace(path: str):
    """The trace at ``path`` (SDDF, or JSONL/CSV by extension), or None
    after reporting why it cannot be read."""
    from .ingest import load_trace

    try:
        return load_trace(path)
    except (OSError, ValueError) as exc:
        print(f"bad trace {path!r}: {exc}", file=sys.stderr)
        return None


def _cmd_characterize(args) -> int:
    trace = _load_trace(args.trace)
    if trace is None:
        return 2
    print(CharacterizationReport(trace).render())
    return 0


def _cmd_compare(args) -> int:
    traces = {}
    for path in args.traces:
        trace = _load_trace(path)
        if trace is None:
            return 2
        name = trace.application or os.path.splitext(os.path.basename(path))[0]
        traces[name] = trace
    print(CrossAppComparison(traces).render())
    return 0


def _cmd_replay(args) -> int:
    trace = _load_trace(args.trace)
    return 2 if trace is None else _replay(args, trace)


def _replay(args, trace: Trace) -> int:
    try:
        result = replay_trace(
            trace, think_time=args.think, filesystem=args.fs, policies=args.policies
        )
    except ValueError as exc:
        print(f"repro replay: {exc}", file=sys.stderr)
        return 2
    print(f"replayed {len(trace)} events from {trace.application!r}")
    print(f"I/O node-time ratio (new/original): {result.io_time_ratio:.3f}")
    print(f"makespan ratio (new/original):      {result.makespan_ratio:.3f}")
    print()
    print(CharacterizationReport(result.trace).render())
    return 0


def _cmd_ingest_convert(args) -> int:
    from .ingest import SchemaError, export_trace

    trace = _load_trace(args.src)
    if trace is None:
        return 2
    print(f"ingested: {trace.summary_line()}")
    try:
        if args.dst.lower().endswith((".sddf", ".trace")):
            trace.save(args.dst)
            written = len(trace)
        else:
            written = export_trace(trace, args.dst)
    except (OSError, ValueError, SchemaError) as exc:
        print(f"cannot write {args.dst!r}: {exc}", file=sys.stderr)
        return 2
    print(f"written: {args.dst} ({written} records)")
    return 0


def _cmd_ingest_replay(args) -> int:
    trace = _load_trace(args.src)
    if trace is None:
        return 2
    print(f"ingested: {trace.summary_line()} "
          f"({trace.nodes} nodes, {len(trace.file_names)} files)")
    return _replay(args, trace)


def _cmd_campaign_run(args) -> int:
    try:
        fault_plans = tuple(
            None if p == "none" else _load_fault_plan(p) for p in args.faults
        )
        spec = CampaignSpec(
            name=args.name,
            apps=tuple(args.apps),
            scales=tuple(args.scales),
            filesystems=tuple(args.fs),
            policies=tuple(None if p == "none" else p for p in args.policies),
            seeds=tuple(None if s == "default" else int(s) for s in args.seeds),
            overrides=dict(args.overrides),
            fault_plans=fault_plans,
            telemetry=tuple(None if c == "none" else _parse_number(c) for c in args.telemetry),
            burst_buffers=tuple(
                None if b == "none" else _parse_size(b) for b in args.burst_buffers
            ),
            fidelities=tuple(None if f == "none" else f for f in args.fidelities),
            spans=tuple(None if s in ("none", "off") else True for s in args.spans),
            traces=tuple(None if t == "none" else t for t in args.traces),
        )
        runs = spec.expand()
    except ValueError as exc:
        print(f"bad campaign grid: {exc}", file=sys.stderr)
        return 2
    try:
        runner = CampaignRunner(
            spec,
            cache_dir=args.cache_dir,
            jobs=args.jobs,
            timeout_s=args.timeout,
            retries=args.retries,
            quiet=args.quiet,
        )
    except ValueError as exc:
        print(f"bad campaign options: {exc}", file=sys.stderr)
        return 2
    print(f"campaign {args.name!r}: {len(runs)} runs, --jobs {args.jobs}, "
          f"cache {args.cache_dir}")
    report = runner.run()
    print(report.summary())
    print(f"manifest: {report.manifest_path}")
    return 0 if report.ok else 1


def _cmd_campaign_status(args) -> int:
    cache = ResultCache(args.cache_dir)
    entries = cache.entries()
    print(f"cache {cache.root}: {len(entries)} run(s), "
          f"{cache.size_bytes():,} bytes")
    for run_hash in entries:
        spec = cache.load_spec(run_hash)
        metrics = cache.load_metrics(run_hash)
        label = spec.label() if spec else "?"
        if metrics is None:
            print(f"  {run_hash}  {label:<30} unreadable metrics.json")
            continue
        if cache.stale(run_hash):
            version = cache.model_version(run_hash)
            print(f"  {run_hash}  {label:<30} stale: model version "
                  f"{'none' if version is None else version}, current {MODEL_VERSION}")
            continue
        line = (f"  {run_hash}  {label:<30} makespan {metrics['makespan_s']:>10.2f}s  "
                f"io {metrics['io_node_time_s']:>10.2f}s  {metrics['events']:>7,} events")
        ckpt = metrics.get("checkpoint")
        if ckpt:
            line += (f"  ckpt {ckpt.get('checkpoints_taken', 0):>3}"
                     f" ({ckpt.get('checkpoint_cost_s', 0.0):.2f}s)")
        bb = metrics.get("burst_buffer")
        if bb:
            line += (f"  stall {bb.get('stall_s', 0.0):.2f}s"
                     f"  lag {bb.get('drain_lag_s', 0.0):.2f}s")
        print(line)
    return 0


def _cmd_campaign_clean(args) -> int:
    removed = ResultCache(args.cache_dir).clean()
    print(f"removed {removed} cached run(s) from {args.cache_dir}")
    return 0


def _cmd_faults_report(args) -> int:
    trace = _load_trace(args.trace)
    baseline = _load_trace(args.baseline) if args.baseline else None
    if trace is None or (args.baseline and baseline is None):
        return 2
    print(ResilienceReport(trace, baseline=baseline).render())
    return 0


def _cmd_faults_show(args) -> int:
    try:
        plan = _load_fault_plan(args.plan)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(plan.describe())
    return 0


def example_fault_plan() -> FaultPlan:
    """The starter plan ``repro faults example`` emits.

    Sized for the small machine (4 I/O nodes, ~14 s runs): one disk
    failure mid-run with a short rebuild, one sub-second node outage,
    and a brief window of 5% request drops.
    """
    return FaultPlan(
        disk_failures=(
            DiskFailure(ionode=1, time_s=2.5, rebuild_delay_s=0.5,
                        rebuild_bytes=4 * 1024 * 1024),
        ),
        outages=(NodeOutage(ionode=2, start_s=3.0, duration_s=0.8),),
        drops=(RequestDrops(probability=0.05, start_s=1.0, duration_s=2.0),),
    )


def _load_capture(kind: str, path: str):
    """A saved ``kind`` ('telemetry' or 'spans') capture, or None after
    reporting why it cannot be read."""
    if kind == "spans":
        from .spans import load_jsonl
    else:
        from .telemetry import load_jsonl
    try:
        return load_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"bad {kind} capture: {exc}", file=sys.stderr)
        return None


def _cmd_telemetry_report(args) -> int:
    from .telemetry import render_report

    data = _load_capture("telemetry", args.file)
    if data is None:
        return 2
    print(render_report(data))
    return 0


def _cmd_telemetry_show(args) -> int:
    from .telemetry import TimeSeries, chartable_columns, render_chart

    data = _load_capture("telemetry", args.file)
    if data is None:
        return 2
    if not data.get("series"):
        print("capture has no sampled time series", file=sys.stderr)
        return 2
    series = TimeSeries.from_dict(data["series"])
    available = chartable_columns(series.columns)
    if not args.column:
        print("columns (pick with --column):")
        for col in available:
            print(f"  {col}")
        return 0
    for col in args.column:
        if col not in series.columns:
            print(f"unknown column {col!r}; pick from: {', '.join(available)}",
                  file=sys.stderr)
            return 2
        print(render_chart(series, col, width=args.width, height=args.height))
        print()
    return 0


def _cmd_telemetry_export(args) -> int:
    from .telemetry import MetricsRegistry, TimeSeries, series_to_csv, to_prometheus

    data = _load_capture("telemetry", args.file)
    if data is None:
        return 2
    if args.format != "prom" and not data.get("series"):
        print("capture has no sampled time series", file=sys.stderr)
        return 2
    if args.format == "csv":
        text = series_to_csv(TimeSeries.from_dict(data["series"]), args.out)
    elif args.format == "chrome":
        from .spans.export import chrome_trace_json, telemetry_counter_events

        text = chrome_trace_json(telemetry_counter_events(data))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
    else:
        text = to_prometheus(MetricsRegistry.from_dict(data["registry"]), args.out)
    if args.out:
        print(f"written: {args.out}")
    else:
        print(text, end="")
    return 0


def _render_spans_summary(store) -> str:
    """Per-kind count/time/bytes table of a span store."""
    lines = [
        "causal spans",
        "============",
        f"{'kind':<16} {'count':>8} {'total':>10} {'max':>9} {'bytes':>14}",
    ]
    for kind, row in sorted(store.summary().items()):
        lines.append(
            f"{kind:<16} {row['count']:>8,} {row['total_s']:>9.3f}s "
            f"{row['max_s']:>8.4f}s {row['bytes']:>14,}"
        )
    lines.append(f"{'(all)':<16} {len(store):>8,}")
    return "\n".join(lines)


def _cmd_spans_report(args) -> int:
    store = _load_capture("spans", args.file)
    if store is None:
        return 2
    print(_render_spans_summary(store))
    return 0


def _span_line(span: dict, indent: int = 0) -> str:
    dur = span["end"] - span["start"]
    return (
        f"{'  ' * indent}#{span['id']:<7} {span['kind']:<14} node {span['node']:>4}  "
        f"[{span['start']:>10.4f}, {span['end']:>10.4f}] {dur:>9.4f}s  "
        f"{span['nbytes']:>10,} B"
    )


def _cmd_spans_show(args) -> int:
    store = _load_capture("spans", args.file)
    if store is None:
        return 2
    if args.root is not None:
        if not 0 <= args.root < len(store):
            print(f"span id {args.root} out of range (capture has "
                  f"{len(store)} spans)", file=sys.stderr)
            return 2
        children = store.children_index()

        def walk(sid: int, depth: int) -> None:
            print(_span_line(store.span(sid), depth))
            for kid in children.get(sid, ()):
                walk(kid, depth + 1)

        walk(args.root, 0)
        return 0
    shown = 0
    for span in store.iter_spans():
        if args.kind and span["kind"] != args.kind:
            continue
        print(_span_line(span))
        shown += 1
        if shown >= args.limit:
            print(f"... (limit {args.limit}; raise with --limit)")
            break
    if shown == 0:
        kinds = ", ".join(sorted(store.kinds))
        print(f"no matching spans; kinds present: {kinds}")
    return 0


def _cmd_spans_export(args) -> int:
    from .spans.export import telemetry_counter_events, write_chrome_json, write_jsonl

    store = _load_capture("spans", args.file)
    if store is None:
        return 2
    counters = []
    if args.format == "chrome" and args.telemetry:
        data = _load_capture("telemetry", args.telemetry)
        if data is None:
            return 2
        counters = telemetry_counter_events(data)
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        if args.format == "jsonl":
            write_jsonl(store, out)
        else:
            write_chrome_json(store, out, counters)
    if args.out:
        print(f"written: {args.out}")
    elif args.format == "chrome":
        print()
    return 0


def _cmd_spans_critical_path(args) -> int:
    from .analysis.critical_path import critical_path

    store = _load_capture("spans", args.file)
    if store is None:
        return 2
    print(critical_path(store).render(top_ops=args.ops))
    return 0


def _cmd_faults_example(args) -> int:
    plan = example_fault_plan()
    if args.out:
        plan.save(args.out)
        print(f"fault plan written: {args.out}")
    else:
        print(plan.to_json())
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
