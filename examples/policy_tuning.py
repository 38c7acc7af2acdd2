"""Tune PPFS policies for a captured workload without re-running the app.

The §8/§10 workflow this library enables: capture a trace once, then
*replay* the identical request stream (think times preserved) against
PPFS policy variants, comparing application-visible I/O time — plus the
classic LRU-vs-MRU result on a cyclic scan.

    python examples/policy_tuning.py
"""

from dataclasses import replace

from repro.analysis import OperationTable
from repro.apps import paper_escat, small_machine
from repro.core import Experiment, replay_trace
from repro.ppfs import PPFS, PPFSPolicies


def capture_escat():
    config = replace(
        paper_escat(),
        nodes=16, iterations=8,
        cycle_compute_start_s=10.0, cycle_compute_end_s=5.0,
        init_compute_s=2.0, phase3_compute_s=2.0, phase4_compute_s=1.0,
    )
    return Experiment(
        "escat", config=config,
        machine_factory=lambda: small_machine(nodes=16, io_nodes=8),
    ).run().trace


def what_if(trace, name, policies):
    fields = {"filesystem": "ppfs", "policies": policies} if policies else {}
    result = replay_trace(
        trace,
        machine_factory=lambda: small_machine(nodes=16, io_nodes=8),
        **fields,
    )
    table = OperationTable(result.trace)
    ws = table.row("Write").node_time_s + table.row("Seek").node_time_s
    print(f"  {name:<26} write+seek {ws:>8.2f}s   total I/O "
          f"{table.total_time:>8.2f}s")
    return ws


def cyclic_scan(policy_name):
    machine = small_machine()
    fs = PPFS(machine, policies=PPFSPolicies(
        cache_blocks=32, cache_policy=policy_name, prefetch="none"))
    fs.ensure("/scan", size=48 * 65536)

    def scanner():
        fd = yield from fs.open(0, "/scan")
        for _ in range(6):
            yield from fs.seek(0, fd, 0)
            for _ in range(48):
                yield from fs.read(0, fd, 65536)
        yield from fs.close(0, fd)

    proc = machine.env.process(scanner())
    machine.run()
    assert proc.ok
    return fs.cache_stats().hit_rate


def main() -> None:
    print("Capturing an ESCAT-shaped trace (16 nodes, 8 cycles)...")
    trace = capture_escat()
    print(f"captured {len(trace)} events\n")

    print("What-if replay (same request stream, different policies):")
    base = what_if(trace, "Intel PFS (as captured)", None)
    wb = what_if(trace, "PPFS write-behind", PPFSPolicies(write_behind=True))
    tuned = what_if(trace, "PPFS write-behind + agg", PPFSPolicies.escat_tuned())
    print(f"\n  policy benefit: {base / tuned:,.0f}x on write+seek time")
    del wb

    print("\nCache replacement on a cyclic scan (file 1.5x cache size):")
    for policy in ("lru", "mru"):
        print(f"  {policy.upper():<4} hit rate: {cyclic_scan(policy):.0%}")
    print("  (LRU evicts each block just before its reuse; MRU keeps a "
          "stable prefix — pick policies per pattern, §10.)")


if __name__ == "__main__":
    main()
