"""Critical-path extraction and per-phase time attribution over span trees.

Answers the observability question the flat trace cannot: *which chain of
work set each phase's makespan, and where did that chain spend its time?*

The engine consumes a :class:`repro.spans.SpanStore` (recorded with
``Experiment(spans=True)`` / ``repro run --spans``) and produces one
:class:`PhaseAttribution` per application phase:

* **phases** come from the zero-length ``mark.*`` spans the application
  skeletons record at their phase boundaries; a store without marks is
  treated as one phase covering the whole run;
* the **critical node** of a phase is the compute node whose last
  root span (an ``op.*`` app-level call, or a ``fluid.plan`` in fluid
  mode) finishes the phase — the chain everyone else waited for at the
  closing barrier;
* the phase interval is then **tiled exactly** by that node's root
  spans and the gaps between them, so the component seconds sum to the
  phase makespan to the last ulp (the property test pins this):

  - gaps overlap machine-wide ``barrier.wait``/``sync.wait``/``bcast.wait``
    spans → ``stall``, the rest of each gap → ``compute``;
  - an op with chunk fan-out is decomposed along its *critical chunk*
    (the ``ion.request`` child finishing last): issue-to-arrival →
    ``network`` (minus any ``retry.backoff`` under the op → ``retry``),
    the request's ``ion.queue`` child → ``queue``, its service split via
    ``disk.seek`` / ``disk.xfer`` / ``raid.degraded`` children →
    ``seek`` / ``service`` / ``degraded``, and the post-service client
    copy → ``client``;
  - ops without fan-out (cache hits, seeks, token waits) split into
    ``stall`` (their wait children) and ``client``;
  - ``fluid.plan`` spans count whole as ``fluid``.

Because every piece is an interval of the tiling, no component is ever
double-counted and nothing is dropped — percentages are honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OpAttribution",
    "PhaseAttribution",
    "CriticalPathReport",
    "critical_path",
]

#: Attribution component keys, in display order.
COMPONENTS = (
    "compute",
    "stall",
    "network",
    "retry",
    "queue",
    "seek",
    "service",
    "degraded",
    "client",
    "fluid",
)

#: Machine-wide wait kinds whose overlap with inter-op gaps is ``stall``.
_WAIT_KINDS = ("barrier.wait", "sync.wait", "bcast.wait")

_EPS = 1e-9


@dataclass
class OpAttribution:
    """One root span on the critical chain, decomposed."""

    sid: int
    kind: str
    start: float
    end: float
    nbytes: int
    components: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PhaseAttribution:
    """One phase's makespan, critical node, and exact decomposition."""

    name: str
    start: float
    end: float
    node: int
    components: dict[str, float]
    ops: list[OpAttribution]

    @property
    def makespan(self) -> float:
        return self.end - self.start

    def percentages(self) -> dict[str, float]:
        total = self.makespan
        if total <= 0:
            return {k: 0.0 for k in self.components}
        return {k: 100.0 * v / total for k, v in self.components.items()}


@dataclass
class CriticalPathReport:
    """All phases of one run, attributed."""

    phases: list[PhaseAttribution]

    @property
    def makespan(self) -> float:
        return self.phases[-1].end - self.phases[0].start if self.phases else 0.0

    def render(self, top_ops: int = 0) -> str:
        lines = ["critical path", "============="]
        active = [k for k in COMPONENTS
                  if any(p.components.get(k, 0.0) > 0.0 for p in self.phases)]
        header = f"{'phase':<14} {'node':>4} {'makespan':>10}"
        for key in active:
            header += f" {key:>9}"
        lines.append(header)
        for p in self.phases:
            pct = p.percentages()
            row = f"{p.name:<14} {p.node:>4} {p.makespan:>9.3f}s"
            for key in active:
                row += f" {pct.get(key, 0.0):>8.1f}%"
            lines.append(row)
        if top_ops:
            for p in self.phases:
                chain = sorted(p.ops, key=lambda o: o.duration, reverse=True)
                if not chain:
                    continue
                lines.append("")
                lines.append(f"{p.name}: slowest ops on node {p.node}")
                for op in chain[:top_ops]:
                    parts = ", ".join(
                        f"{k} {v:.4f}s" for k, v in op.components.items() if v > 0
                    )
                    lines.append(
                        f"  {op.kind:<10} [{op.start:9.3f}, {op.end:9.3f}] "
                        f"{op.nbytes:>9,} B  {parts}"
                    )
        return "\n".join(lines)


def critical_path(store) -> CriticalPathReport:
    """Extract phases and attribute each one's makespan (see module doc)."""
    n = len(store)
    if n == 0:
        return CriticalPathReport(phases=[])
    rows = store.rows
    kinds = tuple(store.kinds)
    kind_col = rows[:, 1].astype(np.int64)
    parent = rows[:, 0].astype(np.int64)
    node = rows[:, 2].astype(np.int64)
    start = rows[:, 3]
    end = rows[:, 4]

    children: dict[int, list[int]] = {}
    for sid in range(n):
        p = int(parent[sid])
        if p >= 0:
            children.setdefault(p, []).append(sid)

    def kname(sid: int) -> str:
        return kinds[int(kind_col[sid])]

    # -- phase boundaries from mark.* spans --------------------------------
    t0 = float(start.min())
    t_end = float(end.max())
    marks = sorted(
        (float(start[sid]), kname(sid)[5:])
        for sid in range(n)
        if kname(sid).startswith("mark.")
    )
    bounds: list[tuple[str, float, float]] = []
    prev = t0
    for when, name in marks:
        if when > prev + _EPS:
            bounds.append((name, prev, when))
            prev = when
    if t_end > prev + _EPS or not bounds:
        bounds.append(("run" if not bounds else "(tail)", prev, t_end))

    # -- root spans that tile a node's time --------------------------------
    is_root_op = np.zeros(n, dtype=bool)
    for sid in range(n):
        name = kname(sid)
        if parent[sid] == -1 and name.startswith("op."):
            is_root_op[sid] = True
        elif name == "fluid.plan":
            # Plans parent under their fluid.phase span but occupy their
            # node's timeline the way op roots do.
            is_root_op[sid] = True
    wait_ids = [
        sid for sid in range(n)
        if parent[sid] == -1 and kname(sid) in _WAIT_KINDS
    ]

    phases = [
        _attribute_phase(
            pname, ps, pe, is_root_op, wait_ids, children,
            kname, node, start, end, rows,
        )
        for pname, ps, pe in bounds
    ]
    return CriticalPathReport(phases=phases)


def _attribute_phase(
    pname, ps, pe, is_root_op, wait_ids, children, kname, node, start, end, rows
):
    in_phase = np.flatnonzero(
        is_root_op & (end > ps + _EPS) & (end <= pe + _EPS)
    )
    if len(in_phase) == 0:
        comp = {"compute": pe - ps}
        return PhaseAttribution(pname, ps, pe, -1, comp, [])
    crit_sid = int(in_phase[np.argmax(end[in_phase])])
    crit_node = int(node[crit_sid])
    chain = sorted(
        (int(sid) for sid in in_phase if node[sid] == crit_node),
        key=lambda sid: (start[sid], sid),
    )

    components = {k: 0.0 for k in COMPONENTS}
    ops: list[OpAttribution] = []
    cursor = ps
    for sid in chain:
        s = max(float(start[sid]), cursor)
        e = min(float(end[sid]), pe)
        if e <= cursor + _EPS:
            continue  # fully overlapped by a previous op on this node
        _attribute_gap(cursor, s, wait_ids, start, end, components)
        op_comp = _attribute_op(sid, s, e, children, kname, start, end)
        for key, val in op_comp.items():
            components[key] += val
        ops.append(OpAttribution(
            sid, kname(sid), s, e, int(rows[sid, 5]), op_comp
        ))
        cursor = e
    _attribute_gap(cursor, pe, wait_ids, start, end, components)
    components = {k: v for k, v in components.items() if v > 0.0}
    return PhaseAttribution(pname, ps, pe, crit_node, components, ops)


def _attribute_gap(lo, hi, wait_ids, start, end, components) -> None:
    """Split an inter-op gap into stall (overlap with machine-wide waits,
    merged so concurrent waits are not double-counted) and compute."""
    gap = hi - lo
    if gap <= 0:
        return
    intervals = sorted(
        (max(float(start[w]), lo), min(float(end[w]), hi))
        for w in wait_ids
        if end[w] > lo and start[w] < hi
    )
    stall = 0.0
    reach = lo
    for a, b in intervals:
        if b > reach:
            stall += b - max(a, reach)
            reach = b
    components["stall"] += stall
    components["compute"] += gap - stall
    return


def _attribute_op(sid, s, e, children, kname, start, end) -> dict[str, float]:
    """Decompose one root span over [s, e] along its critical chunk chain.

    The returned components are an exact tiling: they sum to ``e - s``.
    """
    comp: dict[str, float] = {}
    kids = children.get(sid, ())
    if kname(sid) == "fluid.plan":
        comp["fluid"] = e - s
        return comp
    requests = [k for k in kids if kname(k) == "ion.request"]
    if not requests:
        # Client-local op: waits it contains are stall, the rest client.
        waits = sum(
            min(float(end[k]), e) - max(float(start[k]), s)
            for k in kids
            if kname(k).startswith(("token.", "sync.", "barrier.", "bcast."))
            and end[k] > s and start[k] < e
        )
        waits = min(max(waits, 0.0), e - s)
        if waits > 0:
            comp["stall"] = waits
        comp["client"] = (e - s) - waits
        return comp
    crit = max(requests, key=lambda k: float(end[k]))
    # Clamp the critical request's window into the (possibly clipped)
    # op window so every piece below stays a sub-interval of [s, e].
    cs = min(max(float(start[crit]), s), e)
    ce = min(max(float(end[crit]), cs), e)
    pre = cs - s
    retry = sum(
        float(end[k]) - float(start[k]) for k in kids if kname(k) == "retry.backoff"
    )
    retry = min(retry, pre)
    if retry > 0:
        comp["retry"] = retry
    comp["network"] = pre - retry
    queue = service = seek = xfer = degraded = 0.0
    for k in children.get(crit, ()):
        name = kname(k)
        dur = float(end[k]) - float(start[k])
        if name == "ion.queue":
            queue += dur
        elif name in ("ion.service", "ion.control"):
            service += dur
            for g in children.get(k, ()):
                gname = kname(g)
                gdur = float(end[g]) - float(start[g])
                if gname == "disk.seek":
                    seek += gdur
                elif gname == "disk.xfer":
                    xfer += gdur
                elif gname == "raid.degraded":
                    degraded += gdur
    total = queue + service
    span_dur = ce - cs
    if total <= 0.0:
        comp["service"] = span_dur
    else:
        # Scale so queue+service exactly tiles the (possibly clipped)
        # request interval, then split service into its disk pieces.
        scale = span_dur / total
        comp["queue"] = queue * scale
        disk = seek + xfer + degraded
        if disk > 0.0 and disk <= service:
            rest = service - disk
            comp["seek"] = seek * scale
            comp["degraded"] = degraded * scale
            comp["service"] = (xfer + rest) * scale
        else:
            comp["service"] = service * scale
    comp["client"] = e - ce
    return {k: v for k, v in comp.items() if v != 0.0}
