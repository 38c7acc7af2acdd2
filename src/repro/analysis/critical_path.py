"""Critical-path extraction and per-phase time attribution over span trees.

Answers the observability question the flat trace cannot: *which chain of
work set each phase's makespan, and where did that chain spend its time?*

The engine consumes a :class:`repro.spans.SpanStore` (recorded with
``Experiment(spans=True)`` / ``repro run --spans``) and produces one
:class:`PhaseAttribution` per application phase:

* **phases** come from the zero-length ``mark.*`` spans the application
  skeletons record where each phase begins: an interval is named after
  the mark that opens it, time before the first mark is ``(head)``, and
  a store without marks is one phase, ``run``, covering the whole run;
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

The engine reads the store's columns: each kind predicate is evaluated
once per kind code, and a span's children are one slice of a stable sort
by parent.  Only the ops on each phase's critical chain are walked.
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
    if len(store) == 0:
        return CriticalPathReport(phases=[])
    tree = _Tree(store)
    start, end = tree.start, tree.end

    # -- phase boundaries from mark.* spans --------------------------------
    t0, t_end = float(start.min()), float(end.max())
    marks = np.flatnonzero(tree.of_kind(lambda k: k.startswith("mark.")))
    marks = marks[np.argsort(start[marks], kind="stable")]  # by (start, id)
    # Skeletons mark a phase where it begins, so each interval is named
    # after the mark that opens it (the last one, by span id, of marks
    # that coincide).
    bounds: list[tuple[str, float, float]] = []
    prev, name = t0, "(head)" if len(marks) else "run"
    for when, sid in zip(start[marks].tolist(), marks.tolist()):
        if when > prev + _EPS:
            bounds.append((name, prev, when))
            prev = when
        name = tree.kname(sid)[5:]
    if t_end > prev + _EPS or not bounds:
        bounds.append((name, prev, t_end))

    # -- root spans that tile a node's time --------------------------------
    # Plans parent under their fluid.phase span but occupy their node's
    # timeline the way op roots do.
    root = tree.parent == -1
    roots = np.flatnonzero(
        (root & tree.of_kind(lambda k: k.startswith("op.")))
        | tree.of_kind(lambda k: k == "fluid.plan")
    )
    waits = np.flatnonzero(root & tree.of_kind(lambda k: k in _WAIT_KINDS))
    waits = waits[np.argsort(start[waits], kind="stable")]
    # Waits by start, plus the running maximum of their ends: the waits a
    # gap [lo, hi) can overlap lie between two searchsorted positions.
    wait_cols = (start[waits], end[waits], np.maximum.accumulate(end[waits]))

    return CriticalPathReport(phases=[
        _attribute_phase(pname, ps, pe, roots, wait_cols, tree) for pname, ps, pe in bounds
    ])


#: Roles a span plays under an attributed op, read from per-kind tables.
_REQUEST, _QUEUE, _SERVICE, _SEEK, _XFER, _DEGRADED, _RETRY, _WAIT = range(1, 9)
_ROLE_OF = {
    "ion.request": _REQUEST, "ion.queue": _QUEUE,
    "ion.service": _SERVICE, "ion.control": _SERVICE,
    "disk.seek": _SEEK, "disk.xfer": _XFER, "raid.degraded": _DEGRADED,
    "retry.backoff": _RETRY,
}
_WAIT_PREFIXES = ("token.", "sync.", "barrier.", "bcast.")


class _Tree:
    """A span store's columns, kind predicates evaluated once per kind
    code, and a CSR view of each span's children."""

    def __init__(self, store):
        rows = store.rows
        self.kinds = store.kinds
        self.kind = rows[:, 1].astype(np.int64)
        self.parent = rows[:, 0].astype(np.int64)
        self.node = rows[:, 2].astype(np.int64)
        self.start, self.end, self.nbytes = rows[:, 3], rows[:, 4], rows[:, 5]
        role = self.of_kind(
            lambda k: _WAIT if k.startswith(_WAIT_PREFIXES) else _ROLE_OF.get(k, 0), float
        )
        # (role, start, end) per span, gathered one family at a time.
        self.family = np.column_stack((role, self.start, self.end))
        # Span ids stably sorted by parent: a span's children are one
        # slice, in id order.
        self.by_parent = np.argsort(self.parent, kind="stable")
        self.first = np.searchsorted(self.parent[self.by_parent], np.arange(len(rows) + 1))

    def of_kind(self, test, dtype=bool) -> np.ndarray:
        return np.array([test(k) for k in self.kinds], dtype=dtype)[self.kind]

    def kname(self, sid: int) -> str:
        return self.kinds[self.kind[sid]]

    def children(self, sid: int) -> list[tuple[int, float, float, float]]:
        """(id, role, start, end) of each child of ``sid``, in id order."""
        kids = self.by_parent[self.first[sid]:self.first[sid + 1]]
        return list(zip(kids.tolist(), *self.family[kids].T.tolist()))


def _attribute_phase(pname, ps, pe, roots, wait_cols, tree):
    start, end = tree.start, tree.end
    root_end = end[roots]
    in_phase = roots[(root_end > ps + _EPS) & (root_end <= pe + _EPS)]
    if len(in_phase) == 0:
        comp = {"compute": pe - ps}
        return PhaseAttribution(pname, ps, pe, -1, comp, [])
    crit_sid = int(in_phase[np.argmax(end[in_phase])])
    crit_node = int(tree.node[crit_sid])
    chain = in_phase[tree.node[in_phase] == crit_node]
    chain = chain[np.lexsort((chain, start[chain]))]

    components = {k: 0.0 for k in COMPONENTS}
    ops: list[OpAttribution] = []
    cursor = ps
    for sid, s, e in zip(chain.tolist(), start[chain].tolist(), end[chain].tolist()):
        s = max(s, cursor)
        e = min(e, pe)
        if e <= cursor + _EPS:
            continue  # fully overlapped by a previous op on this node
        _attribute_gap(cursor, s, wait_cols, components)
        kind = tree.kname(sid)
        op_comp = _attribute_op(sid, kind, s, e, tree)
        for key, val in op_comp.items():
            components[key] += val
        ops.append(OpAttribution(sid, kind, s, e, int(tree.nbytes[sid]), op_comp))
        cursor = e
    _attribute_gap(cursor, pe, wait_cols, components)
    components = {k: v for k, v in components.items() if v > 0.0}
    return PhaseAttribution(pname, ps, pe, crit_node, components, ops)


def _attribute_gap(lo, hi, wait_cols, components) -> None:
    """Split an inter-op gap into stall (overlap with machine-wide waits,
    merged so concurrent waits are not double-counted) and compute."""
    gap = hi - lo
    if gap <= 0:
        return
    w_start, w_end, w_reach = wait_cols
    i = np.searchsorted(w_reach, lo, "right")  # every earlier wait ends by lo
    j = np.searchsorted(w_start, hi, "left")   # every later one starts at hi
    hit = w_end[i:j] > lo
    clip_lo = np.maximum(w_start[i:j][hit], lo)
    clip_hi = np.minimum(w_end[i:j][hit], hi)
    order = np.lexsort((clip_hi, clip_lo))
    stall = 0.0
    reach = lo
    for a, b in zip(clip_lo[order].tolist(), clip_hi[order].tolist()):
        if b > reach:
            stall += b - max(a, reach)
            reach = b
    components["stall"] += stall
    components["compute"] += gap - stall


def _attribute_op(sid, kind, s, e, tree) -> dict[str, float]:
    """Decompose one root span over [s, e] along its critical chunk chain.

    The returned components are an exact tiling: they sum to ``e - s``.
    """
    comp: dict[str, float] = {}
    if kind == "fluid.plan":
        comp["fluid"] = e - s
        return comp
    kids = tree.children(sid)
    requests = [(k, a, b) for k, r, a, b in kids if r == _REQUEST]
    if not requests:
        # Client-local op: waits it contains are stall, the rest client.
        waits = sum(
            min(b, e) - max(a, s)
            for _k, r, a, b in kids
            if r == _WAIT and b > s and a < e
        )
        waits = min(max(waits, 0.0), e - s)
        if waits > 0:
            comp["stall"] = waits
        comp["client"] = (e - s) - waits
        return comp
    crit, crit_start, crit_end = max(requests, key=lambda req: req[2])
    # Clamp the critical request's window into the (possibly clipped)
    # op window so every piece below stays a sub-interval of [s, e].
    cs = min(max(crit_start, s), e)
    ce = min(max(crit_end, cs), e)
    pre = cs - s
    retry = sum(b - a for _k, r, a, b in kids if r == _RETRY)
    retry = min(retry, pre)
    if retry > 0:
        comp["retry"] = retry
    comp["network"] = pre - retry
    queue = service = seek = xfer = degraded = 0.0
    for k, r, a, b in tree.children(crit):
        if r == _QUEUE:
            queue += b - a
        elif r == _SERVICE:
            service += b - a
            for _g, gr, ga, gb in tree.children(k):
                if gr == _SEEK:
                    seek += gb - ga
                elif gr == _XFER:
                    xfer += gb - ga
                elif gr == _DEGRADED:
                    degraded += gb - ga
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
