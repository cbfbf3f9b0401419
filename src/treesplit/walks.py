"""Seeded random walks, loop erasure, and Wilson tree sampling.

All walk loops draw from ``RngStream.uniforms``; each step consumes exactly
one draw, so a (seed, stream) pair pins the full trajectory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence

from .planar import DualGraph, Multigraph, PlanarEmbedding, SpanningTree, compute_dual
from .rng import RngStream

STEP_BUDGET = 10**9


class WalkBudgetError(RuntimeError):
    """A walk exceeded the step budget; the absorbing set is likely unreachable."""


@dataclass
class WalkTrace:
    """Result of one loop-erased walk.

    ``vertices``/``edges`` hold the simple path; ``step_count`` counts raw
    steps. With recording on, ``raw_vertices`` is the unerased trajectory and
    ``erased_loops`` lists (path index, loop vertices) in erasure order.
    """

    vertices: list[int]
    edges: list[int]
    step_count: int
    raw_vertices: list[int] | None = None
    erased_loops: list[tuple[int, tuple[int, ...]]] | None = None

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]


def naive_loop_erase(raw: Sequence[int]) -> list[int]:
    """Reference loop eraser: replay the sequence, cutting at each revisit."""
    path: list[int] = []
    pos: dict[int, int] = {}
    for v in raw:
        if v in pos:
            i = pos[v]
            for w in path[i + 1 :]:
                del pos[w]
            del path[i + 1 :]
        else:
            pos[v] = len(path)
            path.append(v)
    return path


def _absorb_mask(g: Multigraph, absorb: Iterable[int]) -> bytearray:
    if isinstance(absorb, bytearray):
        if not any(absorb):
            raise ValueError("absorbing set is empty")
        return absorb
    mask = bytearray(g.num_vertices)
    count = 0
    for v in absorb:
        mask[v] = 1
        count += 1
    if count == 0:
        raise ValueError("absorbing set is empty")
    return mask


def loop_erased_walk(
    g: Multigraph,
    start: int,
    absorb: Iterable[int],
    rng: RngStream,
    record: bool = False,
    budget: int = STEP_BUDGET,
    _draws: Iterator[float] | None = None,
) -> WalkTrace:
    """Loop-erased random walk from ``start`` to its first absorbed vertex.

    Steps are uniform over incident edges counted with multiplicity. Aborts
    with a diagnostic if the budget is exhausted (unreachable absorb set).
    """
    mask = _absorb_mask(g, absorb)
    nbrs = g.nbr
    iedges = g.iedge
    path = [start]
    path_e: list[int] = []
    pos = {start: 0}
    raw = [start] if record else None
    loops: list[tuple[int, tuple[int, ...]]] | None = [] if record else None
    steps = 0
    v = start
    draws = rng.uniforms() if _draws is None else _draws
    while not mask[v]:
        lst = nbrs[v]
        k = int(next(draws) * len(lst))
        w = lst[k]
        e = iedges[v][k]
        steps += 1
        if steps > budget:
            raise WalkBudgetError(
                f"walk from {start} exceeded {budget} steps without "
                f"reaching the absorbing set (size {sum(mask)})"
            )
        if raw is not None:
            raw.append(w)
        j = pos.get(w)
        if j is None:
            pos[w] = len(path)
            path.append(w)
            path_e.append(e)
        else:
            if loops is not None:
                loops.append((j, tuple(path[j:]) + (w,)))
            for x in path[j + 1 :]:
                del pos[x]
            del path[j + 1 :]
            del path_e[j:]
        v = w
    return WalkTrace(path, path_e, steps, raw, loops)


class WilsonSampler:
    """Reusable Wilson sampler bound to one graph and root.

    Trees are built with the next-pointer ("cycle popping") form of the
    algorithm: walks overwrite a successor table and the traced successor
    path equals the loop erasure of the walk, consuming the same draws.
    """

    def __init__(self, g: Multigraph, root: int = 0):
        if not g.is_connected():
            raise ValueError("Wilson's algorithm requires a connected graph")
        self.g = g
        self.root = root
        n = g.num_vertices
        self._nxt_v = [0] * n
        self._nxt_e = [0] * n

    def sample_edges(
        self,
        rng: RngStream,
        starts: Sequence[int] | None = None,
        in_tree: bytearray | None = None,
        walk_log: list | None = None,
        _draws: Iterator[float] | None = None,
    ) -> tuple[list[int], int]:
        """One uniform spanning tree as an edge-id list, plus raw step count.

        ``starts`` seeds the walk schedule; once exhausted (or None), the
        remaining starts follow ascending vertex id. ``in_tree`` may carry a
        pre-built partial tree (phased use); it is updated in place.
        """
        g = self.g
        n = g.num_vertices
        nbrs = g.nbr
        iedges = g.iedge
        nxt_v = self._nxt_v
        nxt_e = self._nxt_e
        if in_tree is None:
            in_tree = bytearray(n)
            in_tree[self.root] = 1
            tree_edges: list[int] = []
        else:
            tree_edges = []
        remaining = n - sum(in_tree)
        steps_total = 0
        draws = rng.uniforms() if _draws is None else _draws
        schedule = list(starts) if starts else []
        schedule_iter = iter(schedule + list(range(n)))
        walk_index = 0
        for s in schedule_iter:
            if remaining == 0:
                break
            if in_tree[s]:
                continue
            x = s
            steps = 0
            while not in_tree[x]:
                lst = nbrs[x]
                k = int(next(draws) * len(lst))
                nxt_v[x] = w = lst[k]
                nxt_e[x] = iedges[x][k]
                steps += 1
                x = w
            steps_total += steps
            hit = x
            added = 0
            x = s
            while not in_tree[x]:
                in_tree[x] = 1
                remaining -= 1
                added += 1
                tree_edges.append(nxt_e[x])
                x = nxt_v[x]
            if walk_log is not None:
                walk_log.append(
                    {
                        "phase": walk_index,
                        "start": s,
                        "end": hit,
                        "raw_len": steps,
                        "erased_len": steps - added,
                    }
                )
            walk_index += 1
        return tree_edges, steps_total


def wilson(
    g: Multigraph,
    root: int = 0,
    starts: Sequence[int] | None = None,
    rng: RngStream | None = None,
    walk_log: list | None = None,
) -> SpanningTree:
    """Uniform spanning tree of ``g`` via Wilson's algorithm.

    The root and start schedule do not affect the output law; they are knobs
    for instrumentation and for the phased analysis. Total raw step count is
    recorded on the returned tree.
    """
    if rng is None:
        raise ValueError("wilson requires an RngStream")
    sampler = WilsonSampler(g, root)
    edges, steps = sampler.sample_edges(rng, starts, walk_log=walk_log)
    return SpanningTree(g, edges, root=root, steps=steps, validate=False)


class DualWilsonSampler:
    """Uniform spanning trees of a plane graph G through Wilson on its dual.

    Wilson runs on G* rooted at the outer face; the primal tree is the
    complement of the dual tree under the edge bijection e <-> e*.
    """

    def __init__(self, g: PlanarEmbedding, dual: DualGraph | None = None):
        if dual is None:
            dual = compute_dual(g)
        self.g = g
        self._wilson = WilsonSampler(dual, dual.root)

    def sample_edges(
        self, rng: RngStream, starts: Sequence[int] | None = None
    ) -> tuple[list[int], int]:
        """One uniform spanning tree of G as ascending edge ids, plus the dual walk's steps."""
        dual_edges, steps = self._wilson.sample_edges(rng, starts)
        in_tree = bytearray(b"\x01") * self.g.num_edges
        for e in dual_edges:
            in_tree[e] = 0
        return list(compress(range(len(in_tree)), in_tree)), steps


def wilson_on_dual(
    g: PlanarEmbedding,
    starts: Sequence[int] | None = None,
    rng: RngStream | None = None,
    dual: DualGraph | None = None,
) -> SpanningTree:
    """Sample a tree of G by running Wilson on G* rooted at the outer face.

    The dual walk's step count is exposed on the result for scaling probes.
    """
    if rng is None:
        raise ValueError("wilson_on_dual requires an RngStream")
    edges, steps = DualWilsonSampler(g, dual).sample_edges(rng, starts)
    return SpanningTree(g, edges, steps=steps, validate=False)


# -- phased construction ------------------------------------------------------


@dataclass(frozen=True)
class SourceVertex:
    """Start the phase at an explicit vertex."""

    vertex: int


@dataclass(frozen=True)
class SourceNearestPoint:
    """Start at the dual vertex nearest to a point (root excluded)."""

    x: float
    y: float


@dataclass(frozen=True)
class SourceAdjacentToTree:
    """Start at the smallest-id non-tree vertex adjacent to the current tree.

    With ``near`` set, only tree vertices in that set count as attachment
    points.
    """

    near: frozenset[int] | None = None


@dataclass(frozen=True)
class Phase:
    source: SourceVertex | SourceNearestPoint | SourceAdjacentToTree
    target: frozenset[int]
    tube: Callable[[int], bool] | None = None


@dataclass(frozen=True)
class PhasePlan:
    phases: tuple[Phase, ...]

    def __post_init__(self):
        for i, ph in enumerate(self.phases):
            if not ph.target:
                raise ValueError(f"phase {i} has an empty target set")


@dataclass
class PhaseOutcome:
    start: int
    target_hit: bool
    tube_ok: bool
    hit_vertex: int | None
    lerw_steps: int
    schedule_steps: int


@dataclass
class PhasedReport:
    phases: list[PhaseOutcome]
    induced_starts: list[int] = field(default_factory=list)
    total_lerw_steps: int = 0
    total_schedule_steps: int = 0


def _resolve_source(rule, dual: DualGraph, in_tree: bytearray) -> int:
    if isinstance(rule, SourceVertex):
        return rule.vertex
    if isinstance(rule, SourceNearestPoint):
        best = None
        best_d = math.inf
        for v, c in enumerate(dual.coords):
            if c is None:
                continue
            d = (c[0] - rule.x) ** 2 + (c[1] - rule.y) ** 2
            if d < best_d:
                best_d = d
                best = v
        if best is None:
            raise ValueError("dual graph has no located vertices")
        return best
    if isinstance(rule, SourceAdjacentToTree):
        for v in range(dual.num_vertices):
            if in_tree[v]:
                continue
            for w in dual.nbr[v]:
                if in_tree[w] and (rule.near is None or w in rule.near):
                    return v
        raise ValueError("no non-tree vertex adjacent to the tree (candidates)")
    raise TypeError(f"unknown source rule {rule!r}")


def wilson_phased(
    dual: DualGraph,
    plan: PhasePlan,
    rng: RngStream,
    complete: bool = True,
) -> tuple[SpanningTree, PhasedReport]:
    """Wilson's algorithm with scheduled phases on the wired dual.

    Each phase alternates a loop-erased walk from a non-tree source with a
    plain walk that exits the current tree to pick the next source. The plan
    only chooses starts, so the finished tree is still uniform; the report
    records, per phase, whether the target was hit and whether every visited
    vertex stayed inside the caller's tube predicate.

    Loop-erased steps and schedule (plain) steps draw from two derived
    substreams, so the same tree is reproduced by plain ``wilson`` with the
    induced start sequence on substream 0.

    With ``complete=False`` the run stops after the last phase; the returned
    tree object is then a partial tree meant only for its report (used by
    high-volume phase-success experiments).
    """
    if dual.wired_boundary is None:
        raise ValueError("wilson_phased expects a dual with a wired boundary root")
    walk_rng = rng.substream(0)
    sched_rng = rng.substream(1)
    walk_draws = walk_rng.uniforms()
    n = dual.num_vertices
    in_tree = bytearray(n)
    in_tree[dual.root] = 1
    tree_edges: list[int] = []
    remaining = n - 1
    report = PhasedReport(phases=[])
    sampler = WilsonSampler(dual, dual.root)

    sched_draws = sched_rng.uniforms()
    nbrs = dual.nbr

    for phase in plan.phases:
        if not phase.target:
            raise ValueError("phase target became empty")
        source = _resolve_source(phase.source, dual, in_tree)
        tube = phase.tube
        tube_ok = True if tube is None else bool(tube(source))
        outcome = PhaseOutcome(
            start=source,
            target_hit=False,
            tube_ok=tube_ok,
            hit_vertex=None,
            lerw_steps=0,
            schedule_steps=0,
        )
        v = source
        while remaining > 0:
            if in_tree[v]:
                # schedule walk: plain steps inside the tree until we exit it
                while in_tree[v]:
                    lst = nbrs[v]
                    v = lst[int(next(sched_draws) * len(lst))]
                    outcome.schedule_steps += 1
                    if tube is not None and tube_ok and not tube(v):
                        tube_ok = False
                continue
            report.induced_starts.append(v)
            trace = loop_erased_walk(
                dual, v, in_tree, walk_rng, record=tube is not None,
                _draws=walk_draws,
            )
            outcome.lerw_steps += trace.step_count
            if tube is not None and tube_ok:
                tube_ok = all(tube(x) for x in trace.raw_vertices)
            for x, e in zip(trace.vertices, trace.edges):
                in_tree[x] = 1
                remaining -= 1
                tree_edges.append(e)
            hit = trace.vertices[-1]
            v = hit
            if hit in phase.target:
                outcome.target_hit = True
                outcome.hit_vertex = hit
                break
        outcome.tube_ok = tube_ok
        report.phases.append(outcome)
        report.total_lerw_steps += outcome.lerw_steps
        report.total_schedule_steps += outcome.schedule_steps
        if remaining == 0:
            break

    if complete and remaining > 0:
        edges, steps = sampler.sample_edges(
            walk_rng, in_tree=in_tree, _draws=walk_draws
        )
        tree_edges.extend(edges)
        report.total_lerw_steps += steps
        remaining = 0
    tree = SpanningTree(
        dual,
        tree_edges,
        root=dual.root,
        steps=report.total_lerw_steps + report.total_schedule_steps,
        validate=False,
    )
    return tree, report


def write_trace_jsonl(records: Iterable[dict], path: str) -> None:
    """Dump walk records ({phase, start, end, raw_len, erased_len}) as JSON lines."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
