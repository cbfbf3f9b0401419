"""Balanced-partition samplers: perfect rejection and the up-down walk.

The perfect sampler loops Wilson trees through the unique-balanced-split
check and a final exact 1/s coin. The approximate sampler mixes the up-down
chain on k-forests and rejects unbalanced states.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .dynforest import LinkCutForest, NaiveForest
from .planar import Multigraph, Partition, PlanarEmbedding, SpanningTree, count_spanning_trees, forest_classes
from .rng import RngStream
from .splitting import find_balanced_split, find_min_imbalance_split
from .walks import DualWilsonSampler, wilson


class SamplerExhaustedError(RuntimeError):
    """The round cap tripped before an accepted sample."""

    def __init__(self, message: str, report: "SamplerReport"):
        super().__init__(message)
        self.report = report


class KForest:
    """Spanning k-forest with per-vertex component index and sizes."""

    __slots__ = ("host", "edges", "component", "component_sizes")

    def __init__(self, host: Multigraph, edges):
        self.host = host
        self.edges = frozenset(int(e) for e in edges)
        n = host.num_vertices
        classes = forest_classes(host, self.edges)
        comp = [-1] * n
        for i, c in enumerate(classes):
            for v in c:
                comp[v] = i
        self.component = tuple(comp)
        self.component_sizes = tuple(len(c) for c in classes)
        if len(self.edges) != n - self.k:
            raise ValueError(
                f"edge count {len(self.edges)} does not match "
                f"{self.k} components on {n} vertices (acyclicity broken)"
            )

    @property
    def k(self) -> int:
        return len(self.component_sizes)

    def is_balanced(self) -> bool:
        return len(set(self.component_sizes)) == 1

    def partition(self) -> Partition:
        return Partition(self.host, forest_classes(self.host, self.edges))


# Up-down steps on square grids cost the same on both dynamic forests at 144
# vertices (12x12); below it the naive forest's short paths are cheaper, above
# it the link-cut forest's O(log n) paths are.
LINKCUT_MIN_VERTICES = 144


class UpDownWalker:
    """Mutable up-down chain state over k-forests of a host graph.

    One step: draw a uniform non-forest edge e; if its endpoints are already
    connected, remove a uniform edge of the created cycle (possibly e), else
    remove a uniform edge of the enlarged forest (possibly e). The dynamic
    forest sees at most one cut and one link per step. Both backends walk the
    same trajectory; ``use_linkcut=None`` picks the cheaper one for the host's
    vertex count, and True or False forces one.
    """

    def __init__(self, host: Multigraph, forest_edges, use_linkcut: bool | None = None):
        self.host = host
        m = host.num_edges
        self.in_forest = bytearray(m)
        for e in forest_edges:
            self.in_forest[e] = 1
        self.forest = [e for e in range(m) if self.in_forest[e]]
        self.nonforest = [e for e in range(m) if not self.in_forest[e]]
        self.pos_f = [-1] * m
        self.pos_nf = [-1] * m
        for i, e in enumerate(self.forest):
            self.pos_f[e] = i
        for i, e in enumerate(self.nonforest):
            self.pos_nf[e] = i
        n = host.num_vertices
        if use_linkcut is None:
            use_linkcut = n >= LINKCUT_MIN_VERTICES
        self.df = df = LinkCutForest(n) if use_linkcut else NaiveForest(n)
        for e in self.forest:
            u, v = host.edges[e]
            df.link(u, v, e)
        self.steps_taken = 0

    @property
    def k(self) -> int:
        return self.host.num_vertices - len(self.forest)

    def forest_edges(self) -> list[int]:
        return list(self.forest)

    def snapshot(self) -> KForest:
        return KForest(self.host, self.forest)

    def _swap_in(self, e: int, f: int) -> None:
        """Move e from nonforest to forest and f the other way."""
        i = self.pos_nf[e]
        last = self.nonforest[-1]
        self.nonforest[i] = last
        self.pos_nf[last] = i
        self.nonforest.pop()
        self.pos_nf[e] = -1
        j = self.pos_f[f]
        last_f = self.forest[-1]
        self.forest[j] = last_f
        self.pos_f[last_f] = j
        self.forest.pop()
        self.pos_f[f] = -1
        self.forest.append(e)
        self.pos_f[e] = len(self.forest) - 1
        self.nonforest.append(f)
        self.pos_nf[f] = len(self.nonforest) - 1

    def run(self, steps: int, rng: RngStream, on_state=None) -> None:
        """Advance the chain ``steps`` transitions, drawing two uniforms each."""
        df = self.df
        edges = self.host.edges
        nonforest = self.nonforest
        forest = self.forest
        draws = rng.uniforms()
        for _ in range(steps):
            e = nonforest[int(next(draws) * len(nonforest))]
            r = next(draws)
            u, v = edges[e]
            cycle = df.path_or_none(u, v)
            if cycle is not None:
                j = int(r * (len(cycle) + 1))
                if j < len(cycle):
                    x, y, _ = cycle[j]
                    f = df.cut(x, y)
                    df.link(u, v, e)
                    self._swap_in(e, f)
            else:
                j = int(r * (len(forest) + 1))
                if j < len(forest):
                    f = forest[j]
                    x, y = edges[f]
                    df.cut(x, y)
                    df.link(u, v, e)
                    self._swap_in(e, f)
                else:
                    # e joins two components and then e itself is removed
                    pass
            self.steps_taken += 1
            if on_state is not None:
                on_state(self)


@dataclass
class SamplerReport:
    """Per-call accounting; counts reconcile as accepted + rejected = rounds."""

    rounds_attempted: int = 0
    accepted: int = 0
    rejections: dict = field(default_factory=dict)
    trees_sampled: int = 0
    steps_taken: int = 0
    wall_clock: float = 0.0
    seed: tuple = ()
    flags: list = field(default_factory=list)

    def reject(self, cause: str) -> None:
        self.rejections[cause] = self.rejections.get(cause, 0) + 1

    def rejected_total(self) -> int:
        return sum(self.rejections.values())

    def check(self) -> None:
        assert self.accepted + self.rejected_total() == self.rounds_attempted

    def merge(self, other: "SamplerReport") -> "SamplerReport":
        merged = SamplerReport(
            rounds_attempted=self.rounds_attempted + other.rounds_attempted,
            accepted=self.accepted + other.accepted,
            rejections=dict(self.rejections),
            trees_sampled=self.trees_sampled + other.trees_sampled,
            steps_taken=self.steps_taken + other.steps_taken,
            wall_clock=self.wall_clock + other.wall_clock,
            seed=self.seed,
            flags=self.flags + [f for f in other.flags if f not in self.flags],
        )
        for cause, count in other.rejections.items():
            merged.rejections[cause] = merged.rejections.get(cause, 0) + count
        return merged

    def to_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "rounds_attempted": self.rounds_attempted,
            "accepted": self.accepted,
            "rejections": dict(sorted(self.rejections.items())),
            "trees_sampled": self.trees_sampled,
            "steps_taken": self.steps_taken,
            "seed": list(self.seed),
            "flags": list(self.flags),
        }
        if include_timing:
            doc["wall_clock"] = self.wall_clock
        return doc


DEFAULT_ROUND_CAP = 10_000_000


def perfect_balanced_sample(
    g: PlanarEmbedding,
    k: int,
    rng: RngStream,
    max_rounds: int = DEFAULT_ROUND_CAP,
    dual=None,
) -> tuple[Partition, SamplerReport]:
    """Draw one partition exactly from the balanced spanning tree distribution.

    Each round samples a uniform tree through the dual, finds the unique
    balanced split if any, and accepts with probability exactly 1/s where
    s counts spanning trees of the contraction G/P; the coin is an exact
    integer comparison, never floating point.
    """
    n = g.num_vertices
    if n % k != 0:
        raise ValueError(f"k={k} does not divide the vertex count {n}")
    sampler = DualWilsonSampler(g, dual)
    report = SamplerReport(seed=(rng.seed,) + rng.stream)
    t0 = time.perf_counter()
    while report.rounds_attempted < max_rounds:
        report.rounds_attempted += 1
        edges, steps = sampler.sample_edges(rng)
        report.trees_sampled += 1
        report.steps_taken += steps
        tree = SpanningTree(g, edges, validate=False)
        split = find_balanced_split(tree, k)
        if split is None:
            report.reject("not_splittable")
            continue
        partition = Partition.from_tree_cut(tree, split.cut_edges)
        s = count_spanning_trees(partition.contraction)
        if rng.rand_below(s) == 0:
            report.accepted += 1
            report.wall_clock = time.perf_counter() - t0
            report.check()
            return partition, report
        report.reject("final_rejection")
    report.wall_clock = time.perf_counter() - t0
    raise SamplerExhaustedError(
        f"no accepted balanced {k}-partition in {max_rounds} rounds "
        f"(rejections: {report.rejections})",
        report,
    )


def initial_forest(g: Multigraph, k: int, rng: RngStream) -> KForest:
    """Wilson tree minus the minimum-imbalance cut; a valid chain start."""
    t = wilson(g, rng=rng)
    cut = find_min_imbalance_split(t, k).cut_edges
    return KForest(g, t.edges - cut)


def approx_balanced_sample(
    g: Multigraph,
    k: int,
    rng: RngStream,
    mixing_multiplier: float = 10.0,
    max_rounds: int = 100_000,
    start: KForest | None = None,
) -> tuple[Partition, SamplerReport]:
    """Up-down chain with rejection: mix, test balance, repeat.

    Each round runs ceil(mixing_multiplier * M * ln M) up-down steps and
    returns the partition the moment the current forest is balanced. The
    multiplier trades confidence for time; zero degenerates to rejection
    from the start distribution and is flagged.
    """
    n = g.num_vertices
    if n % k != 0:
        raise ValueError(f"k={k} does not divide the vertex count {n}")
    m = g.num_edges
    steps_per_round = math.ceil(mixing_multiplier * m * math.log(max(m, 2)))
    report = SamplerReport(seed=(rng.seed,) + rng.stream)
    if mixing_multiplier == 0:
        report.flags.append("mixing_multiplier=0: rejection from the unmixed start distribution")
    t0 = time.perf_counter()
    if start is None:
        start = initial_forest(g, k, rng)
    walker = UpDownWalker(g, start.edges)
    while report.rounds_attempted < max_rounds:
        report.rounds_attempted += 1
        walker.run(steps_per_round, rng)
        report.steps_taken += steps_per_round
        forest = walker.snapshot()
        if forest.is_balanced():
            report.accepted += 1
            report.wall_clock = time.perf_counter() - t0
            report.check()
            return forest.partition(), report
        report.reject("not_balanced")
    report.wall_clock = time.perf_counter() - t0
    raise SamplerExhaustedError(
        f"no balanced forest after {max_rounds} mixing rounds "
        f"of {steps_per_round} steps",
        report,
    )


def partition_json_dict(
    p: Partition,
    m: int | None = None,
    n: int | None = None,
    seed=None,
    rounds: int | None = None,
) -> dict:
    """Wire format for one sampled partition."""
    return {
        "m": m,
        "n": n,
        "k": p.k,
        "seed": list(seed) if seed is not None else None,
        "classes": [list(c) for c in p.classes],
        "cut_edges": sorted(p.cut_edges) if p.cut_edges is not None else None,
        "rounds": rounds,
    }
