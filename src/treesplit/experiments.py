"""Experiment engines: heatmaps, component-size histograms, walk bounds, scaling.

All Monte Carlo loops key their RNG substreams by (seed, class, trial), so
trial-parallel runs aggregate to identical counts regardless of scheduling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from multiprocessing import Pool

from .bounds import exit_above_floor
from .planar import build_grid, grid_vertex, grid_vertical_edge, root_forest, subtree_sizes
from .rng import RngStream
from .stats import wilson_score_interval
from .walks import DualWilsonSampler


def default_workers() -> int:
    env = os.environ.get("TREESPLIT_WORKERS")
    if env:
        return max(1, int(env))
    return 1


# -- vertical-edge symmetry classes -------------------------------------------


@dataclass(frozen=True)
class EdgeClass:
    """Orbit of vertical edges under the rectangle symmetries, 1-based coords.

    A vertical edge (i, j) joins grid points (i, j) and (i, j+1); the orbit
    is generated by the horizontal flip i -> m+1-i and the vertical flip
    j -> n-j (which maps vertical edges to vertical edges).
    """

    col: int
    row: int
    members: tuple[tuple[int, int], ...]


def vertical_edge_classes(m: int, n: int) -> list[EdgeClass]:
    seen: set[tuple[int, int]] = set()
    classes = []
    for j in range(1, n):
        for i in range(1, m + 1):
            if (i, j) in seen:
                continue
            orbit = {
                (i, j),
                (m + 1 - i, j),
                (i, n - j),
                (m + 1 - i, n - j),
            }
            seen |= orbit
            rep = min(orbit)
            classes.append(EdgeClass(rep[0], rep[1], tuple(sorted(orbit))))
    return classes


def central_vertical_class(m: int, n: int) -> EdgeClass:
    """The class of vertical edges crossing the grid center."""
    best = None
    cx = (m + 1) / 2
    cy = (n + 1) / 2  # vertical edge (i, j) spans rows j..j+1, midpoint j + 1/2
    for c in vertical_edge_classes(m, n):
        i, j = c.members[0]
        d = (i - cx) ** 2 + (j + 0.5 - cy) ** 2
        if best is None or d < best[0]:
            best = (d, c)
    return best[1]


def corner_vertical_class(m: int, n: int) -> EdgeClass:
    """The class containing the vertical edge at (1, 1)."""
    for c in vertical_edge_classes(m, n):
        if (1, 1) in c.members:
            return c
    raise AssertionError("grid with n >= 2 always has a corner vertical edge")


# -- per-trial grid machinery --------------------------------------------------


def _trial_ranges(trials: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous trial-index chunks, about two per worker."""
    chunk = max(1, trials // max(1, 2 * workers))
    return [(lo, min(trials, lo + chunk)) for lo in range(0, trials, chunk)]


def _run_chunks(chunks, workers: int, fn):
    if workers <= 1:
        return [fn(c) for c in chunks]
    with Pool(processes=workers) as pool:
        return pool.map(fn, chunks)


def _edge_chunk(args) -> tuple[int, list[int], int]:
    """Below-component sizes of one vertical edge over a range of trials.

    Trial t samples a grid tree keyed by (seed, (key, t)) and roots it once.
    ``counts[s]`` tallies the trees holding the edge (i, j), 1-based, with s
    vertices on its lower side; the splittable count tallies the trees with
    a balanced single-edge cut.
    """
    m, n, seed, key, (i, j), lo, hi = args
    g = build_grid(m, n)
    sampler = DualWilsonSampler(g)
    big_n = m * n
    # the root's size is N, never N/2, so searching all sizes is safe
    half = big_n // 2 if big_n % 2 == 0 else -1
    e = grid_vertical_edge(m, n, i - 1, j - 1)
    lower = grid_vertex(m, i - 1, j - 1)
    upper = lower + m
    counts = [0] * (big_n + 1)
    splittable = 0
    for t in range(lo, hi):
        edges, _ = sampler.sample_edges(RngStream(seed, (key, t)))
        parent, parent_edge, order = root_forest(big_n, g.edges, edges)
        size = subtree_sizes(parent, order)
        if parent_edge[lower] == e:
            counts[size[lower]] += 1
        elif parent_edge[upper] == e:
            counts[big_n - size[upper]] += 1
        if half in size:
            splittable += 1
    return key, counts, splittable


# -- heatmap -------------------------------------------------------------------


@dataclass
class HeatmapClassResult:
    col: int
    row: int
    successes: int
    trials: int
    splittable: int

    @property
    def frequency(self) -> float:
        return self.successes / self.trials


@dataclass
class HeatmapResult:
    m: int
    n: int
    trials: int
    classes: list[EdgeClass]
    rows: list[HeatmapClassResult]

    def splittable_frequency(self) -> float:
        total = sum(r.splittable for r in self.rows)
        return total / sum(r.trials for r in self.rows)


def heatmap_run(
    m: int,
    n: int,
    trials: int,
    seed: int,
    workers: int = 1,
    classes: list[EdgeClass] | None = None,
) -> HeatmapResult:
    """Per-symmetry-class balanced-split counts for vertical edges.

    Each class runs ``trials`` independent tree samples and counts those in
    which the representative edge is a tree edge splitting it evenly; trees
    are also scored for 2-splittability overall.
    """
    if m * n % 2:
        raise ValueError("the heatmap needs an even number of vertices")
    if classes is None:
        classes = vertical_edge_classes(m, n)
    chunks = [
        (m, n, seed, ci, (c.col, c.row), lo, hi)
        for ci, c in enumerate(classes)
        for lo, hi in _trial_ranges(trials, workers)
    ]
    per_class = [HeatmapClassResult(c.col, c.row, 0, trials, 0) for c in classes]
    for ci, counts, splittable in _run_chunks(chunks, workers, _edge_chunk):
        per_class[ci].successes += counts[m * n // 2]
        per_class[ci].splittable += splittable
    return HeatmapResult(m, n, trials, classes, per_class)


# -- histogram -------------------------------------------------------------------


@dataclass
class HistogramResult:
    m: int
    n: int
    edge: tuple[int, int]
    trials: int
    counts: list[int]  # index s = below-component size, 1..N-1
    in_tree: int

    def total_mass(self) -> float:
        return sum(self.counts) / self.trials

    def bins(self, bin_size: int) -> list[tuple[int, int, int]]:
        """(size_lo, size_hi, count) rows over 1..N-1 inclusive."""
        out = []
        lo = 1
        nmax = len(self.counts) - 2  # below-component size is at most N-1
        while lo <= nmax:
            hi = min(nmax, lo + bin_size - 1)
            out.append((lo, hi, sum(self.counts[lo : hi + 1])))
            lo = hi + 1
        return out


def histogram_run(
    m: int,
    n: int,
    edge: tuple[int, int],
    trials: int,
    seed: int,
    workers: int = 1,
) -> HistogramResult:
    """Distribution of the below-component size for one vertical edge.

    Trials where the edge is not in the tree contribute no mass, so the
    histogram sums to strictly less than one.
    """
    i, j = edge
    if not (1 <= i <= m and 1 <= j <= n - 1):
        raise ValueError(f"no vertical edge at ({i}, {j}) in a {m}x{n} grid")
    chunks = [(m, n, seed, 0, edge, lo, hi) for lo, hi in _trial_ranges(trials, workers)]
    counts = [0] * (m * n + 1)
    for _, c, _ in _run_chunks(chunks, workers, _edge_chunk):
        for s, v in enumerate(c):
            counts[s] += v
    in_tree = sum(counts)
    return HistogramResult(m, n, edge, trials, counts, in_tree)


# -- random-walk exit bounds -----------------------------------------------------


@dataclass
class WalkBoundResult:
    geometry: str
    params: dict
    successes: int
    trials: int
    bound: float | None  # closed-form floor when one is known

    @property
    def frequency(self) -> float:
        return self.successes / self.trials

    def confidence(self) -> tuple[float, float]:
        return wilson_score_interval(self.successes, self.trials)


_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))

# geometry -> params -> (box (x_lo, x_hi, y_lo, y_hi), start, success test on
# the first point outside the box)
_BOX_WALKS = {
    "exit-not-below": lambda p: (
        (1, p["m"], 1, p["n"]), (p["i0"], p["j0"]), lambda x, y: y > 0),
    "square-top": lambda p: (
        (-p["ell"], p["ell"], 0, 2 * p["ell"]), (0, 0), lambda x, y: y == 2 * p["ell"] + 1),
    "tall-top": lambda p: (
        (0, p["m"], 0, p["n"]), (p["m"] // 2, 0), lambda x, y: y == p["n"] + 1),
}


def _walk_chunk(args):
    geometry, params, seed, lo, hi = args
    (x_lo, x_hi, y_lo, y_hi), start, success = _BOX_WALKS[geometry](params)
    successes = 0
    for t in range(lo, hi):
        rng = RngStream(seed, (t,))
        buf = rng.block()
        bi = 0
        blen = len(buf)
        x, y = start
        while x_lo <= x <= x_hi and y_lo <= y <= y_hi:
            if bi == blen:
                buf = rng.block()
                bi = 0
            dx, dy = _STEPS[int(buf[bi] * 4)]
            bi += 1
            x += dx
            y += dy
        successes += success(x, y)
    return successes


def walk_bound_run(
    geometry: str,
    params: dict,
    trials: int,
    seed: int,
    workers: int = 1,
) -> WalkBoundResult:
    """Monte Carlo first-exit frequencies for the three box geometries.

    ``exit-not-below`` carries its closed-form floor j0/(n+1); the square and
    tall-rectangle top-exit probabilities have unknown constants, so only the
    estimate and confidence interval are reported.
    """
    if geometry not in _BOX_WALKS:
        raise ValueError(f"unknown geometry {geometry!r}")
    (x_lo, x_hi, y_lo, y_hi), (x0, y0), _ = _BOX_WALKS[geometry](params)
    if not (x_lo <= x0 <= x_hi and y_lo <= y0 <= y_hi):
        raise ValueError(
            f"{geometry}: start ({x0}, {y0}) lies outside the box "
            f"[{x_lo}, {x_hi}] x [{y_lo}, {y_hi}]"
        )
    bound = None
    if geometry == "exit-not-below":
        bound = float(exit_above_floor(params["j0"], params["n"]))
    chunks = [(geometry, params, seed, lo, hi) for lo, hi in _trial_ranges(trials, workers)]
    results = _run_chunks(chunks, workers, _walk_chunk)
    return WalkBoundResult(geometry, params, sum(results), trials, bound)


# -- Wilson step-count scaling -----------------------------------------------------


@dataclass
class ScalingPoint:
    n: int
    N: int
    samples: int
    mean_steps: float
    normalized: float  # mean_steps / (N ln N)


def wilson_scaling(sizes, samples: int, seed: int) -> list[ScalingPoint]:
    """Mean dual-rooted Wilson step counts over n-by-n grids."""
    out = []
    for idx, n in enumerate(sizes):
        sampler = DualWilsonSampler(build_grid(n, n))
        total = sum(
            sampler.sample_edges(RngStream(seed, (idx, t)))[1] for t in range(samples)
        )
        mean = total / samples
        big_n = n * n
        out.append(
            ScalingPoint(n, big_n, samples, mean, mean / (big_n * math.log(big_n)))
        )
    return out
