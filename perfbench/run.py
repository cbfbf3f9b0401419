"""Benchmark of treesplit's Monte Carlo workloads, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload through treesplit's public entry points in this process,
with one worker. Set-up (import, graphs, duals, regions, start forests) is
timed from process start; then whole rounds of the workload run until
``--seconds`` have passed; then the outputs are checked. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
measured with no tracing installed; with ``--trace 1`` spans are recorded at
module boundaries (see spans.py) and the metrics are the per-layer ones.

A run record (metrics, check results, machine facts) goes to
``perfbench/out/``, and with tracing the spans too.
"""

import time

T_SCRIPT = time.perf_counter()

import speed  # noqa: E402

PROBE = speed.SpeedProbe()
PROBE.start()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from itertools import combinations  # noqa: E402
from pathlib import Path  # noqa: E402


def _since_process_start() -> float:
    """Seconds from process start to now, or 0 where /proc cannot tell."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        since = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return since if 0.0 <= since < 5.0 else 0.0


# interpreter start-up before this script's first line
PRE_SCRIPT = max(0.0, _since_process_start() - (time.perf_counter() - T_SCRIPT))

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np
    import treesplit
    from treesplit import dynforest, experiments, lattice, planar, samplers, splitting, walks
    from treesplit.rng import RngStream
except ImportError as exc:
    PROBE.stop()
    sys.exit(f"perfbench: cannot import treesplit from {ROOT / 'src'}: {exc}")

import reference as ref  # noqa: E402
import spans  # noqa: E402


def round_seed(seed: int, r: int) -> int:
    """Seed of round r: rounds of one run never share a trial key."""
    return (seed << 20) + r


# -- heatmap-10x10 ---------------------------------------------------------------


def own_orbit(m: int, n: int, i: int, j: int) -> frozenset:
    return frozenset({(i, j), (m + 1 - i, j), (i, n - j), (m + 1 - i, n - j)})


class Heatmap:
    """Figure 7: per-class balanced-split counts, one op per class-trial."""

    M = N = 10
    TRIALS = 200  # trials per class per round; 25 classes make 5000 ops
    # Figure 7 of the paper: balanced-split counts per 1e6 trees
    FIGURE7 = {(5, 5): 3781, (1, 1): 255}

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds = 0
        self.rows: dict = {}
        self.trials = 0
        self.errors: list[str] = []

    def round(self) -> int:
        res = experiments.heatmap_run(
            self.M, self.N, self.TRIALS, round_seed(self.seed, self.rounds), workers=1
        )
        self.rounds += 1
        self.trials += self.TRIALS
        for c, row in zip(res.classes, res.rows):
            if set(c.members) != own_orbit(self.M, self.N, c.col, c.row):
                self.errors.append(f"class ({c.col}, {c.row}) is not its orbit")
            if not (0 <= row.successes <= row.splittable <= row.trials == self.TRIALS):
                self.errors.append(
                    f"class ({row.col}, {row.row}): successes {row.successes}, "
                    f"splittable {row.splittable}, trials {row.trials}"
                )
            acc = self.rows.setdefault((row.col, row.row), [0, 0, len(c.members)])
            acc[0] += row.successes
            acc[1] += row.splittable
        return self.TRIALS * len(res.rows)

    def check(self) -> list[str]:
        errors = list(self.errors)
        t = self.trials
        if len(self.rows) != 25:
            errors.append(f"{len(self.rows)} vertical-edge classes, expected 25")
        # each tree has at most one balanced edge, and rotation maps the
        # horizontal edges onto the vertical ones: the vertical edges carry
        # half of the 2-splittable mass
        vert = sum(size * s for s, _, size in self.rows.values()) / t
        trees = t * len(self.rows)
        split = sum(sp for _, sp, _ in self.rows.values()) / trees
        p_hi = split + 5 * math.sqrt(max(split, 1 / trees) / trees)
        # |orbit| <= 4 bounds the variance of the orbit sum by 4 * (P/2) / t
        tol = 4.5 * (math.sqrt(2 * p_hi / t) + 0.5 * math.sqrt(p_hi / trees))
        if abs(vert - split / 2) > tol:
            errors.append(
                f"orbit-weighted balanced frequency {vert:.5f} vs half the "
                f"2-splittable frequency {split / 2:.5f} (tolerance {tol:.5f})"
            )
        for key, per_million in self.FIGURE7.items():
            p = per_million / 1e6
            sd = math.sqrt(p * (1 - p) / 1e6)
            lo, hi = ref.binomial_region(t, max(p - 4.5 * sd, 0.0), p + 4.5 * sd,
                                         alpha=ref.ALPHA / 2)
            got = self.rows.get(key, [0])[0]
            if not lo <= got <= hi:
                errors.append(
                    f"class {key}: {got} of {t} balanced, outside [{lo}, {hi}] "
                    f"for Figure 7's {per_million} per 1e6"
                )
        errors += check_small_heatmap(self.seed)
        errors += check_worker_counts(self.seed)
        return errors

    def record(self) -> dict:
        return {"trials_per_class": self.trials,
                "central": self.rows.get((5, 5), [0])[0],
                "corner": self.rows.get((1, 1), [0])[0]}


def check_small_heatmap(seed: int, trials: int = 2000) -> list[str]:
    """4x4 heatmap frequencies against exact balanced-split probabilities."""
    m = n = 4
    edges = ref.grid_edges(m, n)
    parts = ref.balanced_bipartitions(m * n, edges)
    total = ref.kirchhoff_count(range(m * n), edges)
    res = experiments.heatmap_run(m, n, trials, round_seed(seed, 1 << 19), workers=1)
    errors = []
    cells = len(res.rows) + 1
    split_p = Fraction(sum(w * len(cut) for _, _, w, cut in parts), total)
    for row in res.rows:
        lower = (row.col - 1) + (row.row - 1) * m
        upper = lower + m
        p = Fraction(sum(w for a, _, w, _ in parts if (lower in a) != (upper in a)), total)
        lo, hi = ref.binomial_region(trials, float(p), alpha=ref.ALPHA / cells)
        if not lo <= row.successes <= hi:
            errors.append(f"4x4 class ({row.col}, {row.row}): {row.successes} of "
                          f"{trials}, outside [{lo}, {hi}] for p={float(p):.5f}")
    splittable = sum(r.splittable for r in res.rows)
    trees = trials * len(res.rows)
    lo, hi = ref.binomial_region(trees, float(split_p), alpha=ref.ALPHA / cells)
    if not lo <= splittable <= hi:
        errors.append(f"4x4 2-splittable: {splittable} of {trees}, outside "
                      f"[{lo}, {hi}] for p={float(split_p):.5f}")
    return errors


def check_worker_counts(seed: int) -> list[str]:
    """The same short heatmap at one and at two workers gives the same counts."""
    args = (4, 4, 40, round_seed(seed, (1 << 19) + 1))
    one, two = (
        [(r.col, r.row, r.successes, r.splittable)
         for r in experiments.heatmap_run(*args, workers=w).rows]
        for w in (1, 2)
    )
    if one != two:
        return [f"heatmap counts differ between 1 and 2 workers: {one} vs {two}"]
    return []


# -- exact-10x10-k2 ----------------------------------------------------------------


def check_two_partition(classes, cut_edges, num_vertices: int, edges, adj) -> list[str]:
    """Two connected halves covering the graph, with one cut edge between them."""
    classes = [set(c) for c in classes]
    if len(classes) != 2 or any(len(c) != num_vertices // 2 for c in classes):
        return [f"class sizes {[len(c) for c in classes]}"]
    a, b = classes
    if a & b or a | b != set(range(num_vertices)):
        return ["classes overlap or miss vertices"]
    if not (ref.is_connected(a, adj) and ref.is_connected(b, adj)):
        return ["a class is disconnected"]
    cut = list(cut_edges or ())
    if len(cut) != 1:
        return [f"{len(cut)} cut edges"]
    u, v = edges[cut[0]]
    if (u in a) == (v in a):
        return [f"cut edge {cut[0]} does not join the classes"]
    return []


class Exact:
    """The exact k=2 sampler on 10x10; one op per rejection round."""

    M = N = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.g = planar.build_grid(self.M, self.N)
        self.dual = planar.compute_dual(self.g)
        self.samples: list = []
        self.rounds = 0

    def round(self) -> int:
        p, rep = samplers.perfect_balanced_sample(
            self.g, 2, RngStream(self.seed, (len(self.samples),)), dual=self.dual
        )
        self.samples.append((p.classes, p.cut_edges, rep.accepted,
                             rep.rounds_attempted, rep.rejected_total()))
        self.rounds += rep.rounds_attempted
        return rep.rounds_attempted

    def check(self) -> list[str]:
        nv = self.M * self.N
        edges = ref.grid_edges(self.M, self.N)
        errors = [] if list(self.g.edges) == edges else ["grid edges are not the documented grid"]
        adj = ref.adjacency(nv, edges)
        for i, (classes, cut, accepted, rounds, rejected) in enumerate(self.samples):
            if accepted != 1 or rounds != accepted + rejected:
                errors.append(f"sample {i}: {accepted} accepted, {rounds} rounds, "
                              f"{rejected} rejected")
            errors += [f"sample {i}: {e}" for e in
                       check_two_partition(classes, cut, nv, edges, adj)]
        return errors + check_small_exact_law(self.seed)

    def record(self) -> dict:
        return {"samples": len(self.samples), "rounds": self.rounds}


def check_small_exact_law(seed: int, samples: int = 1500) -> list[str]:
    """Exact 3x4 k=2 samples against the weights tau(A) tau(B)."""
    m, n = 3, 4
    g = planar.build_grid(m, n)
    dual = planar.compute_dual(g)
    edges = ref.grid_edges(m, n)
    weights = {
        tuple(sorted((tuple(sorted(a)), tuple(sorted(b))))): w
        for a, b, w, _ in ref.balanced_bipartitions(m * n, edges)
    }
    counts: Counter = Counter()
    for i in range(samples):
        p, _ = samplers.perfect_balanced_sample(
            g, 2, RngStream(round_seed(seed, 1 << 19), (i,)), dual=dual
        )
        counts[tuple(sorted(tuple(sorted(c)) for c in p.classes))] += 1
    return [f"3x4 law: {e}" for e in ref.multinomial_check(counts, weights, samples)]


# -- updown-6x6, updown-40x40 ------------------------------------------------------


class UpDown:
    """The up-down chain on 2-forests, driven as approx_balanced_sample drives it.

    One op is a chain step; a round is ceil(10 M ln M) steps and ends with a
    snapshot. The start forest comes from a fixed key, so every run builds the
    same start and set-up time measures the same work; the chain itself is
    keyed by the seed.
    """

    START_KEY = (1, (0,))
    PREFIX = 2000  # steps over which the two backends must agree

    def __init__(self, side: int, seed: int):
        self.seed = seed
        self.g = planar.build_grid(side, side)
        self.start = samplers.initial_forest(self.g, 2, RngStream(*self.START_KEY))
        self.walker = samplers.UpDownWalker(self.g, self.start.edges)
        self.rng = RngStream(seed, (0,))
        m = self.g.num_edges
        self.steps_per_round = math.ceil(10 * m * math.log(m))
        self.snapshots = 0
        self.balanced = 0
        self.last = None

    def round(self) -> int:
        self.walker.run(self.steps_per_round, self.rng)
        self.last = self.walker.snapshot()
        self.snapshots += 1
        self.balanced += self.last.is_balanced()
        return self.steps_per_round

    def check(self) -> list[str]:
        nv = self.g.num_vertices
        edges = self.g.edges
        errors = []
        forest = sorted(self.walker.forest_edges())
        comps = ref.forest_components(nv, [edges[e] for e in forest])
        if len(forest) != nv - 2 or comps != 2:
            errors.append(f"final state: {len(forest)} edges, components {comps} "
                          "(None: a cycle)")
        if set(self.last.edges) != set(forest) or sorted(self.last.component_sizes) != \
                sorted(ref.part_sizes(nv, [edges[e] for e in forest])):
            errors.append("snapshot does not match the walker state")
        # the other backend, from the same start and key, walks the same path
        default = samplers.UpDownWalker(self.g, self.start.edges)
        other = samplers.UpDownWalker(
            self.g, self.start.edges,
            use_linkcut=not isinstance(default.df, dynforest.LinkCutForest),
        )
        for w in (default, other):
            w.run(self.PREFIX, RngStream(self.seed, (0,)))
        if set(default.forest) != set(other.forest):
            errors.append(f"{type(default.df).__name__} and {type(other.df).__name__} "
                          f"differ after {self.PREFIX} steps")
        return errors + check_cycle_occupancy(self.seed)

    def record(self) -> dict:
        return {"snapshots": self.snapshots, "balanced": self.balanced,
                "steps_per_round": self.steps_per_round,
                "backend": type(self.walker.df).__name__}


def check_cycle_occupancy(seed: int, samples: int = 6000, thin: int = 8) -> list[str]:
    """Up-down occupancy on the 4-cycle against the uniform law on its 2-forests.

    The chain there moves to each of 4 neighbours with probability 1/6 and
    stays with 1/3, so its second eigenvalue is 1/3 and states 8 steps apart
    are correlated by at most 3^-8.
    """
    cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
    g = planar.Multigraph(4, cycle)
    forests = {
        f: 1 for f in combinations(range(4), 2)
        if ref.forest_components(4, [cycle[e] for e in f]) == 2
    }
    walker = samplers.UpDownWalker(g, [0, 1])
    counts: Counter = Counter()
    steps = [0]

    def tally(w):
        steps[0] += 1
        if steps[0] % thin == 0:
            counts[tuple(sorted(w.forest))] += 1

    walker.run(samples * thin, RngStream(round_seed(seed, 1 << 19), (0,)), on_state=tally)
    errors = [] if len(forests) == 6 else [f"{len(forests)} 2-forests on the 4-cycle"]
    return errors + [f"4-cycle occupancy: {e}"
                     for e in ref.multinomial_check(counts, forests, samples)]


# -- lattice-tri-k3 ----------------------------------------------------------------


class Lattice:
    """Compatibility trials on the triangular lattice clipped to three strips."""

    KIND, REFINE, EPS = "triangular", 20, 0.1

    def __init__(self, seed: int):
        self.seed = seed
        self.drawing = lattice.vertical_strips(3)
        self.region = lattice.build_lattice_region(
            self.KIND, self.REFINE, self.drawing, 3.0 / self.REFINE
        )
        self.rounds = 0
        self.successes = 0
        self.splittable = 0
        self.errors: list[str] = []

    def round(self) -> int:
        res = lattice.compatibility_experiment(
            self.KIND, self.REFINE, self.drawing, self.EPS, 1,
            round_seed(self.seed, self.rounds), region=self.region,
        )
        self.rounds += 1
        for name, count in (("successes", res.successes),
                            ("splittable", res.splittable_successes)):
            if not 0 <= count <= res.trials == 1:
                self.errors.append(f"round {self.rounds}: {name} {count} of {res.trials}")
        self.successes += res.successes
        self.splittable += res.splittable_successes
        return 1

    def check(self, trees: int = 20) -> list[str]:
        errors = list(self.errors)
        g = self.region.region
        faces = ref.face_count(g.coords, g.edges)
        if g.num_vertices - g.num_edges + faces != 2:
            errors.append(f"region V-E+F = {g.num_vertices - g.num_edges + faces}")
        nv = g.num_vertices
        for t in range(trees):
            tree = walks.wilson_on_dual(
                g, rng=RngStream(round_seed(self.seed, 1 << 19), (t,)), dual=self.region.dual
            )
            pairs = [g.edges[e] for e in tree.edges]
            if len(pairs) != nv - 1 or ref.forest_components(nv, pairs) != 1:
                errors.append(f"tree {t} is not a spanning tree")
                continue
            # the workload's epsilon, then narrower windows, where an
            # off-by-one window edge decides whether a split exists
            for eps in (Fraction(1, 10), Fraction(1, 20), Fraction(1, 50), Fraction(1, 100)):
                errors += [f"tree {t}, epsilon {eps}: {e}"
                           for e in check_three_split(tree, g, eps)]
        return errors

    def record(self) -> dict:
        return {"trials": self.rounds, "successes": self.successes,
                "splittable": self.splittable, "vertices": self.region.region.num_vertices}


def check_three_split(tree, g, eps: Fraction) -> list[str]:
    """find_approx_split(tree, 3, eps) against the scan over subtree sizes."""
    nv = g.num_vertices
    found = splitting.find_approx_split(tree, 3, float(eps))
    exists = ref.three_split_exists(nv, [g.edges[e] for e in tree.edges], eps)
    if (found is not None) != exists:
        return [f"find_approx_split says {found is not None}, the scan says {exists}"]
    if found is None:
        return []
    cut = set(found.cut_edges)
    sizes = ref.part_sizes(nv, [g.edges[e] for e in tree.edges if e not in cut])
    if len(cut) != 2 or not cut <= tree.edges or \
            any(not (1 - eps) * nv <= 3 * s <= (1 + eps) * nv for s in sizes) or \
            sorted(sizes) != sorted(found.component_sizes):
        return [f"split {sorted(cut)} gives parts {sizes}"]
    return []


WORKLOADS = {
    "heatmap-10x10": Heatmap,
    "exact-10x10-k2": Exact,
    "updown-6x6": lambda seed: UpDown(6, seed),
    "updown-40x40": lambda seed: UpDown(40, seed),
    "lattice-tri-k3": Lattice,
}


# -- driver ------------------------------------------------------------------------


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "treesplit": treesplit.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.phase = spans.SETUP
    RngStream(0).block()  # numpy's first generator pays one-off start-up costs
    work = WORKLOADS[args.workload](args.seed)
    t_setup = time.perf_counter()
    setup_s = PRE_SCRIPT + PROBE.reference_seconds(T_SCRIPT, t_setup)

    if tracer:
        tracer.phase = spans.TIMED
    ops = 0
    rounds = 0
    t0 = time.perf_counter()
    while True:
        ops += work.round()
        rounds += 1
        t1 = time.perf_counter()
        if t1 - t0 >= args.seconds:
            break
    if tracer:
        tracer.phase = None

    PROBE.stop()
    t_check = time.perf_counter()
    errors = work.check()
    check_s = time.perf_counter() - t_check
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed_s = PROBE.reference_seconds(t0, t1)
    ops_per_s = ops / timed_s

    missing: list[str] = []
    if tracer:
        metrics, missing = spans.per_layer_metrics(tracer, ops)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not errors, "attempted": ops, "failed": 0, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "result": result,
        "rounds": rounds, "timed_s": timed_s, "ops_per_s": ops_per_s,
        "wall_timed_s": t1 - t0, "wall_setup_s": PRE_SCRIPT + t_setup - T_SCRIPT,
        "probes": len(PROBE.duration),
        "probe_median_s": statistics.median(PROBE.duration) if PROBE.duration else None,
        "setup_s": setup_s, "check_s": check_s, "errors": errors,
        "missing_metrics": missing, "workload_record": work.record(),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.save(OUT / f"{stem}.spans.npz")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if missing:
        print(f"missing per-layer metrics (read 0): {', '.join(missing)}", file=sys.stderr)
    print(f"{args.workload}: {ops} ops in {t1 - t0:.2f} s, {rounds} rounds, "
          f"set-up {setup_s:.2f} s, checks {check_s:.2f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        PROBE.stop()
