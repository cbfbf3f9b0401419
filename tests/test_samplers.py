"""Balanced-partition samplers against enumeration oracles."""

from __future__ import annotations

import os
from collections import Counter

import pytest

from treesplit.enumeration import (
    balanced_partition_weights,
    enumerate_k_forests,
    forest_components,
)
import treesplit.planar
import treesplit.samplers
from treesplit.lattice import compatibility_experiment, vertical_strips
from treesplit.planar import Multigraph, build_grid, count_spanning_trees
from treesplit.rng import RngStream
from treesplit.samplers import (
    KForest,
    SamplerExhaustedError,
    UpDownWalker,
    approx_balanced_sample,
    initial_forest,
    partition_json_dict,
    perfect_balanced_sample,
)

FULL = os.environ.get("TREESPLIT_FULL") == "1"


def cycle_graph(n: int) -> Multigraph:
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n)])


def tv_to_weights(counts: Counter, weights: dict) -> float:
    total = sum(counts.values())
    z = sum(weights.values())
    keys = set(counts) | set(weights)
    return 0.5 * sum(
        abs(counts.get(k, 0) / total - weights.get(k, 0) / z) for k in keys
    )


# ---------------------------------------------------------------------------
# KForest
# ---------------------------------------------------------------------------


def test_kforest_components_and_balance():
    g = cycle_graph(4)
    f = KForest(g, [0, 2])
    assert f.k == 2
    assert sorted(f.component_sizes) == [2, 2]
    assert f.is_balanced()


def test_kforest_rejects_cycle():
    g = cycle_graph(3)
    with pytest.raises(ValueError):
        KForest(g, [0, 1, 2])


# ---------------------------------------------------------------------------
# Tree counts are computed only where they are read
# ---------------------------------------------------------------------------


@pytest.fixture
def tree_count_calls(monkeypatch):
    """Number of count_spanning_trees calls made through samplers or planar."""
    calls = [0]

    def counting(g):
        calls[0] += 1
        return count_spanning_trees(g)

    monkeypatch.setattr(treesplit.samplers, "count_spanning_trees", counting)
    monkeypatch.setattr(treesplit.planar, "count_spanning_trees", counting)
    return calls


@pytest.mark.parametrize("m,n,k", [(4, 4, 2), (3, 3, 3)])
def test_perfect_sampler_counts_trees_once_per_splittable_round(m, n, k, tree_count_calls):
    g = build_grid(m, n)
    splittable = 0
    for seed in range(5):
        _, report = perfect_balanced_sample(g, k, RngStream(seed, (7,)))
        splittable += report.rounds_attempted - report.rejections.get("not_splittable", 0)
    assert splittable > 5
    assert tree_count_calls[0] == splittable


def test_compatibility_k3_counts_no_trees(tree_count_calls):
    exp = compatibility_experiment("square", 6, vertical_strips(3), 0.25, trials=6, seed=3)
    assert exp.splittable_successes > 0
    assert tree_count_calls[0] == 0


# ---------------------------------------------------------------------------
# single up-down steps
# ---------------------------------------------------------------------------


def test_updown_step_preserves_forest_shape():
    g = build_grid(3, 3)
    rng = RngStream(3)
    f = initial_forest(g, 3, rng)
    walker = UpDownWalker(g, f.edges)
    for _ in range(200):
        walker.run(1, rng)
        f = walker.snapshot()
        assert f.k == 3
        assert len(f.edges) == g.num_vertices - 3


def test_updown_cycle_edge_removed_uniformly():
    # forest = 3 edges of the 4-cycle; the only candidate edge closes a
    # 4-cycle, so each of the 4 edges is removed with probability 1/4
    g = cycle_graph(4)
    start = [0, 1, 2]
    removed = Counter()
    trials = 100_000
    for t in range(trials):
        walker = UpDownWalker(g, start, use_linkcut=True)
        walker.run(1, RngStream(17, t))
        nxt = walker.snapshot()
        gone = set(start + [3]) - nxt.edges
        assert len(gone) == 1
        removed[gone.pop()] += 1
    for e in range(4):
        assert abs(removed[e] / trials - 0.25) < 0.01


def occupancy_tv(g: Multigraph, k: int, steps: int, seed: int) -> float:
    forests = enumerate_k_forests(g, k)
    rng = RngStream(seed)
    walker = UpDownWalker(g, sorted(forests[0]))
    counts: Counter = Counter()

    def tally(w: UpDownWalker) -> None:
        counts[tuple(sorted(w.forest))] += 1

    walker.run(steps, rng, on_state=tally)
    uniform = {tuple(sorted(f)): 1 for f in forests}
    return tv_to_weights(counts, uniform)


def test_updown_stationary_on_4cycle():
    assert occupancy_tv(cycle_graph(4), 2, 300_000, seed=23) < 0.03


def test_updown_stationary_on_k4():
    k4 = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert occupancy_tv(k4, 2, 500_000, seed=29) < 0.03


def test_updown_stationary_on_multigraph():
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2), (2, 0)])
    assert occupancy_tv(g, 2, 300_000, seed=31) < 0.03


# ---------------------------------------------------------------------------
# perfect sampler
# ---------------------------------------------------------------------------


def test_perfect_2x2_two_partitions_equally_likely():
    g = build_grid(2, 2)
    counts: Counter = Counter()
    accepts = 100_000 if FULL else 30_000
    tol = 0.01 if FULL else 0.02
    for t in range(accepts):
        p, report = perfect_balanced_sample(g, 2, RngStream(41, t))
        report.check()
        counts[p.key()] += 1
        assert p.class_sizes() == (2, 2)
    assert len(counts) == 2
    for c in counts.values():
        assert abs(c / accepts - 0.5) < tol


def test_perfect_2x4_matches_conditional_distribution():
    g = build_grid(2, 4)
    weights = balanced_partition_weights(g, 2)
    counts: Counter = Counter()
    accepts = 20_000
    rng = RngStream(43)
    for _ in range(accepts):
        p, _ = perfect_balanced_sample(g, 2, rng)
        counts[p.key()] += 1
    assert tv_to_weights(counts, weights) < 0.05


def test_perfect_requires_divisibility():
    g = build_grid(3, 3)
    with pytest.raises(ValueError):
        perfect_balanced_sample(g, 2, RngStream(0))


@pytest.mark.parametrize("call", [
    lambda g: perfect_balanced_sample(g, 0, RngStream(0)),
    lambda g: approx_balanced_sample(g, 0, RngStream(0)),
    lambda g: approx_balanced_sample(g, 2, RngStream(0), mixing_multiplier=-1),
    lambda g: approx_balanced_sample(g, 2, RngStream(0), mixing_multiplier=float("inf")),
], ids=["perfect-k0", "approx-k0", "negative-multiplier", "infinite-multiplier"])
def test_samplers_reject_bad_parameters(call):
    with pytest.raises(ValueError):
        call(build_grid(2, 2))


def test_perfect_round_cap_trips():
    # 1x4 path has no dual, so use a 2x3 grid with k=6: balanced 6-partition
    # of 6 vertices is all-singletons, which a tree cut always achieves;
    # instead use a cap of 0 rounds to force the diagnostic
    g = build_grid(2, 2)
    with pytest.raises(SamplerExhaustedError):
        perfect_balanced_sample(g, 2, RngStream(1), max_rounds=0)


def test_perfect_deterministic():
    g = build_grid(3, 4)
    p1, r1 = perfect_balanced_sample(g, 2, RngStream(77, 5))
    p2, r2 = perfect_balanced_sample(g, 2, RngStream(77, 5))
    assert p1.key() == p2.key()
    assert r1.rounds_attempted == r2.rounds_attempted


# ---------------------------------------------------------------------------
# approximate sampler
# ---------------------------------------------------------------------------


def test_approx_output_is_balanced():
    g = build_grid(3, 4)
    p, report = approx_balanced_sample(g, 2, RngStream(51), mixing_multiplier=5.0)
    assert p.class_sizes() == (6, 6)
    report.check()


def test_approx_zero_multiplier_flagged():
    g = build_grid(2, 2)
    try:
        _, report = approx_balanced_sample(
            g, 2, RngStream(53), mixing_multiplier=0.0, max_rounds=50
        )
    except SamplerExhaustedError as exc:
        report = exc.report
    assert any("mixing_multiplier=0" in f for f in report.flags)


def test_approx_distribution_smoke():
    # full mode runs the 1e5-accept check at the tight tolerance; default is
    # a statistical smoke at matching noise level (chain law is backend-free)
    g = build_grid(3, 4)
    weights = balanced_partition_weights(g, 2)
    counts: Counter = Counter()
    accepts = 100_000 if FULL else 400
    tol = 0.05 if FULL else 0.25
    mixing = 10.0
    for t in range(accepts):
        p, _ = approx_balanced_sample(
            g, 2, RngStream(57, t), mixing_multiplier=mixing
        )
        counts[p.key()] += 1
    assert tv_to_weights(counts, weights) < tol


def test_updown_backends_agree_trajectorywise():
    g = build_grid(3, 3)
    f = initial_forest(g, 2, RngStream(71))
    fast = UpDownWalker(g, f.edges, use_linkcut=True)
    slow = UpDownWalker(g, f.edges, use_linkcut=False)
    fast_states = []
    slow_states = []
    fast.run(2_000, RngStream(73), on_state=lambda w: fast_states.append(tuple(sorted(w.forest))))
    slow.run(2_000, RngStream(73), on_state=lambda w: slow_states.append(tuple(sorted(w.forest))))
    assert fast_states == slow_states


def test_partition_json_shape():
    g = build_grid(2, 2)
    p, report = perfect_balanced_sample(g, 2, RngStream(61))
    doc = partition_json_dict(p, m=2, n=2, seed=report.seed, rounds=report.rounds_attempted)
    assert doc["k"] == 2
    assert sorted(len(c) for c in doc["classes"]) == [2, 2]
    assert doc["cut_edges"] is not None
