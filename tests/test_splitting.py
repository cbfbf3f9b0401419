"""Splitting operations versus exhaustive brute-force oracles."""

from __future__ import annotations

import os
from itertools import combinations

import pytest

import treesplit.splitting
from treesplit.planar import Multigraph, SpanningTree, build_grid
from treesplit.rng import RngStream
from treesplit.splitting import (
    _delta_windows,
    component_sizes,
    find_approx_split,
    find_balanced_split,
    find_min_imbalance_split,
)
from treesplit.walks import wilson

FULL = os.environ.get("TREESPLIT_FULL") == "1"

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def path_graph(n: int) -> Multigraph:
    return Multigraph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Multigraph:
    return Multigraph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def whole_tree(g: Multigraph) -> SpanningTree:
    return SpanningTree(g, range(g.num_edges))


def random_tree(n: int, rng: RngStream) -> SpanningTree:
    """Uniform labeled tree from a random Pruefer sequence."""
    if n == 1:
        return SpanningTree(Multigraph(1, []), [])
    if n == 2:
        return whole_tree(Multigraph(2, [(0, 1)]))
    seq = [rng.integers(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return whole_tree(Multigraph(n, edges))


def brute_balanced(t: SpanningTree, k: int):
    n = t.host.num_vertices
    q = n // k
    hits = []
    for cut in combinations(sorted(t.edges), k - 1):
        if all(s == q for s in component_sizes(t, cut)):
            hits.append(frozenset(cut))
    return hits


def brute_approx_exists(t: SpanningTree, k: int, eps: float) -> bool:
    n = t.host.num_vertices
    lo = (1 - eps) * n / k - 1e-9
    hi = (1 + eps) * n / k + 1e-9
    for cut in combinations(sorted(t.edges), k - 1):
        if all(lo <= s <= hi for s in component_sizes(t, cut)):
            return True
    return False


def brute_min_imbalance(t: SpanningTree, k: int) -> int:
    best = None
    for cut in combinations(sorted(t.edges), k - 1):
        sizes = component_sizes(t, cut)
        imb = max(sizes) - min(sizes)
        if best is None or imb < best:
            best = imb
    return best


# ---------------------------------------------------------------------------
# component_sizes
# ---------------------------------------------------------------------------


def test_component_sizes_path4_middle():
    t = whole_tree(path_graph(4))
    assert sorted(component_sizes(t, [1])) == [2, 2]


def test_component_sizes_empty_cut():
    t = whole_tree(path_graph(4))
    assert component_sizes(t, []) == (4,)


def test_component_sizes_path6_two_cuts():
    t = whole_tree(path_graph(6))
    assert sorted(component_sizes(t, [1, 3])) == [2, 2, 2]


def test_component_sizes_rejects_foreign_edge():
    g = build_grid(2, 2)
    t = SpanningTree(g, [0, 1, 2])
    with pytest.raises(ValueError):
        component_sizes(t, [3])


# ---------------------------------------------------------------------------
# find_balanced_split
# ---------------------------------------------------------------------------


def test_balanced_path4():
    t = whole_tree(path_graph(4))
    res = find_balanced_split(t, 2)
    assert res is not None
    assert res.cut_edges == frozenset({1})
    assert res.component_sizes == (2, 2)


def test_balanced_star_none():
    t = whole_tree(star_graph(3))
    assert find_balanced_split(t, 2) is None


def test_balanced_k1_trivial():
    t = whole_tree(path_graph(5))
    res = find_balanced_split(t, 1)
    assert res.cut_edges == frozenset()
    assert res.component_sizes == (5,)


def test_balanced_requires_divisibility():
    t = whole_tree(path_graph(5))
    with pytest.raises(ValueError):
        find_balanced_split(t, 2)


def test_balanced_on_sampled_4x4_trees_matches_brute_force():
    g = build_grid(4, 4)
    rng = RngStream(202)
    trials = 10_000 if FULL else 2_000
    for _ in range(trials):
        t = wilson(g, rng=rng)
        res = find_balanced_split(t, 2)
        hits = brute_balanced(t, 2)
        if res is None:
            assert hits == []
        else:
            assert hits == [res.cut_edges]
            assert component_sizes(t, res.cut_edges) == res.component_sizes


def test_balanced_uniqueness_small_trees():
    rng = RngStream(7)
    for trial in range(150):
        n = 6 + (trial % 3) * 4  # 6, 10, 14
        t = random_tree(n, rng.substream(trial))
        for k in (2, 3):
            if n % k:
                continue
            hits = brute_balanced(t, k)
            assert len(hits) <= 1  # at most one balanced split exists
            res = find_balanced_split(t, k)
            if hits:
                assert res is not None and res.cut_edges == hits[0]
            else:
                assert res is None


# ---------------------------------------------------------------------------
# find_approx_split
# ---------------------------------------------------------------------------


def test_approx_path5_quarter():
    t = whole_tree(path_graph(5))
    res = find_approx_split(t, 2, 0.25)
    assert res is not None
    assert sorted(res.component_sizes) == [2, 3]


def test_approx_path5_tenth_none():
    t = whole_tree(path_graph(5))
    assert find_approx_split(t, 2, 0.1) is None


def test_approx_epsilon_validation():
    t = whole_tree(path_graph(4))
    with pytest.raises(ValueError):
        find_approx_split(t, 2, 0.0)
    with pytest.raises(ValueError):
        find_approx_split(t, 2, 1.0)


def test_approx_consistency_and_window():
    rng = RngStream(31)
    for trial in range(60):
        t = random_tree(12, rng.substream(trial))
        res = find_approx_split(t, 3, 0.5)
        if res is not None:
            n = 12
            lo = (1 - 0.5) * n / 3 - 1e-9
            hi = (1 + 0.5) * n / 3 + 1e-9
            assert all(lo <= s <= hi for s in res.component_sizes)
            assert component_sizes(t, res.cut_edges) == res.component_sizes


def test_approx_matches_brute_force_existence():
    rng = RngStream(97)
    for trial in range(120):
        n = 8 + trial % 7
        t = random_tree(n, rng.substream(trial))
        for k in (2, 3):
            for eps in (0.15, 0.3, 0.6):
                got = find_approx_split(t, k, eps)
                want = brute_approx_exists(t, k, eps)
                assert (got is not None) == want


def test_approx_monotone_in_epsilon():
    rng = RngStream(55)
    for trial in range(60):
        t = random_tree(10, rng.substream(trial))
        for k in (2, 3):
            feasible = [find_approx_split(t, k, e) is not None
                        for e in (0.05, 0.1, 0.2, 0.4, 0.8)]
            # once feasible, stays feasible as epsilon grows
            assert feasible == sorted(feasible)


# ---------------------------------------------------------------------------
# find_min_imbalance_split
# ---------------------------------------------------------------------------


def test_min_imbalance_path5():
    t = whole_tree(path_graph(5))
    res = find_min_imbalance_split(t, 2)
    assert res.imbalance == 1


def test_min_imbalance_star():
    t = whole_tree(star_graph(3))
    res = find_min_imbalance_split(t, 2)
    assert res.imbalance == 2


def test_min_imbalance_matches_brute_force():
    rng = RngStream(13)
    for trial in range(120):
        n = 7 + trial % 8
        t = random_tree(n, rng.substream(trial))
        for k in (2, 3, 4):
            res = find_min_imbalance_split(t, k)
            assert res.imbalance == brute_min_imbalance(t, k)
            assert component_sizes(t, res.cut_edges) == res.component_sizes
        # k=2 witness: the smallest edge id among the minimising single cuts
        best = min(
            sorted(t.edges),
            key=lambda e: max(component_sizes(t, [e])) - min(component_sizes(t, [e])),
        )
        assert find_min_imbalance_split(t, 2).cut_edges == frozenset({best})


@pytest.fixture
def dp_builds(monkeypatch):
    """A one-item list counting the _WindowDP instances built."""
    built = [0]

    class CountingDP(treesplit.splitting._WindowDP):
        def __init__(self, *args, **kwargs):
            built[0] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(treesplit.splitting, "_WindowDP", CountingDP)
    return built


def test_min_imbalance_k2_runs_no_window_dp(dp_builds):
    g = build_grid(6, 6)
    t = wilson(g, rng=RngStream(5))
    res = find_min_imbalance_split(t, 2)
    assert dp_builds[0] == 0
    assert res.imbalance == brute_min_imbalance(t, 2)
    find_min_imbalance_split(t, 3)
    assert dp_builds[0] > 0


def test_min_imbalance_k3_builds_one_dp_per_window_tried(dp_builds):
    t = wilson(build_grid(6, 6), rng=RngStream(5))
    res = find_min_imbalance_split(t, 3)
    assert res.imbalance == brute_min_imbalance(t, 3)
    windows = sum(
        len(list(_delta_windows(36, 3, delta))) for delta in range(res.imbalance + 1)
    )
    assert dp_builds[0] <= windows


def test_min_imbalance_lexicographic_ties():
    # path on 4: both outer edges give (1, 3); middle gives (2, 2)
    t = whole_tree(path_graph(6))
    res = find_min_imbalance_split(t, 3)
    assert res.imbalance == 0
    assert res.cut_edges == frozenset({1, 3})
    # star: every edge is equivalent, lexicographic pick is the smallest id
    t2 = whole_tree(star_graph(3))
    res2 = find_min_imbalance_split(t2, 2)
    assert res2.cut_edges == frozenset({0})


def test_min_imbalance_zero_iff_balanced():
    rng = RngStream(77)
    for trial in range(80):
        n = 8 + 2 * (trial % 4)
        t = random_tree(n, rng.substream(trial))
        for k in (2, 4):
            if n % k:
                continue
            balanced = find_balanced_split(t, k)
            imb = find_min_imbalance_split(t, k).imbalance
            assert (imb == 0) == (balanced is not None)


def test_min_imbalance_determinism():
    t = whole_tree(star_graph(5))
    a = find_min_imbalance_split(t, 3)
    b = find_min_imbalance_split(t, 3)
    assert a.cut_edges == b.cut_edges
