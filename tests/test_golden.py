"""Fixed-seed golden outputs of every Monte Carlo engine.

Each case runs one engine at a fixed ``(seed, stream)`` key and compares the
result with literal values. The other suites compare two runs of the same
code; these literals pin the outputs from one version of the code to the next,
so a refactor that changes any draw, traversal order or tie-break shows here.
"""

from __future__ import annotations

import pytest

from treesplit.experiments import heatmap_run, histogram_run, walk_bound_run, wilson_scaling
from treesplit.lattice import compatibility_experiment, halved_square, vertical_strips
from treesplit.planar import build_grid
from treesplit.rng import RngStream
from treesplit.samplers import approx_balanced_sample, initial_forest, perfect_balanced_sample
from treesplit.splitting import (
    component_sizes,
    find_approx_split,
    find_balanced_split,
    find_min_imbalance_split,
)
from treesplit.walks import wilson_on_dual


def _heatmap(m, n, trials, seed, workers):
    res = heatmap_run(m, n, trials, seed, workers=workers)
    return [(r.col, r.row, r.successes, r.trials, r.splittable) for r in res.rows]


def _split(s):
    return None if s is None else (sorted(s.cut_edges), list(s.component_sizes))


def heatmap_w1():
    return [_heatmap(4, 4, 300, 11, 1), _heatmap(6, 5, 100, 12, 1)]


def heatmap_w2():
    return [_heatmap(4, 4, 300, 11, 2), _heatmap(6, 5, 100, 12, 2)]


def histogram():
    out = []
    for m, n, edge, trials, seed in ((6, 5, (3, 2), 300, 5), (4, 4, (2, 2), 200, 6)):
        res = histogram_run(m, n, edge, trials, seed)
        out.append((res.counts, res.in_tree))
    return out


def walk_bounds():
    out = []
    for geometry, params in (
        ("exit-not-below", {"m": 8, "n": 6, "i0": 3, "j0": 4}),
        ("square-top", {"ell": 3}),
        ("tall-top", {"m": 6, "n": 9}),
    ):
        res = walk_bound_run(geometry, params, 3000, 2)
        out.append((res.successes, res.trials, res.bound))
    return out


def scaling():
    return [(p.n, p.N, p.samples, p.mean_steps, p.normalized)
            for p in wilson_scaling([4, 7, 10], 15, 9)]


def perfect():
    out = []
    for (m, n), k, count in (((4, 4), 2, 4), ((4, 3), 3, 3), ((6, 6), 3, 1)):
        g = build_grid(m, n)
        for i in range(count):
            p, rep = perfect_balanced_sample(g, k, RngStream(13, (k, i)))
            out.append((
                [sorted(c) for c in p.classes],
                sorted(p.cut_edges),
                rep.rounds_attempted,
                dict(sorted(rep.rejections.items())),
                rep.trees_sampled,
                rep.steps_taken,
                list(p.class_tree_counts),
            ))
    return out


def updown():
    out = []
    g = build_grid(5, 4)
    for k in (2, 3):
        f = initial_forest(g, k, RngStream(4, (k,)))
        out.append((sorted(f.edges), list(f.component), list(f.component_sizes)))
    p, rep = approx_balanced_sample(build_grid(4, 4), 2, RngStream(8), mixing_multiplier=0.5)
    out.append(([sorted(c) for c in p.classes], rep.rounds_attempted, rep.steps_taken))
    return out


def splits():
    g = build_grid(6, 6)
    out = []
    for t in range(6):
        tree = wilson_on_dual(g, rng=RngStream(21, (t,)))
        edges = sorted(tree.edges)
        out.append((
            edges,
            tree.steps,
            [_split(find_balanced_split(tree, k)) for k in (2, 3, 4)],
            [_split(find_approx_split(tree, k, eps)) for k, eps in ((2, 0.1), (3, 0.2))],
            [_split(find_min_imbalance_split(tree, k)) for k in (2, 3)],
            list(component_sizes(tree, edges[5:30:8])),
        ))
    return out


def compatibility():
    out = []
    for kind, n, drawing, eps, trials in (
        ("square", 6, halved_square(), 0.2, 20),
        ("square", 6, vertical_strips(3), 0.25, 6),
        ("triangular", 8, halved_square(), 0.2, 20),
        ("triangular", 8, vertical_strips(3), 0.25, 6),
        ("hexagonal", 8, halved_square(), 0.2, 20),
    ):
        res = compatibility_experiment(kind, n, drawing, eps, trials, 3)
        out.append((res.successes, res.splittable_successes))
    return out


CASES = {
    "heatmap_w1": heatmap_w1,
    "heatmap_w2": heatmap_w2,
    "histogram": histogram,
    "walk_bounds": walk_bounds,
    "scaling": scaling,
    "perfect": perfect,
    "updown": updown,
    "splits": splits,
    "compatibility": compatibility,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    assert CASES[name]() == EXPECTED[name]


EXPECTED = {'compatibility': [(6, 17), (4, 5), (6, 19), (0, 5), (4, 17)],
            'heatmap_w1': [[(1, 1, 2, 300, 152), (2, 1, 6, 300, 157), (1, 2, 8, 300, 160),
                            (2, 2, 17, 300, 164)],
                           [(1, 1, 0, 100, 37), (2, 1, 0, 100, 40), (3, 1, 1, 100, 39),
                            (1, 2, 0, 100, 35), (2, 2, 1, 100, 43), (3, 2, 4, 100, 38)]],
            'heatmap_w2': [[(1, 1, 2, 300, 152), (2, 1, 6, 300, 157), (1, 2, 8, 300, 160),
                            (2, 2, 17, 300, 164)],
                           [(1, 1, 0, 100, 37), (2, 1, 0, 100, 40), (3, 1, 1, 100, 39),
                            (1, 2, 0, 100, 35), (2, 2, 1, 100, 43), (3, 2, 4, 100, 38)]],
            'histogram': [([0, 14, 10, 4, 3, 4, 7, 6, 4, 4, 4, 6, 7, 1, 1, 7, 3, 3, 3, 7, 5, 6, 2,
                            1, 2, 1, 1, 5, 7, 24, 0],
                           152),
                          ([0, 13, 2, 7, 10, 9, 7, 4, 13, 7, 6, 6, 5, 4, 3, 11, 0], 107)],
            'perfect': [([[0, 1, 2, 3, 4, 5, 6, 7], [8, 9, 10, 11, 12, 13, 14, 15]], [17], 1, {},
                         1, 11, [56, 56]),
                        ([[0, 1, 2, 3, 4, 5, 6, 7], [8, 9, 10, 11, 12, 13, 14, 15]], [18], 7,
                         {'final_rejection': 2, 'not_splittable': 4}, 7, 77, [56, 56]),
                        ([[0, 1, 2, 4, 5, 8, 9, 12], [3, 6, 7, 10, 11, 13, 14, 15]], [21], 19,
                         {'final_rejection': 10, 'not_splittable': 8}, 19, 249, [15, 15]),
                        ([[0, 1, 2, 3, 4, 5, 6, 7], [8, 9, 10, 11, 12, 13, 14, 15]], [18], 1, {},
                         1, 13, [56, 56]),
                        ([[0, 1, 4, 8], [2, 3, 7, 11], [5, 6, 9, 10]], [1, 6], 31,
                         {'final_rejection': 11, 'not_splittable': 19}, 31, 240, [1, 1, 4]),
                        ([[0, 4, 8, 9], [1, 2, 5, 6], [3, 7, 10, 11]], [3, 15], 25,
                         {'final_rejection': 5, 'not_splittable': 19}, 25, 182, [1, 4, 1]),
                        ([[0, 4, 5, 6], [1, 2, 3, 7], [8, 9, 10, 11]], [10, 15], 12,
                         {'final_rejection': 5, 'not_splittable': 6}, 12, 88, [1, 1, 1]),
                        ([[0, 1, 6, 7, 12, 18, 19, 24, 25, 30, 31, 32],
                          [2, 3, 4, 5, 8, 9, 10, 11, 15, 16, 17, 23],
                          [13, 14, 20, 21, 22, 26, 27, 28, 29, 33, 34, 35]],
                         [1, 43], 550, {'final_rejection': 88, 'not_splittable': 461}, 550, 20242,
                         [60, 712, 209])],
            'scaling': [(4, 16, 15, 11.133333333333333, 0.2509688248213093),
                        (7, 49, 15, 57.06666666666667, 0.29924964698537865),
                        (10, 100, 15, 130.86666666666667, 0.2841733559920278)],
            'splits': [([2, 3, 4, 5, 6, 7, 8, 10, 11, 13, 14, 15, 16, 18, 19, 21, 22, 24, 27, 30,
                         31, 32, 38, 39, 41, 43, 48, 49, 51, 52, 54, 55, 57, 58, 59],
                        43, [([43], [18, 18]), None, None], [([43], [18, 18]), None],
                        [([43], [18, 18]), ([21, 38], [15, 10, 11])], [20, 4, 6, 2, 4]),
                       ([0, 2, 3, 9, 10, 11, 12, 14, 15, 16, 20, 22, 23, 25, 26, 29, 30, 31, 32,
                         33, 34, 35, 37, 38, 40, 43, 45, 46, 47, 49, 52, 53, 55, 57, 58],
                        29, [([32], [18, 18]), None, None],
                        [([38], [17, 19]), ([11, 40], [14, 11, 11])],
                        [([32], [18, 18]), ([11, 40], [14, 11, 11])], [9, 21, 1, 4, 1]),
                       ([1, 2, 3, 4, 5, 6, 8, 14, 15, 16, 20, 22, 23, 25, 26, 27, 29, 30, 32, 33,
                         36, 38, 39, 41, 43, 44, 45, 46, 47, 50, 52, 53, 55, 57, 58],
                        41, [None, None, None], [([50], [19, 17]), None],
                        [([50], [19, 17]), ([23, 38], [14, 9, 13])], [4, 10, 16, 5, 1]),
                       ([1, 3, 4, 5, 7, 10, 14, 15, 16, 17, 18, 25, 26, 27, 28, 29, 30, 32, 33, 34,
                         37, 38, 40, 41, 43, 45, 46, 47, 51, 54, 55, 56, 57, 58, 59],
                        43, [None, None, None], [None, ([18, 51], [10, 14, 12])],
                        [([18], [22, 14]), ([46, 51], [11, 13, 12])], [28, 1, 1, 1, 5]),
                       ([0, 1, 2, 3, 4, 5, 6, 9, 14, 18, 19, 20, 21, 23, 27, 28, 32, 33, 35, 36,
                         37, 38, 39, 42, 44, 45, 46, 49, 50, 51, 53, 54, 55, 57, 59],
                        25, [None, None, None], [([2], [17, 19]), ([32, 45], [10, 14, 12])],
                        [([2], [17, 19]), ([32, 45], [10, 14, 12])], [20, 3, 8, 4, 1]),
                       ([0, 2, 3, 4, 6, 7, 12, 14, 17, 18, 21, 22, 24, 25, 27, 28, 29, 30, 31, 33,
                         34, 35, 36, 37, 40, 43, 45, 47, 48, 50, 52, 53, 54, 55, 59],
                        33, [([53], [18, 18]), None, None],
                        [([47], [17, 19]), ([3, 24], [11, 12, 13])],
                        [([53], [18, 18]), ([3, 24], [11, 12, 13])], [8, 20, 1, 3, 4])],
            'updown': [([0, 2, 3, 4, 8, 9, 11, 12, 13, 15, 17, 18, 20, 21, 24, 25, 26, 30],
                        [0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1], [10, 10]),
                       ([1, 3, 6, 8, 10, 11, 16, 17, 18, 19, 21, 25, 26, 27, 28, 29, 30],
                        [0, 1, 1, 1, 1, 0, 1, 1, 1, 2, 0, 0, 2, 2, 2, 0, 0, 2, 2, 2], [6, 7, 7]),
                       ([[0, 1, 2, 4, 5, 8, 9, 12], [3, 6, 7, 10, 11, 13, 14, 15]], 1, 39)],
            'walk_bounds': [(2274, 3000, 0.5714285714285714), (150, 3000, None), (45, 3000, None)]}
