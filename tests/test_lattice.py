"""Lattice clipping, drawings, Hausdorff geometry, and compatibility checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from treesplit import lattice
from treesplit.lattice import (
    CompatibilityExperiment,
    Polyline,
    RegionError,
    build_lattice_region,
    compatibility_experiment,
    epsilon_compatible,
    halved_square,
    hausdorff_distance,
    plane_graph_from_json,
    plane_graph_to_json,
    point_to_polygon_distance,
    vertical_strips,
)
from treesplit.planar import build_grid, compute_dual, count_spanning_trees
from treesplit.rng import RngStream

# ---------------------------------------------------------------------------
# drawings
# ---------------------------------------------------------------------------


def test_vertical_strips_faces_and_boundary():
    d = vertical_strips(3)
    assert d.num_inner_faces == 3
    outer = d.outer_boundary()
    assert outer.closed
    arr = outer.as_array()
    assert arr[:, 0].min() == 0.0 and arr[:, 0].max() == 1.0
    for i in range(3):
        poly = d.face_polygon(i)
        xs = poly[:, 0]
        assert math.isclose(xs.max() - xs.min(), 1 / 3, abs_tol=1e-12)


def test_plane_graph_json_round_trip():
    d = vertical_strips(2)
    back = plane_graph_from_json(plane_graph_to_json(d))
    assert back.vertices == d.vertices
    assert back.faces == d.faces
    assert [c.points for c in back.curves] == [c.points for c in d.curves]


# ---------------------------------------------------------------------------
# hausdorff distance
# ---------------------------------------------------------------------------


def test_hausdorff_identical_sets():
    assert hausdorff_distance([(0, 0), (1, 2)], [(0, 0), (1, 2)]) == 0.0


def test_hausdorff_single_pair():
    assert hausdorff_distance([(0, 0)], [(3, 4)]) == pytest.approx(5.0)


def test_hausdorff_shifted_square():
    sq = Polyline(((0, 0), (1, 0), (1, 1), (0, 1)), closed=True)
    shifted = Polyline(((0.1, 0), (1.1, 0), (1.1, 1), (0.1, 1)), closed=True)
    assert hausdorff_distance(sq, shifted) == pytest.approx(0.1, abs=1e-9)


def test_hausdorff_rejects_empty():
    with pytest.raises(ValueError):
        hausdorff_distance([], [(0, 0)])


def test_hausdorff_metric_properties_on_point_sets():
    rng = RngStream(3)
    for trial in range(30):
        pts = [
            [(rng.unit() * 4, rng.unit() * 4) for _ in range(1 + rng.integers(6))]
            for _ in range(3)
        ]
        a, b, c = pts
        dab = hausdorff_distance(a, b)
        dba = hausdorff_distance(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        dac = hausdorff_distance(a, c)
        dcb = hausdorff_distance(c, b)
        assert dab <= dac + dcb + 1e-9


# ---------------------------------------------------------------------------
# build_lattice_region
# ---------------------------------------------------------------------------


def test_square_region_is_grid_isomorphic():
    d = halved_square()
    reg = build_lattice_region("square", 10, d, delta=0.2)
    g = reg.region
    grid = build_grid(10, 10)
    assert g.num_vertices == grid.num_vertices
    assert g.num_edges == grid.num_edges
    assert g.num_faces == grid.num_faces
    # explicit isomorphism through the coordinate translation
    def to_grid_id(x, y):
        return round(y * 10 - 0.5) * 10 + round(x * 10 - 0.5)

    mapping = [to_grid_id(x, y) for x, y in g.coords]
    assert sorted(mapping) == list(range(100))
    region_edges = {frozenset((mapping[u], mapping[v])) for u, v in g.edges}
    grid_edges = {frozenset(e) for e in grid.edges}
    assert region_edges == grid_edges


def test_square_region_wired_dual_matches_grid_dual():
    d = halved_square()
    reg = build_lattice_region("square", 10, d, delta=0.2)
    dual_grid = compute_dual(build_grid(10, 10), wire_boundary=True)
    assert reg.dual.num_vertices == dual_grid.num_vertices
    assert reg.dual.num_edges == dual_grid.num_edges
    assert sorted(map(len, reg.dual.nbr)) == sorted(map(len, dual_grid.nbr))
    assert count_spanning_trees(reg.dual) == count_spanning_trees(dual_grid)


def test_triangular_region_euler():
    d = halved_square()
    reg = build_lattice_region("triangular", 20, d, delta=0.2)
    g = reg.region
    assert g.num_vertices - g.num_edges + g.num_faces == 2


def test_hexagonal_region_euler():
    d = halved_square()
    reg = build_lattice_region("hexagonal", 14, d, delta=0.25)
    g = reg.region
    assert g.num_vertices - g.num_edges + g.num_faces == 2
    assert all(len(nbrs) <= 3 for nbrs in g.nbr)


def test_region_rejects_tiny_delta():
    d = halved_square()
    with pytest.raises(RegionError, match="Hausdorff"):
        build_lattice_region("triangular", 20, d, delta=1e-4)


def test_region_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_lattice_region("kagome", 10, halved_square(), delta=0.2)


def test_region_hausdorff_reported():
    d = halved_square()
    reg = build_lattice_region("triangular", 20, d, delta=0.2)
    assert 0.0 <= reg.achieved_hausdorff < 0.2
    # boundary cycle hugs the unit square
    assert hausdorff_distance(
        Polyline(tuple(map(tuple, reg.boundary_cycle)), closed=True),
        d.outer_boundary(),
    ) == pytest.approx(reg.achieved_hausdorff, abs=1e-6)


# ---------------------------------------------------------------------------
# epsilon_compatible
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def square_region():
    return build_lattice_region("square", 10, halved_square(), delta=0.2)


def test_compatible_vertical_split(square_region):
    g = square_region.region
    left = [v for v, (x, y) in enumerate(g.coords) if x < 0.5]
    right = [v for v, (x, y) in enumerate(g.coords) if x > 0.5]
    res = epsilon_compatible(square_region, [left, right], 0.15)
    assert res.compatible
    assert res.class_max_distance == (0.0, 0.0)
    assert sorted(res.assignment) == [0, 1]


def test_compatible_everything_at_diameter(square_region):
    g = square_region.region
    n = g.num_vertices
    half = [v for v in range(n) if v % 2 == 0]
    other = [v for v in range(n) if v % 2 == 1]
    # classes need not be connected for the geometric check itself
    res = epsilon_compatible(square_region, [half, other], math.sqrt(2.0))
    assert res.compatible


def test_compatible_false_for_scrambled_small_eps(square_region):
    g = square_region.region
    left = [v for v, (x, y) in enumerate(g.coords) if x < 0.5]
    right = [v for v, (x, y) in enumerate(g.coords) if x > 0.5]
    bad_left = left[:-4] + right[:4]
    bad_right = right[4:] + left[-4:]
    res = epsilon_compatible(square_region, [bad_left, bad_right], 0.05)
    assert not res.compatible


def test_compatible_monotone_in_epsilon(square_region):
    g = square_region.region
    mid = [v for v, (x, y) in enumerate(g.coords) if x < 0.65]
    rest = [v for v in range(g.num_vertices) if v not in set(mid)]
    results = [
        epsilon_compatible(square_region, [mid, rest], eps).compatible
        for eps in (0.05, 0.1, 0.16, 0.3, 1.5)
    ]
    assert results == sorted(results)
    assert results[-1]


def test_compatible_class_count_mismatch(square_region):
    with pytest.raises(ValueError):
        epsilon_compatible(
            square_region,
            [list(range(square_region.region.num_vertices))],
            0.1,
        )


def test_point_to_polygon_distance_inside_zero():
    poly = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    d = point_to_polygon_distance(np.array([[0.5, 0.5], [2.0, 0.5]]), poly)
    assert d[0] == 0.0
    assert d[1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# compatibility_experiment
# ---------------------------------------------------------------------------


def test_experiment_single_face_always_succeeds():
    exp = compatibility_experiment(
        "square", 8, vertical_strips(1), 0.1, trials=50, seed=1
    )
    assert exp.frequency == 1.0
    assert exp.splittable_frequency == 1.0


def test_experiment_diameter_eps_always_succeeds():
    exp = compatibility_experiment(
        "square", 8, halved_square(), math.sqrt(2.0), trials=50, seed=2
    )
    assert exp.frequency == 1.0


def test_experiment_reports_both_tallies():
    exp = compatibility_experiment("square", 10, halved_square(), 0.1, trials=400, seed=3)
    assert isinstance(exp, CompatibilityExperiment)
    assert 0 < exp.frequency < 1
    assert exp.splittable_frequency > exp.frequency
    assert exp.ci_low <= exp.frequency <= exp.ci_high
    assert exp.splittable_ci_low <= exp.splittable_frequency <= exp.splittable_ci_high


def test_experiment_computes_each_size_window_once(monkeypatch):
    # epsilon 0.1 is also the first size window, so its split is reused
    calls = []
    real = lattice.find_approx_split

    def counting(tree, k, eps):
        calls.append(eps)
        return real(tree, k, eps)

    monkeypatch.setattr(lattice, "find_approx_split", counting)
    exp = compatibility_experiment("square", 8, vertical_strips(3), 0.1, trials=5, seed=1)
    assert exp.successes == 0  # no early exit, so every window is tried
    assert len(calls) == 3 * exp.trials


def test_experiment_reads_region_face_distances(monkeypatch):
    regions = [build_lattice_region("square", 8, d, 3.0 / 8)
               for d in (halved_square(), vertical_strips(3))]

    def forbidden(*args):
        raise AssertionError("vertex-to-face distances recomputed")

    monkeypatch.setattr(lattice, "point_to_polygon_distance", forbidden)
    for r in regions:
        compatibility_experiment("square", 8, r.drawing, 0.1, trials=3, seed=4, region=r)


def test_experiment_rejects_region_of_another_drawing():
    r = build_lattice_region("square", 8, halved_square(), 3.0 / 8)
    with pytest.raises(ValueError):
        compatibility_experiment("square", 8, vertical_strips(3), 0.1, trials=1, seed=0, region=r)
