"""Tests for grids, duality, contraction, and exact spanning-tree counting."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesplit.enumeration import (
    enumerate_k_forests,
    enumerate_spanning_trees,
    forest_components,
)
from treesplit.planar import (
    DualityError,
    Multigraph,
    Partition,
    PartitionError,
    SpanningTree,
    build_grid,
    compute_dual,
    contract_partition,
    count_spanning_trees,
    dual_tree,
    embedding_from_json,
    embedding_to_json,
    forest_classes,
    grid_vertex,
    primal_tree,
    root_forest,
    subtree_sizes,
)
from treesplit.rng import RngStream
from treesplit.walks import wilson

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def cycle_graph(n: int) -> Multigraph:
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_tree(g: Multigraph, edges) -> SpanningTree:
    return SpanningTree(g, edges)


# ---------------------------------------------------------------------------
# build_grid
# ---------------------------------------------------------------------------


def test_grid_2x2_counts():
    g = build_grid(2, 2)
    assert g.num_vertices == 4
    assert g.num_edges == 4
    assert g.num_faces == 2  # one inner plus the outer face


def test_grid_1x5_is_path():
    g = build_grid(1, 5)
    assert g.num_vertices == 5
    assert g.num_edges == 4
    assert g.num_faces == 1


def test_grid_10x10_counts():
    g = build_grid(10, 10)
    assert g.num_vertices == 100
    assert g.num_edges == 180
    assert g.num_faces == 82


@pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (0, 0)])
def test_grid_rejects_zero_dims(m, n):
    with pytest.raises(ValueError):
        build_grid(m, n)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 5), (1, 7)])
def test_grid_euler_formula(m, n):
    g = build_grid(m, n)
    assert g.num_vertices - g.num_edges + g.num_faces == 2


def test_every_edge_has_two_face_sides():
    g = build_grid(4, 3)
    for fa, fb in g.edge_faces:
        assert 0 <= fa < g.num_faces
        assert 0 <= fb < g.num_faces


# ---------------------------------------------------------------------------
# compute_dual
# ---------------------------------------------------------------------------


def test_dual_2x2_is_double_vertex_quadruple_edge():
    d = compute_dual(build_grid(2, 2))
    assert d.num_vertices == 2
    assert d.num_edges == 4
    assert all(set(e) == {0, 1} or set(e) == {d.root, 1 - d.root} for e in d.edges)


def test_dual_3x3_vertex_count():
    d = compute_dual(build_grid(3, 3))
    assert d.num_vertices == 5  # 4 inner faces plus the outer face


def test_dual_path_raises():
    with pytest.raises(DualityError):
        compute_dual(build_grid(1, 5))


def test_dual_edge_bijection_is_total():
    g = build_grid(3, 4)
    d = compute_dual(g)
    assert d.num_edges == g.num_edges


def test_dual_wire_boundary_records_identification():
    g = build_grid(3, 3)
    d = compute_dual(g, wire_boundary=True)
    assert d.wired_boundary == frozenset({g.outer_face})
    assert d.root == g.outer_face


# ---------------------------------------------------------------------------
# dual_tree / primal_tree
# ---------------------------------------------------------------------------


def test_dual_tree_2x2_complement():
    g = build_grid(2, 2)
    trees = enumerate_spanning_trees(g)
    assert len(trees) == 4  # the 4-cycle
    d = compute_dual(g)
    for t_edges in trees:
        t = SpanningTree(g, t_edges)
        ts = dual_tree(t, d)
        missing = set(range(4)) - t_edges
        assert ts.edges == frozenset(missing)
        assert len(ts.edges) == 1


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3)])
def test_dual_round_trip_and_injectivity(m, n):
    g = build_grid(m, n)
    d = compute_dual(g)
    trees = enumerate_spanning_trees(g)
    images = set()
    for t_edges in trees:
        t = SpanningTree(g, t_edges)
        ts = dual_tree(t, d)
        back = primal_tree(ts)
        assert back.edges == t.edges
        images.add(ts.edges)
    assert len(images) == len(trees)
    # images are exactly the dual's spanning trees
    dual_trees = set(enumerate_spanning_trees(d))
    assert images == dual_trees


def test_dual_tree_rejects_non_tree():
    g = build_grid(2, 2)
    with pytest.raises(ValueError):
        dual_tree(SpanningTree(g, [0, 1, 2, 3]))


# ---------------------------------------------------------------------------
# contract_partition
# ---------------------------------------------------------------------------


def test_contract_2x2_top_bottom():
    g = build_grid(2, 2)
    top = [grid_vertex(2, 0, 1), grid_vertex(2, 1, 1)]
    bottom = [grid_vertex(2, 0, 0), grid_vertex(2, 1, 0)]
    c = contract_partition(g, [top, bottom])
    assert c.num_vertices == 2
    assert c.num_edges == 2  # two vertical edges cross the cut


def test_contract_2x2_left_right():
    g = build_grid(2, 2)
    left = [grid_vertex(2, 0, 0), grid_vertex(2, 0, 1)]
    right = [grid_vertex(2, 1, 0), grid_vertex(2, 1, 1)]
    c = contract_partition(g, [left, right])
    assert c.num_vertices == 2
    assert c.num_edges == 2


def test_contract_3x3_columns():
    g = build_grid(3, 3)
    cols = [[grid_vertex(3, i, j) for j in range(3)] for i in range(3)]
    c = contract_partition(g, cols)
    assert c.num_vertices == 3
    counts = {}
    for u, v in c.edges:
        key = (min(u, v), max(u, v))
        counts[key] = counts.get(key, 0) + 1
    assert counts == {(0, 1): 3, (1, 2): 3}


def test_contract_preserves_crossing_count():
    g = build_grid(4, 3)
    classes = [
        [v for v in range(g.num_vertices) if v % 4 < 2],
        [v for v in range(g.num_vertices) if v % 4 >= 2],
    ]
    c = contract_partition(g, classes)
    label = {}
    for i, cls in enumerate(classes):
        for v in cls:
            label[v] = i
    crossing = sum(1 for u, v in g.edges if label[u] != label[v])
    assert c.num_edges == crossing


def test_contract_rejects_disconnected_class():
    g = build_grid(3, 1)
    with pytest.raises(PartitionError):
        contract_partition(g, [[0, 2], [1]])


# ---------------------------------------------------------------------------
# count_spanning_trees
# ---------------------------------------------------------------------------


def test_count_cycle():
    assert count_spanning_trees(cycle_graph(4)) == 4


def test_count_parallel_pair():
    g = Multigraph(2, [(0, 1), (0, 1)])
    assert count_spanning_trees(g) == 2


def test_count_2x3_grid_vs_enumeration():
    g = build_grid(2, 3)
    trees = enumerate_spanning_trees(g)
    assert len(trees) == 15
    assert count_spanning_trees(g) == 15


def test_count_single_vertex_is_one():
    assert count_spanning_trees(Multigraph(1, [])) == 1


def test_count_disconnected_is_zero():
    g = Multigraph(4, [(0, 1), (2, 3)])
    assert count_spanning_trees(g) == 0


@pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (3, 3)])
def test_matrix_tree_matches_enumeration(m, n):
    g = build_grid(m, n)
    assert count_spanning_trees(g) == len(enumerate_spanning_trees(g))


def test_sp_equals_dual_sp():
    for m, n in [(2, 3), (3, 3), (2, 4)]:
        g = build_grid(m, n)
        d = compute_dual(g)
        assert count_spanning_trees(g) == count_spanning_trees(d)


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------


def test_enumerate_triangle_trees():
    g = cycle_graph(3)
    assert len(enumerate_spanning_trees(g)) == 3


def test_enumerate_4cycle_2forests():
    g = cycle_graph(4)
    forests = enumerate_k_forests(g, 2)
    assert len(forests) == 6


def test_forest_count_respects_tree_transfer_bound():
    # no more than C(N-1, k-1) * sp(G) k-forests
    from math import comb

    g = build_grid(2, 3)
    k = 2
    n_forests = len(enumerate_k_forests(g, k))
    bound = comb(g.num_vertices - 1, k - 1) * count_spanning_trees(g)
    assert 0 < n_forests <= bound


def test_enumeration_guard():
    g = build_grid(5, 5)  # 40 edges
    with pytest.raises(ValueError):
        enumerate_spanning_trees(g)


def test_forest_components_shapes():
    g = cycle_graph(4)
    comps = forest_components(g, frozenset({0, 2}))
    assert sorted(len(c) for c in comps) == [2, 2]


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------


def test_partition_tree_counts_and_contraction():
    g = build_grid(2, 2)
    p = Partition(g, [[0, 1], [2, 3]])
    assert p.class_tree_counts == (1, 1)
    assert p.contraction.num_edges == 2
    assert p.class_sizes() == (2, 2)


@st.composite
def grid_tree_cuts(draw):
    """(tree, cut): a Wilson tree of a grid with at most 17 edges and a set of its edges."""
    g = build_grid(draw(st.integers(2, 4)), draw(st.integers(2, 3)))
    t = wilson(g, rng=RngStream(draw(st.integers(0, 2**32 - 1)), (0,)))
    cut = draw(st.sets(st.sampled_from(sorted(t.edges))))
    return t, cut


@settings(deadline=None, max_examples=60)
@given(grid_tree_cuts())
def test_partition_from_tree_cut_matches_oracles(case):
    t, cut = case
    g = t.host
    p = Partition.from_tree_cut(t, cut)
    comps = forest_components(g, t.edges - cut)
    assert p.classes == comps
    assert p.key() == comps
    assert p.class_tree_counts == tuple(
        len(enumerate_spanning_trees(g.induced_subgraph(c))) for c in comps
    )
    label = {v: i for i, c in enumerate(comps) for v in c}
    crossing = sum(1 for u, v in g.edges if label[u] != label[v])
    assert p.contraction.num_vertices == len(comps)
    assert p.contraction.num_edges == crossing


def test_partition_from_tree_cut():
    g = build_grid(2, 3)
    t_edges = next(iter(enumerate_spanning_trees(g)))
    t = SpanningTree(g, t_edges)
    cut = [next(iter(t_edges))]
    p = Partition.from_tree_cut(t, cut)
    assert p.k == 2
    assert sum(p.class_sizes()) == g.num_vertices


def test_partition_rejects_bad_cut():
    g = build_grid(2, 3)
    t_edges = next(iter(enumerate_spanning_trees(g)))
    t = SpanningTree(g, t_edges)
    outside = next(e for e in range(g.num_edges) if e not in t_edges)
    with pytest.raises(ValueError):
        Partition.from_tree_cut(t, [outside])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_embedding_json_round_trip():
    g = build_grid(3, 2)
    text = embedding_to_json(g)
    doc = json.loads(text)
    assert {"id", "x", "y"} <= set(doc["vertices"][0])
    back = embedding_from_json(text)
    assert back.num_vertices == g.num_vertices
    assert back.edges == g.edges
    assert back.num_faces == g.num_faces


def test_multigraph_rejects_self_loop():
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 0)])


# ---------------------------------------------------------------------------
# Rooting forests
# ---------------------------------------------------------------------------


@st.composite
def forests(draw):
    """(num_vertices, edge_pairs, forest edge ids): a random labelled tree with
    shuffled vertex and edge ids, minus a random cut set, plus stray non-forest
    edges that rooting must ignore."""
    n = draw(st.integers(1, 24))
    label = draw(st.permutations(range(n)))
    items = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        pair = (label[v], label[u]) if draw(st.booleans()) else (label[u], label[v])
        items.append((pair, True))
    if n > 1:
        vertex = st.integers(0, n - 1)
        stray = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
        items += [(p, False) for p in draw(st.lists(stray, max_size=6))]
    items = draw(st.permutations(items))
    tree_ids = [e for e, (_, in_tree) in enumerate(items) if in_tree]
    cut = draw(st.sets(st.sampled_from(tree_ids))) if tree_ids else set()
    edges = draw(st.permutations([e for e in tree_ids if e not in cut]))
    return n, [p for p, _ in items], edges


@settings(deadline=None)
@given(forests())
def test_root_forest_matches_component_oracle(case):
    n, pairs, edges = case
    parent, parent_edge, order = root_forest(n, pairs, edges)
    g = Multigraph(n, pairs)
    comps = forest_components(g, frozenset(edges))
    assert forest_classes(g, edges) == comps
    assert sorted(order) == list(range(n))
    groups: list[list[int]] = []
    for x in order:
        if parent[x] < 0:
            groups.append([])
        groups[-1].append(x)
    assert tuple(sorted(tuple(sorted(c)) for c in groups)) == comps
    roots = [c[0] for c in groups]
    assert roots == [min(c) for c in groups] == sorted(roots)
    pos = {x: i for i, x in enumerate(order)}
    for x in range(n):
        p = parent[x]
        if p < 0:
            assert parent_edge[x] == -1
            continue
        assert parent_edge[x] in edges
        assert sorted(pairs[parent_edge[x]]) == sorted((x, p))
        assert pos[p] < pos[x]
    for p in range(n):
        kids = [parent_edge[x] for x in order if parent[x] == p]
        assert kids == sorted(kids)
    size = subtree_sizes(parent, order)
    for c in groups:
        assert size[c[0]] == len(c)
    for x in range(n):
        assert size[x] == 1 + sum(size[w] for w in range(n) if parent[w] == x)
