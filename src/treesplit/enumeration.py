"""Brute-force enumeration oracles for small graphs (test and TV baselines)."""

from __future__ import annotations

from itertools import combinations

from .planar import Multigraph

MAX_ORACLE_EDGES = 25


def _check_size(g: Multigraph) -> None:
    if g.num_edges > MAX_ORACLE_EDGES:
        raise ValueError(
            f"enumeration oracle capped at {MAX_ORACLE_EDGES} edges, "
            f"got {g.num_edges}"
        )


def _is_acyclic(g: Multigraph, edge_ids: tuple[int, ...]) -> bool:
    parent = list(range(g.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edge_ids:
        u, v = g.edges[e]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def enumerate_spanning_trees(g: Multigraph) -> list[frozenset[int]]:
    """All spanning trees as edge-id sets, by exhaustive subset search."""
    _check_size(g)
    n = g.num_vertices
    out = []
    for subset in combinations(range(g.num_edges), n - 1):
        if _is_acyclic(g, subset):
            out.append(frozenset(subset))
    return out


def enumerate_k_forests(g: Multigraph, k: int) -> list[frozenset[int]]:
    """All spanning k-forests as edge-id sets.

    An acyclic edge set of size N-k has exactly k components, so acyclicity
    is the only filter needed.
    """
    _check_size(g)
    if not (1 <= k <= g.num_vertices):
        raise ValueError(f"k must be in [1, {g.num_vertices}], got {k}")
    size = g.num_vertices - k
    out = []
    for subset in combinations(range(g.num_edges), size):
        if _is_acyclic(g, subset):
            out.append(frozenset(subset))
    return out


def forest_components(g: Multigraph, edge_ids: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """Vertex classes of the forest, in canonical (min-element) order."""
    n = g.num_vertices
    comp = [-1] * n
    classes = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in edge_ids:
        u, v = g.edges[e]
        adj[u].append(v)
        adj[v].append(u)
    for s in range(n):
        if comp[s] >= 0:
            continue
        cid = len(classes)
        comp[s] = cid
        members = [s]
        stack = [s]
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if comp[w] < 0:
                    comp[w] = cid
                    members.append(w)
                    stack.append(w)
        classes.append(tuple(sorted(members)))
    return tuple(sorted(classes))


def balanced_partition_weights(g: Multigraph, k: int) -> dict[tuple, int]:
    """Exact weights of balanced k-partitions under the tree-product law.

    Every balanced k-forest is grouped by its component partition; the
    multiplicity of a partition equals the product of per-class spanning
    tree counts, so these tallies are the unnormalized target distribution.
    """
    if g.num_vertices % k != 0:
        raise ValueError(f"k={k} does not divide {g.num_vertices}")
    quota = g.num_vertices // k
    weights: dict[tuple, int] = {}
    for forest in enumerate_k_forests(g, k):
        classes = forest_components(g, forest)
        if all(len(c) == quota for c in classes):
            weights[classes] = weights.get(classes, 0) + 1
    return weights
