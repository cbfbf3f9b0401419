"""Reference values computed apart from treesplit, for the benchmark's checks.

Nothing here calls treesplit's enumeration, tree counting, splitting or
traversal code: the checks compare the program against these.

Every statistical test is built so that a correct program fails it with
probability at most ``ALPHA``; a test over several cells splits ``ALPHA``
between them (union bound).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

ALPHA = 1e-4


# -- graph helpers ---------------------------------------------------------------


def adjacency(num_vertices: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(num_vertices)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_connected(vertices, adj) -> bool:
    """Breadth-first search restricted to ``vertices``."""
    vertices = set(vertices)
    if not vertices:
        return False
    start = next(iter(vertices))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for w in adj[x]:
                if w in vertices and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == len(vertices)


def forest_components(num_vertices: int, edge_pairs) -> int | None:
    """Number of components of an edge set, or None if it has a cycle."""
    parent = list(range(num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = num_vertices
    for u, v in edge_pairs:
        ru, rv = find(u), find(v)
        if ru == rv:
            return None
        parent[ru] = rv
        comps -= 1
    return comps


def kirchhoff_count(vertices, edges) -> int:
    """Spanning trees of the subgraph induced on ``vertices`` (matrix-tree theorem).

    Gaussian elimination over exact rationals on the reduced Laplacian.
    """
    vs = sorted(vertices)
    if len(vs) == 1:
        return 1
    index = {v: i for i, v in enumerate(vs)}
    n = len(vs) - 1  # drop the last vertex's row and column
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        if u not in index or v not in index:
            continue
        a, b = index[u], index[v]
        for x in (a, b):
            if x < n:
                lap[x][x] += 1
        if a < n and b < n:
            lap[a][b] -= 1
            lap[b][a] -= 1
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if lap[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            lap[col], lap[pivot] = lap[pivot], lap[col]
            det = -det
        p = lap[col][col]
        det *= p
        for r in range(col + 1, n):
            f = lap[r][col] / p
            if f:
                row_r, row_c = lap[r], lap[col]
                for c in range(col, n):
                    row_r[c] -= f * row_c[c]
    assert det.denominator == 1 and det >= 0
    return int(det)


def balanced_bipartitions(num_vertices: int, edges):
    """Every split into two connected halves, as (A, B, tau(A)*tau(B), cut edges).

    A holds vertex 0, so each unordered split appears once.
    """
    half = num_vertices // 2
    adj = adjacency(num_vertices, edges)
    rest = range(1, num_vertices)
    out = []
    for others in combinations(rest, half - 1):
        a = frozenset((0,) + others)
        b = frozenset(range(num_vertices)) - a
        if not (is_connected(a, adj) and is_connected(b, adj)):
            continue
        weight = kirchhoff_count(a, edges) * kirchhoff_count(b, edges)
        cut = [i for i, (u, v) in enumerate(edges) if (u in a) != (v in a)]
        out.append((a, b, weight, cut))
    return out


def grid_edges(m: int, n: int) -> list[tuple[int, int]]:
    """Edges of the m-by-n grid, vertex (i, j) numbered j*m + i.

    Horizontal edges first, then vertical ones, row by row: the order the
    program documents for ``build_grid``, so edge ids can be compared.
    """
    out = [(j * m + i, j * m + i + 1) for j in range(n) for i in range(m - 1)]
    out += [(j * m + i, (j + 1) * m + i) for j in range(n - 1) for i in range(m)]
    return out


# -- binomial acceptance regions ---------------------------------------------------


def _log_pmf(k: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 0.0 if k == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if k == n else -math.inf
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def binomial_region(n: int, p_lo: float, p_hi: float | None = None,
                    alpha: float = ALPHA) -> tuple[int, int]:
    """Counts [lo, hi] that Binomial(n, p) leaves with probability <= alpha.

    With a range [p_lo, p_hi] of plausible p, the lower end comes from p_lo
    and the upper end from p_hi, so the bound holds for every p in between.
    """
    if p_hi is None:
        p_hi = p_lo
    lo = 0
    acc = 0.0
    for k in range(n + 1):
        acc += math.exp(_log_pmf(k, n, p_lo))
        if acc > alpha / 2:
            lo = k
            break
    hi = n
    acc = 0.0
    for k in range(n, -1, -1):
        acc += math.exp(_log_pmf(k, n, p_hi))
        if acc > alpha / 2:
            hi = k
            break
    return lo, hi


def multinomial_check(counts: dict, weights: dict, total: int,
                      alpha: float = ALPHA) -> list[str]:
    """Per-cell binomial tests of observed counts against a weight law.

    Returns one message per failed cell; unknown cells always fail.
    """
    wsum = sum(weights.values())
    errors = [f"outcome {key} has zero weight" for key in counts if key not in weights]
    per_cell = alpha / max(1, len(weights))
    for key, w in weights.items():
        c = counts.get(key, 0)
        lo, hi = binomial_region(total, w / wsum, alpha=per_cell)
        if not lo <= c <= hi:
            errors.append(
                f"cell {key}: count {c} outside [{lo}, {hi}] for p={w / wsum:.4f}"
            )
    return errors


# -- trees ---------------------------------------------------------------------


def rooted_sizes(num_vertices: int, edge_pairs):
    """Subtree sizes, entry and exit times of a tree rooted at 0."""
    adj = adjacency(num_vertices, edge_pairs)
    seen = bytearray(num_vertices)
    size = [1] * num_vertices
    tin = [0] * num_vertices
    tout = [0] * num_vertices
    clock = 0
    stack = [(0, iter(adj[0]))]
    seen[0] = 1
    while stack:
        x, it = stack[-1]
        w = next(it, None)
        if w is None:
            stack.pop()
            clock += 1
            tout[x] = clock
            if stack:
                size[stack[-1][0]] += size[x]
            continue
        if not seen[w]:
            seen[w] = 1
            clock += 1
            tin[w] = clock
            stack.append((w, iter(adj[w])))
    return size, tin, tout


def three_split_exists(num_vertices: int, edge_pairs, epsilon: Fraction) -> bool:
    """Whether cutting two tree edges leaves three parts within (1 +- eps) N/3.

    Scans pairs of subtrees: either disjoint (sizes a, b, N-a-b) or nested
    (sizes b, a-b, N-a for b inside a).
    """
    n = num_vertices
    k = 3

    def ok(s: int) -> bool:
        return (1 - epsilon) * n <= k * s <= (1 + epsilon) * n

    size, tin, tout = rooted_sizes(n, edge_pairs)
    inside = [v for v in range(1, n) if ok(size[v])]
    for v in range(1, n):
        for w in inside:
            if w == v:
                continue
            if tin[v] < tin[w] and tout[w] <= tout[v]:  # w below v
                if ok(size[v] - size[w]) and ok(n - size[v]):
                    return True
            elif not (tin[w] < tin[v] and tout[v] <= tout[w]):  # disjoint
                if ok(size[v]) and ok(n - size[v] - size[w]):
                    return True
    return False


def part_sizes(num_vertices: int, edge_pairs) -> list[int]:
    adj = adjacency(num_vertices, edge_pairs)
    seen = [False] * num_vertices
    sizes = []
    for s in range(num_vertices):
        if seen[s]:
            continue
        seen[s] = True
        stack = [s]
        count = 0
        while stack:
            x = stack.pop()
            count += 1
            for w in adj[x]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        sizes.append(count)
    return sizes


# -- plane graphs -------------------------------------------------------------------


def face_count(coords, edges) -> int:
    """Faces of a straight-line plane graph, traced from the angular order."""
    n = len(coords)
    around: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        around[u].append(v)
        around[v].append(u)
    order = []
    for v in range(n):
        x, y = coords[v]
        nbrs = sorted(
            around[v], key=lambda w: math.atan2(coords[w][1] - y, coords[w][0] - x)
        )
        order.append({w: nbrs[(i + 1) % len(nbrs)] for i, w in enumerate(nbrs)})
    seen = set()
    faces = 0
    for u, v in edges:
        for start in ((u, v), (v, u)):
            if start in seen:
                continue
            faces += 1
            a, b = start
            while (a, b) not in seen:
                seen.add((a, b))
                a, b = b, order[b][a]
    return faces
