"""Planar graph machinery: grids, rotation-system duals, contraction, tree counting.

Vertices and edges carry stable integer ids. Dual edges share the id of the
primal edge they cross, which keeps the tree complement bijection a pure
index operation.
"""

from __future__ import annotations

import json
import math
from itertools import islice
from typing import Iterable, Sequence


class DualityError(ValueError):
    """The embedding violates the dual-construction hypothesis."""


class PartitionError(ValueError):
    """A vertex partition is malformed (overlap, gap, or disconnected class)."""


class Multigraph:
    """Undirected multigraph without self-loops; parallel edges stay distinct."""

    __slots__ = ("num_vertices", "edges", "nbr", "iedge")

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]]):
        self.num_vertices = int(num_vertices)
        edge_list = []
        nbr: list[list[int]] = [[] for _ in range(self.num_vertices)]
        iedge: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for eid, (u, v) in enumerate(edges):
            u = int(u)
            v = int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u} (edge {eid})")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge {eid} endpoint out of range: ({u}, {v})")
            edge_list.append((u, v))
            nbr[u].append(v)
            iedge[u].append(eid)
            nbr[v].append(u)
            iedge[v].append(eid)
        self.edges = tuple(edge_list)
        self.nbr = tuple(tuple(x) for x in nbr)
        self.iedge = tuple(tuple(x) for x in iedge)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        return len(forest_classes(self, range(self.num_edges))) == 1

    def induced_subgraph(self, vertices: Iterable[int]) -> "Multigraph":
        """Subgraph on ``vertices`` with ids remapped in sorted order."""
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        sub_edges = [
            (index[u], index[v])
            for (u, v) in self.edges
            if u in index and v in index
        ]
        return Multigraph(len(vs), sub_edges)


class PlanarEmbedding(Multigraph):
    """Plane graph with coordinates, a rotation system, and traced faces.

    Faces are derived from the rotation system alone (coordinates fix the
    rotation order at construction and are only consulted afterwards for
    geometry). Each face is recorded as the cycle of edge ids along its
    boundary walk, with the aligned vertex walk kept for area and centroid
    computations. Euler's formula is asserted on every construction.
    """

    __slots__ = (
        "coords",
        "rotation",
        "face_edges",
        "face_vertex_walks",
        "outer_face",
        "edge_faces",
    )

    def __init__(self, coords: Sequence[tuple[float, float]], edges: Iterable[tuple[int, int]]):
        super().__init__(len(coords), edges)
        self.coords = tuple((float(x), float(y)) for x, y in coords)
        if not self.is_connected():
            raise ValueError("embedding requires a connected graph")
        self.rotation = self._rotation_from_coords()
        self._trace_faces()
        euler = self.num_vertices - self.num_edges + len(self.face_edges)
        if euler != 2:
            raise ValueError(f"Euler check failed: V-E+F = {euler}, expected 2")

    # -- construction helpers -------------------------------------------------

    def _rotation_from_coords(self) -> tuple[tuple[int, ...], ...]:
        """Counterclockwise outgoing half-edge order at each vertex.

        Half-edge 2*e is u->v and 2*e+1 is v->u for edge e = (u, v).
        Straight-line drawings cannot carry parallel edges, so coincident
        angles are rejected.
        """
        rotation = []
        for v in range(self.num_vertices):
            xv, yv = self.coords[v]
            halves = []
            for w, e in zip(self.nbr[v], self.iedge[v]):
                xw, yw = self.coords[w]
                ang = math.atan2(yw - yv, xw - xv)
                h = 2 * e if self.edges[e][0] == v else 2 * e + 1
                halves.append((ang, h))
            halves.sort()
            for (a1, _), (a2, h) in zip(halves, halves[1:]):
                if a1 == a2:
                    raise ValueError(
                        f"coincident edge directions at vertex {v}; "
                        "straight-line embeddings cannot represent this"
                    )
            rotation.append(tuple(h for _, h in halves))
        return tuple(rotation)

    def _trace_faces(self) -> None:
        ne = self.num_edges
        pos = {}
        for v in range(self.num_vertices):
            for i, h in enumerate(self.rotation[v]):
                pos[h] = (v, i)
        face_of_half = [-1] * (2 * ne)
        face_edges = []
        face_walks = []
        areas = []
        for h0 in range(2 * ne):
            if face_of_half[h0] >= 0:
                continue
            fid = len(face_edges)
            walk_e = []
            walk_v = []
            h = h0
            while True:
                face_of_half[h] = fid
                e = h >> 1
                u, v = self.edges[e]
                tail, head = (u, v) if h & 1 == 0 else (v, u)
                walk_e.append(e)
                walk_v.append(tail)
                # next boundary half-edge: CCW-predecessor of the reverse at head
                rev = h ^ 1
                hv, i = pos[rev]
                rot = self.rotation[hv]
                h = rot[(i - 1) % len(rot)]
                if h == h0:
                    break
            face_edges.append(tuple(walk_e))
            face_walks.append(tuple(walk_v))
            area = 0.0
            for a, b in zip(walk_v, walk_v[1:] + walk_v[:1]):
                xa, ya = self.coords[a]
                xb, yb = self.coords[b]
                area += xa * yb - xb * ya
            areas.append(area / 2.0)
        self.face_edges = tuple(face_edges)
        self.face_vertex_walks = tuple(face_walks)
        if len(face_edges) == 1:
            self.outer_face = 0
        else:
            self.outer_face = min(range(len(areas)), key=lambda f: areas[f])
        ef: list[list[int]] = [[] for _ in range(ne)]
        for h, f in enumerate(face_of_half):
            ef[h >> 1].append(f)
        self.edge_faces = tuple((a, b) for a, b in ef)

    # -- geometry ------------------------------------------------------------

    @property
    def num_faces(self) -> int:
        return len(self.face_edges)

    def face_centroid(self, f: int) -> tuple[float, float]:
        """Area centroid of the face's boundary polygon (inner faces only)."""
        walk = self.face_vertex_walks[f]
        a = 0.0
        cx = 0.0
        cy = 0.0
        for p, q in zip(walk, walk[1:] + walk[:1]):
            x0, y0 = self.coords[p]
            x1, y1 = self.coords[q]
            cross = x0 * y1 - x1 * y0
            a += cross
            cx += (x0 + x1) * cross
            cy += (y0 + y1) * cross
        if a == 0.0:
            xs = [self.coords[p][0] for p in walk]
            ys = [self.coords[p][1] for p in walk]
            return (sum(xs) / len(xs), sum(ys) / len(ys))
        return (cx / (3.0 * a), cy / (3.0 * a))


def build_grid(m: int, n: int) -> PlanarEmbedding:
    """The m-by-n grid graph with unit-spaced coordinates.

    Vertex (i, j) sits at coordinates (i, j) with id ``j*m + i``; the first
    index runs horizontally. Horizontal edges come first in id order, then
    vertical edges, row by row.
    """
    if m < 1 or n < 1:
        raise ValueError(f"grid dimensions must be positive, got {m}x{n}")
    coords = [(float(i), float(j)) for j in range(n) for i in range(m)]
    edges = []
    for j in range(n):
        for i in range(m - 1):
            edges.append((j * m + i, j * m + i + 1))
    for j in range(n - 1):
        for i in range(m):
            edges.append((j * m + i, (j + 1) * m + i))
    g = PlanarEmbedding(coords, edges)
    assert g.num_vertices == m * n
    assert g.num_edges == m * (n - 1) + n * (m - 1)
    return g


def grid_vertex(m: int, i: int, j: int) -> int:
    """Vertex id of grid point (i, j), both 0-based."""
    return j * m + i


def grid_vertical_edge(m: int, n: int, i: int, j: int) -> int:
    """Edge id of the vertical edge from (i, j) to (i, j+1), 0-based."""
    if not (0 <= i < m and 0 <= j < n - 1):
        raise ValueError(f"no vertical edge at ({i}, {j}) in a {m}x{n} grid")
    return n * (m - 1) + j * m + i


class DualGraph(Multigraph):
    """Face-adjacency multigraph of a planar embedding.

    Dual edge ids coincide with primal edge ids (the bijection e <-> e*).
    ``root`` is the dual vertex of the primal outer face. When built with a
    wired boundary, ``wired_boundary`` records the identified dual vertices;
    for a finite embedding the outer face is already a single vertex, so the
    wiring is the trivial identification.
    """

    __slots__ = ("primal", "root", "coords", "wired_boundary")

    def __init__(
        self,
        primal: PlanarEmbedding,
        edges: Iterable[tuple[int, int]],
        root: int,
        coords: Sequence[tuple[float, float] | None],
        wired_boundary: frozenset[int] | None = None,
    ):
        super().__init__(primal.num_faces, edges)
        self.primal = primal
        self.root = int(root)
        self.coords = tuple(coords)
        self.wired_boundary = wired_boundary


def compute_dual(g: PlanarEmbedding, wire_boundary: bool = False) -> DualGraph:
    """Dual multigraph of ``g`` with the per-edge bijection.

    Requires that no edge has the same face on both sides (holds for grids
    with m, n > 1). With ``wire_boundary`` the boundary identification is
    recorded; on a finite embedding the outer face is already one vertex.
    """
    dual_edges = []
    for eid, (fa, fb) in enumerate(g.edge_faces):
        if fa == fb:
            u, v = g.edges[eid]
            raise DualityError(
                f"edge {eid} ({u}-{v}) has face {fa} on both sides; "
                "dual construction hypothesis fails"
            )
        dual_edges.append((fa, fb))
    coords: list[tuple[float, float] | None] = []
    for f in range(g.num_faces):
        coords.append(None if f == g.outer_face else g.face_centroid(f))
    wired = frozenset({g.outer_face}) if wire_boundary else None
    return DualGraph(g, dual_edges, g.outer_face, coords, wired)


class SpanningTree:
    """Spanning tree of a host graph, stored as an edge-id set."""

    __slots__ = ("host", "edges", "root", "steps")

    def __init__(
        self,
        host: Multigraph,
        edges: Iterable[int],
        root: int = 0,
        steps: int | None = None,
        validate: bool = True,
    ):
        self.host = host
        self.edges = frozenset(int(e) for e in edges)
        self.root = int(root)
        self.steps = steps
        if validate:
            self._validate()

    def _validate(self) -> None:
        n = self.host.num_vertices
        if len(self.edges) != n - 1:
            raise ValueError(
                f"not a spanning tree: {len(self.edges)} edges for {n} vertices"
            )
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.edges:
            u, v = self.host.edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                raise ValueError(f"not a spanning tree: edge {e} closes a cycle")
            parent[ru] = rv

    def __contains__(self, eid: int) -> bool:
        return eid in self.edges


def root_forest(
    num_vertices: int,
    edge_pairs: Sequence[tuple[int, int]],
    edges: Iterable[int],
) -> tuple[list[int], list[int], list[int]]:
    """Root the forest made of edge ids ``edges`` (endpoints in ``edge_pairs``).

    Each component is rooted at its smallest vertex and searched breadth
    first, children in ascending edge id. Returns ``(parent, parent_edge,
    order)``: roots have parent and parent edge -1, and ``order`` lists every
    vertex once, component after component in ascending root order, each
    parent before its children. An edge that would close a cycle is skipped.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
    for e in sorted(edges):
        u, v = edge_pairs[e]
        adj[u].append((e, v))
        adj[v].append((e, u))
    parent = [-1] * num_vertices
    parent_edge = [-1] * num_vertices
    order: list[int] = []
    roots = []
    for r in range(num_vertices):
        if len(order) == num_vertices:
            break
        if parent[r] >= 0:
            continue
        start = len(order)
        parent[r] = r  # marks the root as reached until the search ends
        roots.append(r)
        order.append(r)
        for x in islice(order, start, None):
            for e, w in adj[x]:
                if parent[w] < 0:
                    parent[w] = x
                    parent_edge[w] = e
                    order.append(w)
    for r in roots:
        parent[r] = -1
    return parent, parent_edge, order


def subtree_sizes(parent: Sequence[int], order: Sequence[int]) -> list[int]:
    """Vertex count of every subtree, from :func:`root_forest` arrays.

    A root's entry is the order of its component.
    """
    size = [1] * len(parent)
    for x in reversed(order):
        p = parent[x]
        if p >= 0:
            size[p] += size[x]
    return size


def dual_tree(t: SpanningTree, dual: DualGraph | None = None) -> SpanningTree:
    """Map a spanning tree of G to its complement-image tree of G*."""
    host = t.host
    if dual is None:
        if not isinstance(host, PlanarEmbedding):
            raise TypeError("dual_tree needs a PlanarEmbedding host or an explicit dual")
        dual = compute_dual(host)
    complement = [e for e in range(host.num_edges) if e not in t.edges]
    return SpanningTree(dual, complement, root=dual.root)


def primal_tree(t_star: SpanningTree) -> SpanningTree:
    """Inverse of :func:`dual_tree`: complement back to a tree of the primal."""
    host = t_star.host
    if not isinstance(host, DualGraph):
        raise TypeError("primal_tree expects a tree whose host is a DualGraph")
    primal = host.primal
    complement = [e for e in range(primal.num_edges) if e not in t_star.edges]
    return SpanningTree(primal, complement, steps=t_star.steps)


def forest_classes(g: Multigraph, edges: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Vertex classes of the forest made of g's edge ids ``edges``.

    Canonical form: ascending vertex tuples ordered by smallest vertex. An
    edge that would close a cycle is skipped, so all of g's edges give g's
    connected components.
    """
    parent, _, order = root_forest(g.num_vertices, g.edges, edges)
    starts = [i for i, x in enumerate(order) if parent[x] < 0] + [g.num_vertices]
    return tuple(tuple(sorted(order[a:b])) for a, b in zip(starts, starts[1:]))


def _validated_classes(g: Multigraph, classes: Sequence[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    sets = [frozenset(int(v) for v in c) for c in classes]
    seen: set[int] = set()
    for i, c in enumerate(sets):
        if not c:
            raise PartitionError(f"class {i} is empty")
        if c & seen:
            raise PartitionError(f"class {i} overlaps another class")
        seen |= c
    if seen != set(range(g.num_vertices)):
        raise PartitionError("classes do not cover the vertex set")
    label = [0] * g.num_vertices
    for i, c in enumerate(sets):
        for v in c:
            label[v] = i
    canonical = forest_classes(g, [e for e, (u, v) in enumerate(g.edges) if label[u] == label[v]])
    if len(canonical) > len(sets):
        owners = [label[c[0]] for c in canonical]
        i = min(i for i in owners if owners.count(i) > 1)
        raise PartitionError(f"class {i} is disconnected")
    return canonical


def contract_partition(g: Multigraph, classes: Sequence[Iterable[int]]) -> Multigraph:
    """Contract each class to a point, keeping cross-edge multiplicity.

    The classes are validated first; edges inside a class are dropped.
    """
    return Partition(g, classes).contraction


class Partition:
    """k connected vertex classes of a host graph, held in canonical form.

    The contraction G/P and the per-class tree counts are computed each time
    they are read.
    """

    __slots__ = ("host", "classes", "cut_edges")

    def __init__(self, host: Multigraph, classes: Sequence[Iterable[int]], cut_edges=None):
        self.host = host
        self.classes = _validated_classes(host, classes)
        self.cut_edges = None if cut_edges is None else frozenset(cut_edges)

    @property
    def k(self) -> int:
        return len(self.classes)

    @property
    def contraction(self) -> Multigraph:
        """G/P: class i becomes vertex i; edges inside a class are dropped."""
        label = [-1] * self.host.num_vertices
        for i, c in enumerate(self.classes):
            for v in c:
                label[v] = i
        cross = [
            (label[u], label[v]) for (u, v) in self.host.edges if label[u] != label[v]
        ]
        return Multigraph(len(self.classes), cross)

    @property
    def class_tree_counts(self) -> tuple[int, ...]:
        """Exact spanning-tree count of each class's induced subgraph."""
        return tuple(
            count_spanning_trees(self.host.induced_subgraph(c)) for c in self.classes
        )

    def key(self) -> tuple[tuple[int, ...], ...]:
        """Canonical hashable form for tallying empirical distributions."""
        return self.classes

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    @classmethod
    def from_tree_cut(cls, t: SpanningTree, cut_edges: Iterable[int]) -> "Partition":
        """The classes of tree ``t`` minus ``cut_edges``.

        They are disjoint, covering and connected by construction, so they
        are not validated again.
        """
        cut = frozenset(int(e) for e in cut_edges)
        missing = cut - t.edges
        if missing:
            raise ValueError(f"cut edges {sorted(missing)} are not in the tree")
        p = cls.__new__(cls)
        p.host = t.host
        p.classes = forest_classes(t.host, t.edges - cut)
        p.cut_edges = cut
        return p


def _bareiss_determinant(a: list[list[int]]) -> int:
    """Exact integer determinant via fraction-free elimination."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[i][i]
        for r in range(i + 1, n):
            row_r = a[r]
            row_i = a[i]
            lead = row_r[i]
            for c in range(i + 1, n):
                row_r[c] = (row_r[c] * pivot - lead * row_i[c]) // prev
            row_r[i] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def count_spanning_trees(g: Multigraph) -> int:
    """Exact spanning-tree count via a Laplacian minor determinant.

    Arbitrary-precision integers throughout; disconnected input returns 0,
    and a single vertex counts 1 (empty-product convention).
    """
    n = g.num_vertices
    if n < 1:
        raise ValueError("count_spanning_trees requires at least one vertex")
    if n == 1:
        return 1
    a = [[0] * (n - 1) for _ in range(n - 1)]
    for u, v in g.edges:
        if u:
            a[u - 1][u - 1] += 1
        if v:
            a[v - 1][v - 1] += 1
        if u and v:
            a[u - 1][v - 1] -= 1
            a[v - 1][u - 1] -= 1
    det = _bareiss_determinant(a)
    assert det >= 0, "Laplacian minor determinant must be nonnegative"
    return det


# -- serialization ------------------------------------------------------------


def embedding_to_json(g: PlanarEmbedding) -> str:
    doc = {
        "vertices": [
            {"id": i, "x": x, "y": y} for i, (x, y) in enumerate(g.coords)
        ],
        "edges": [
            {"id": e, "u": u, "v": v} for e, (u, v) in enumerate(g.edges)
        ],
    }
    return json.dumps(doc)


def embedding_from_json(text: str) -> PlanarEmbedding:
    doc = json.loads(text)
    verts = sorted(doc["vertices"], key=lambda r: r["id"])
    if [r["id"] for r in verts] != list(range(len(verts))):
        raise ValueError("vertex ids must be 0..n-1")
    edges_doc = sorted(doc["edges"], key=lambda r: r["id"])
    if [r["id"] for r in edges_doc] != list(range(len(edges_doc))):
        raise ValueError("edge ids must be 0..m-1")
    coords = [(r["x"], r["y"]) for r in verts]
    edges = [(r["u"], r["v"]) for r in edges_doc]
    return PlanarEmbedding(coords, edges)
