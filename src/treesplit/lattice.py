"""Lattice regions clipped to plane-graph drawings, and compatibility checks.

A drawing fixes a target partition of the plane; a lattice at refinement n
is clipped to the drawing's outer boundary by tracing a dual cycle along it,
and spanning trees of the clipped region are scored for how closely their
cut components hug the drawing's faces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .planar import (
    DualGraph,
    DualityError,
    PlanarEmbedding,
    SpanningTree,
    compute_dual,
    forest_classes,
    root_forest,
)
from .rng import RngStream
from .splitting import find_approx_split
from .stats import wilson_score_interval
from .walks import DualWilsonSampler

SQRT3_2 = math.sqrt(3.0) / 2.0

# approximate-split size windows tried, in order, for k >= 3 compatible cuts
SIZE_WINDOWS = (0.1, 0.25, 0.5)


class RegionError(ValueError):
    """Lattice clipping failed at this refinement (with diagnostics)."""


# -- geometry primitives -------------------------------------------------------


def point_to_segments_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min distance from each point to a family of segments (exact projections)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = b - a
    len2 = np.einsum("ij,ij->i", d, d)
    len2 = np.where(len2 == 0, 1.0, len2)
    ap = points[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("pij,ij->pi", ap, d) / len2[None, :], 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * d[None, :, :]
    diff = points[:, None, :] - closest
    return np.sqrt(np.min(np.einsum("pij,pij->pi", diff, diff), axis=1))


def _polygon_segments(poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return poly, np.roll(poly, -1, axis=0)


def points_in_polygon(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Ray-casting containment for many points against one simple polygon."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x = points[:, 0]
    y = points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    a, b = _polygon_segments(np.asarray(poly, dtype=float))
    for (x1, y1), (x2, y2) in zip(a, b):
        crosses = (y1 > y) != (y2 > y)
        if not crosses.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (x2 - x1) * (y - y1) / (y2 - y1) + x1
        inside ^= crosses & (x < xint)
    return inside


def point_to_polygon_distance(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Euclidean distance to a filled polygon: zero inside, else boundary distance."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    a, b = _polygon_segments(np.asarray(poly, dtype=float))
    dist = point_to_segments_distance(points, a, b)
    dist[points_in_polygon(points, poly)] = 0.0
    return dist


@dataclass(frozen=True)
class Polyline:
    """Open or closed chain of points; closed chains are polygons."""

    points: tuple[tuple[float, float], ...]
    closed: bool = False

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        pts = self.as_array()
        if self.closed:
            return pts, np.roll(pts, -1, axis=0)
        return pts[:-1], pts[1:]

    def length(self) -> float:
        a, b = self.segments()
        return float(np.sqrt(((b - a) ** 2).sum(axis=1)).sum())

    def sample(self, spacing: float) -> np.ndarray:
        """Points along the chain in path order, at most ``spacing`` apart."""
        a, b = self.segments()
        rows = []
        for pa, pb in zip(a, b):
            rows.append(pa[None, :])
            seg = float(np.linalg.norm(pb - pa))
            extra = int(seg // spacing)
            if extra:
                t = np.arange(1, extra + 1) / (extra + 1)
                rows.append(pa[None, :] + t[:, None] * (pb - pa)[None, :])
        if not self.closed:
            rows.append(b[-1][None, :])
        return np.vstack(rows)


def _as_point_samples(obj, spacing_hint: float) -> np.ndarray:
    if isinstance(obj, Polyline):
        return obj.sample(spacing_hint)
    arr = np.atleast_2d(np.asarray(obj, dtype=float))
    if arr.size == 0:
        raise ValueError("hausdorff_distance requires nonempty inputs")
    return arr


def _directed_sup(samples: np.ndarray, target) -> float:
    if isinstance(target, Polyline):
        a, b = target.segments()
        return float(point_to_segments_distance(samples, a, b).max())
    arr = np.atleast_2d(np.asarray(target, dtype=float))
    diff = samples[:, None, :] - arr[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).min(axis=1).max())


def hausdorff_distance(a, b, resolution: float | None = None) -> float:
    """Symmetric Hausdorff distance between point sets and/or polylines.

    Point-set sources are exact (per-point distances use exact segment
    projections). Polyline sources are sampled at ``resolution`` spacing, so
    the result can underestimate the true value by at most resolution/2.
    """
    if resolution is None:
        total = 0.0
        for obj in (a, b):
            if isinstance(obj, Polyline):
                total = max(total, obj.length())
        resolution = total / 1024.0 if total > 0 else 1.0
    sa = _as_point_samples(a, resolution)
    sb = _as_point_samples(b, resolution)
    return max(_directed_sup(sa, b), _directed_sup(sb, a))


# -- plane-graph drawings ------------------------------------------------------


@dataclass(frozen=True)
class Curve:
    """Polyline edge of a drawing; endpoints are drawing vertex ids."""

    points: tuple[tuple[float, float], ...]
    start: int
    end: int


@dataclass(frozen=True)
class PlaneGraphD:
    """Drawing given by polyline curves with identified inner faces.

    Faces are stored as signed curve references: entry c >= 1 means curve
    c-1 traversed forward, c <= -1 means curve -c-1 reversed.
    """

    vertices: tuple[tuple[float, float], ...]
    curves: tuple[Curve, ...]
    faces: tuple[tuple[int, ...], ...]

    @property
    def num_inner_faces(self) -> int:
        return len(self.faces)

    def face_polygon(self, i: int) -> np.ndarray:
        pts: list[tuple[float, float]] = []
        for ref in self.faces[i]:
            cid = abs(ref) - 1
            chain = list(self.curves[cid].points)
            if ref < 0:
                chain.reverse()
            if pts and pts[-1] == chain[0]:
                chain = chain[1:]
            pts.extend(chain)
        if pts and pts[0] == pts[-1]:
            pts.pop()
        return np.asarray(pts, dtype=float)

    def face_polygons(self) -> list[np.ndarray]:
        return [self.face_polygon(i) for i in range(len(self.faces))]

    def outer_boundary(self) -> Polyline:
        """Closed boundary of the outer face, chained from singly-used curves."""
        usage = [0] * len(self.curves)
        for face in self.faces:
            for ref in face:
                usage[abs(ref) - 1] += 1
        boundary = [i for i, u in enumerate(usage) if u == 1]
        if not boundary:
            raise ValueError("drawing has no outer boundary curves")
        remaining = set(boundary)
        first = min(remaining)
        remaining.remove(first)
        chain = list(self.curves[first].points)
        end_vertex = self.curves[first].end
        start_vertex = self.curves[first].start
        while remaining:
            for cid in sorted(remaining):
                c = self.curves[cid]
                if c.start == end_vertex:
                    chain.extend(c.points[1:])
                    end_vertex = c.end
                    break
                if c.end == end_vertex:
                    chain.extend(tuple(reversed(c.points))[1:])
                    end_vertex = c.start
                    break
            else:
                raise ValueError("outer boundary curves do not chain into a cycle")
            remaining.remove(cid)
        if end_vertex != start_vertex:
            raise ValueError("outer boundary does not close")
        if chain[0] == chain[-1]:
            chain.pop()
        return Polyline(tuple(chain), closed=True)


def plane_graph_to_json(d: PlaneGraphD) -> str:
    return json.dumps(
        {
            "vertices": [list(v) for v in d.vertices],
            "curves": [
                {"points": [list(p) for p in c.points], "from": c.start, "to": c.end}
                for c in d.curves
            ],
            "faces": [list(f) for f in d.faces],
        }
    )


def plane_graph_from_json(text: str) -> PlaneGraphD:
    doc = json.loads(text)
    return PlaneGraphD(
        vertices=tuple((float(x), float(y)) for x, y in doc["vertices"]),
        curves=tuple(
            Curve(
                points=tuple((float(x), float(y)) for x, y in c["points"]),
                start=int(c["from"]),
                end=int(c["to"]),
            )
            for c in doc["curves"]
        ),
        faces=tuple(tuple(int(r) for r in f) for f in doc["faces"]),
    )


def vertical_strips(k: int, width: float = 1.0, height: float = 1.0,
                    x0: float = 0.0, y0: float = 0.0) -> PlaneGraphD:
    """Rectangle divided into k equal vertical strips (the k-strip fixture)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    xs = [x0 + width * i / k for i in range(k + 1)]
    bottom = [(x, y0) for x in xs]
    top = [(x, y0 + height) for x in xs]
    vertices = tuple(bottom + top)  # ids: bottom 0..k, top k+1..2k+1
    curves = []
    for i in range(k):  # bottoms: ids 0..k-1
        curves.append(Curve((bottom[i], bottom[i + 1]), i, i + 1))
    for i in range(k):  # tops: ids k..2k-1
        curves.append(Curve((top[i], top[i + 1]), k + 1 + i, k + 2 + i))
    left = len(curves)  # id 2k
    curves.append(Curve((bottom[0], top[0]), 0, k + 1))
    right = len(curves)  # id 2k+1
    curves.append(Curve((bottom[k], top[k]), k, 2 * k + 1))
    splits = []
    for i in range(1, k):  # ids 2k+2 ...
        splits.append(len(curves))
        curves.append(Curve((bottom[i], top[i]), i, k + 1 + i))
    faces = []
    for i in range(k):
        up = right if i == k - 1 else splits[i]
        down = left if i == 0 else splits[i - 1]
        faces.append((i + 1, up + 1, -(k + i + 1), -(down + 1)))
    return PlaneGraphD(vertices, tuple(curves), tuple(faces))


def halved_square(width: float = 1.0, height: float = 1.0) -> PlaneGraphD:
    return vertical_strips(2, width=width, height=height)


# -- lattice generators --------------------------------------------------------


class _Lattice:
    """Vertices, edges, cells, and a point locator for one lattice patch."""

    def __init__(self, spacing, vertices, edges, cell_centers, edge_cells, locate):
        self.spacing = spacing
        self.vertices = vertices  # key -> (x, y)
        self.edges = edges  # list of (key_a, key_b)
        self.cell_centers = cell_centers  # cell key -> (x, y)
        self.edge_cells = edge_cells  # per edge: (cell key, cell key)
        self.locate = locate  # point -> cell key
        adjacent = set()
        cell_edges: dict = {}
        for idx, (ca, cb) in enumerate(edge_cells):
            adjacent.add((ca, cb))
            adjacent.add((cb, ca))
            cell_edges.setdefault(ca, []).append(idx)
            cell_edges.setdefault(cb, []).append(idx)
        self.cell_adjacent = adjacent
        self.cell_edges = cell_edges


def _gen_square(n: int, bbox) -> _Lattice:
    xmin, ymin, xmax, ymax = bbox
    s = 1.0 / n
    i0 = math.floor(xmin / s) - 2
    i1 = math.ceil(xmax / s) + 2
    j0 = math.floor(ymin / s) - 2
    j1 = math.ceil(ymax / s) + 2
    vertices = {
        (i, j): ((i + 0.5) * s, (j + 0.5) * s)
        for i in range(i0, i1)
        for j in range(j0, j1)
    }
    edges = []
    edge_cells = []
    for (i, j) in vertices:
        if (i + 1, j) in vertices:
            edges.append(((i, j), (i + 1, j)))
            edge_cells.append(((i + 1, j), (i + 1, j + 1)))
        if (i, j + 1) in vertices:
            edges.append(((i, j), (i, j + 1)))
            edge_cells.append(((i, j + 1), (i + 1, j + 1)))
    centers = {}
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            centers[(i, j)] = (i * s, j * s)

    def locate(p):
        return (round(p[0] / s), round(p[1] / s))

    return _Lattice(s, vertices, edges, centers, edge_cells, locate)


# fixed irrational-ish offsets keep polygonal boundaries (usually drawn with
# small rational coordinates) away from lattice vertices during tracing
_OX = 0.2890815
_OY = 0.3372957


def _gen_triangular(n: int, bbox) -> _Lattice:
    xmin, ymin, xmax, ymax = bbox
    s = 1.0 / n
    h = SQRT3_2 * s
    j0 = math.floor(ymin / h - _OY) - 2
    j1 = math.ceil(ymax / h - _OY) + 2
    vertices = {}
    for j in range(j0, j1):
        i_lo = math.floor(xmin / s - j / 2 - _OX) - 2
        i_hi = math.ceil(xmax / s - j / 2 - _OX) + 2
        for i in range(i_lo, i_hi):
            vertices[(i, j)] = ((i + j / 2 + _OX) * s, (j + _OY) * h)
    edges = []
    edge_cells = []
    for (i, j) in vertices:
        if (i + 1, j) in vertices:  # east
            edges.append(((i, j), (i + 1, j)))
            edge_cells.append((("U", i, j), ("D", i, j - 1)))
        if (i, j + 1) in vertices:  # northeast
            edges.append(((i, j), (i, j + 1)))
            edge_cells.append((("U", i, j), ("D", i - 1, j)))
        if (i - 1, j + 1) in vertices:  # northwest
            edges.append(((i, j), (i - 1, j + 1)))
            edge_cells.append((("U", i - 1, j), ("D", i - 1, j)))
    centers = {}
    for (i, j) in vertices:
        centers[("U", i, j)] = ((i + j / 2 + _OX + 0.5) * s, (j + _OY + 1 / 3) * h)
        centers[("D", i, j)] = ((i + j / 2 + _OX + 1.0) * s, (j + _OY + 2 / 3) * h)

    def locate(p):
        jf = p[1] / h - _OY
        j = math.floor(jf)
        if_ = p[0] / s - _OX - jf / 2
        i = math.floor(if_)
        u = if_ - i
        w = jf - j
        return ("U", i, j) if u + w < 1.0 else ("D", i, j)

    return _Lattice(s, vertices, edges, centers, edge_cells, locate)


def _gen_hexagonal(n: int, bbox) -> _Lattice:
    """Honeycomb: vertices are triangle centroids, cells are hexagons."""
    xmin, ymin, xmax, ymax = bbox
    s = 1.0 / n
    h = SQRT3_2 * s
    j0 = math.floor(ymin / h - _OY) - 3
    j1 = math.ceil(ymax / h - _OY) + 3
    vertices = {}
    for j in range(j0, j1):
        i_lo = math.floor(xmin / s - j / 2 - _OX) - 3
        i_hi = math.ceil(xmax / s - j / 2 - _OX) + 3
        for i in range(i_lo, i_hi):
            vertices[("U", i, j)] = ((i + j / 2 + _OX + 0.5) * s, (j + _OY + 1 / 3) * h)
            vertices[("D", i, j)] = ((i + j / 2 + _OX + 1.0) * s, (j + _OY + 2 / 3) * h)
    edges = []
    edge_cells = []
    for key in list(vertices):
        kind, i, j = key
        if kind != "U":
            continue
        # each up-triangle touches three down-triangles across its sides
        for other, cells in (
            (("D", i, j), ((i + 1, j), (i, j + 1))),
            (("D", i - 1, j), ((i, j), (i, j + 1))),
            (("D", i, j - 1), ((i, j), (i + 1, j))),
        ):
            if other in vertices:
                edges.append((key, other))
                edge_cells.append(cells)
    centers = {}
    for j in range(j0, j1 + 1):
        i_lo = math.floor(xmin / s - j / 2 - _OX) - 3
        i_hi = math.ceil(xmax / s - j / 2 - _OX) + 3
        for i in range(i_lo, i_hi):
            centers[(i, j)] = ((i + j / 2 + _OX) * s, (j + _OY) * h)

    def locate(p):
        # hexagon cells are the Voronoi regions of the triangular vertices
        jf = p[1] / h - _OY
        if_ = p[0] / s - _OX - jf / 2
        best = None
        best_d = math.inf
        for j in (math.floor(jf), math.ceil(jf)):
            for i in range(math.floor(if_) - 1, math.floor(if_) + 3):
                c = ((i + j / 2 + _OX) * s, (j + _OY) * h)
                d = (c[0] - p[0]) ** 2 + (c[1] - p[1]) ** 2
                if d < best_d:
                    best_d = d
                    best = (i, j)
        return best

    return _Lattice(s, vertices, edges, centers, edge_cells, locate)


_GENERATORS = {
    "square": _gen_square,
    "triangular": _gen_triangular,
    "hexagonal": _gen_hexagonal,
}


# -- region construction -------------------------------------------------------


@dataclass
class LatticeRegion:
    kind: str
    n: int
    delta: float
    region: PlanarEmbedding
    dual: DualGraph
    boundary_cycle: np.ndarray  # dual cycle vertex positions, in order
    achieved_hausdorff: float
    drawing: PlaneGraphD  # the drawing the region is clipped to
    face_distance: np.ndarray  # (V, k): vertex distance to each inner face


def _remove_spurs(cells: list) -> list:
    """Collapse cyclic A,B,A backtracks (corner turns grazing a neighbor cell)."""
    cells = list(cells)
    changed = True
    while changed and len(cells) >= 3:
        changed = False
        n = len(cells)
        for i in range(n):
            if cells[(i - 1) % n] == cells[(i + 1) % n]:
                drop = sorted(((i % n), (i + 1) % n), reverse=True)
                for j in drop:
                    del cells[j]
                changed = True
                break
    return cells


def _trace_boundary_cells(lat: _Lattice, boundary: Polyline) -> list:
    for attempt in range(4):
        spacing = lat.spacing / (8 * 2**attempt)
        samples = boundary.sample(spacing)
        cells: list = []
        for p in samples:
            c = lat.locate((float(p[0]), float(p[1])))
            if not cells or cells[-1] != c:
                cells.append(c)
        if len(cells) > 1 and cells[0] == cells[-1]:
            cells.pop()
        cells = _remove_spurs(cells)
        if len(cells) < 3:
            continue
        adjacent_ok = all(
            (cells[i], cells[(i + 1) % len(cells)]) in lat.cell_adjacent
            for i in range(len(cells))
        )
        if not adjacent_ok:
            continue  # retry with finer sampling
        if len(set(cells)) != len(cells):
            raise RegionError(
                "traced boundary cycle revisits a dual cell; the drawing "
                "boundary is too tight for this refinement"
            )
        return cells
    raise RegionError(
        "could not trace an edge-adjacent dual cycle along the boundary; "
        "refine the lattice or simplify the drawing"
    )


def build_lattice_region(kind: str, n: int, d: PlaneGraphD, delta: float) -> LatticeRegion:
    """Clip lattice ``kind`` at refinement ``n`` to the drawing's outer boundary.

    The boundary cycle is found by tracing the dual cells crossed by the
    outer boundary polyline; its Hausdorff distance to the boundary must come
    in under ``delta`` or the construction fails with the achieved value.
    """
    if kind not in _GENERATORS:
        raise ValueError(f"unknown lattice kind {kind!r}; expected one of {sorted(_GENERATORS)}")
    if n < 1:
        raise ValueError("refinement n must be positive")
    boundary = d.outer_boundary()
    corners = boundary.as_array()
    bbox = (*corners.min(axis=0).tolist(), *corners.max(axis=0).tolist())
    lat = _GENERATORS[kind](n, bbox)
    cycle_cells = _trace_boundary_cells(lat, boundary)
    cycle_pts = np.asarray([lat.cell_centers[c] for c in cycle_cells], dtype=float)
    achieved = hausdorff_distance(
        Polyline(tuple(map(tuple, cycle_pts)), closed=True),
        boundary,
        resolution=lat.spacing / 16,
    )
    if achieved >= delta:
        raise RegionError(
            f"boundary cycle sits at Hausdorff distance {achieved:.6f} "
            f">= delta {delta:.6f} at refinement n={n}"
        )
    # the region is the union of the cells enclosed by the dual cycle, so
    # every surviving edge borders a complete inner face
    cycle_set = set(cycle_cells)
    cell_keys = [c for c in lat.cell_centers if c not in cycle_set]
    centers = np.asarray([lat.cell_centers[c] for c in cell_keys], dtype=float)
    enclosed_mask = points_in_polygon(centers, cycle_pts)
    enclosed = {c for c, flag in zip(cell_keys, enclosed_mask) if flag}
    if not enclosed:
        raise RegionError(f"no lattice cells enclosed by the boundary at n={n}")
    edge_ids = sorted(
        {e for c in enclosed for e in lat.cell_edges.get(c, ())}
    )
    index: dict = {}
    coords: list[tuple[float, float]] = []
    edges = []
    for eid in edge_ids:
        ka, kb = lat.edges[eid]
        for k in (ka, kb):
            if k not in index:
                index[k] = len(coords)
                x, y = lat.vertices[k]
                coords.append((float(x), float(y)))
        edges.append((index[ka], index[kb]))
    try:
        region = PlanarEmbedding(coords, edges)
    except ValueError as exc:
        raise RegionError(f"clipped region is not a clean embedding at n={n}: {exc}") from exc
    try:
        dual = compute_dual(region, wire_boundary=True)
    except DualityError as exc:
        raise RegionError(
            f"clipped region is too thin for a wired dual at n={n}: {exc}"
        ) from exc
    points = np.asarray(coords, dtype=float)
    face_distance = np.stack(
        [point_to_polygon_distance(points, poly) for poly in d.face_polygons()], axis=1
    )
    return LatticeRegion(
        kind=kind,
        n=n,
        delta=delta,
        region=region,
        dual=dual,
        boundary_cycle=cycle_pts,
        achieved_hausdorff=achieved,
        drawing=d,
        face_distance=face_distance,
    )


# -- epsilon compatibility -----------------------------------------------------


@dataclass
class CompatibilityResult:
    compatible: bool
    class_max_distance: tuple[float, ...]
    assignment: tuple[int, ...]  # class index -> face index


def epsilon_compatible(
    region: LatticeRegion,
    classes,
    epsilon: float,
    assignment: tuple[int, ...] | None = None,
) -> CompatibilityResult:
    """Check every vertex of each class sits within epsilon of its face.

    Distances are read from the region's face-distance table. Classes are
    matched to faces by the given assignment, or by exhausting assignments
    to minimize the total vertex-to-face distance (k stays small); the first
    minimizing permutation in lexicographic order wins a tie.
    """
    dist = region.face_distance
    k = dist.shape[1]
    classes = [sorted(c) for c in classes]
    if len(classes) != k:
        raise ValueError(f"{len(classes)} classes but drawing has {k} inner faces")
    sums = np.stack(
        [np.asarray([dist[c, f].sum() for f in range(k)]) for c in classes]
    )  # class x face total distance
    if assignment is None:
        assignment = min(
            permutations(range(k)),
            key=lambda perm: sum(sums[i][perm[i]] for i in range(k)),
        )
    maxes = tuple(
        float(dist[classes[i], assignment[i]].max()) for i in range(k)
    )
    return CompatibilityResult(
        compatible=all(mx <= epsilon for mx in maxes),
        class_max_distance=maxes,
        assignment=tuple(assignment),
    )


# -- the compatibility experiment ------------------------------------------------


@dataclass
class CompatibilityExperiment:
    """Per-refinement tallies for the two split-quality events.

    ``successes`` counts trees with a cut whose classes are geometrically
    epsilon-compatible with the drawing; ``splittable_successes`` counts
    trees admitting a (k, epsilon)-approximately balanced split by size.
    The latter is the quantity with the constant-probability signature at
    desk-scale refinements; the geometric event converges from above much
    more slowly (its discrete corridor width is 2*eps + 1/n, not 2*eps).
    """

    kind: str
    n: int
    epsilon: float
    trials: int
    successes: int
    frequency: float
    ci_low: float
    ci_high: float
    splittable_successes: int
    splittable_frequency: float
    splittable_ci_low: float
    splittable_ci_high: float


def _two_face_tree_scan(region, far0, far1, size_lo, size_hi, tree_edges) -> tuple[bool, bool]:
    """Scan all single-edge cuts of one tree for the two events at once.

    Returns (geometrically compatible cut exists, size-window cut exists).
    """
    g = region.region
    n = g.num_vertices
    parent, _, order = root_forest(n, g.edges, tree_edges)
    cnt0 = far0.astype(np.int64).tolist()
    cnt1 = far1.astype(np.int64).tolist()
    size = [1] * n
    for x in reversed(order):
        p = parent[x]
        if p >= 0:
            cnt0[p] += cnt0[x]
            cnt1[p] += cnt1[x]
            size[p] += size[x]
    t0 = cnt0[order[0]]
    t1 = cnt1[order[0]]
    compatible = False
    sized = False
    for x in order[1:]:
        below0, below1 = cnt0[x], cnt1[x]
        if below1 == 0 and t0 - below0 == 0:
            compatible = True  # below -> face 1, rest -> face 0
        elif below0 == 0 and t1 - below1 == 0:
            compatible = True  # below -> face 0, rest -> face 1
        if size_lo <= size[x] <= size_hi:
            sized = True
        if compatible and sized:
            break
    return compatible, sized


def compatibility_experiment(
    kind: str,
    n: int,
    d: PlaneGraphD,
    epsilon: float,
    trials: int,
    seed: int,
    delta: float | None = None,
    region: LatticeRegion | None = None,
) -> CompatibilityExperiment:
    """Frequencies of compatible and approximately balanced cuts over trees.

    Trees are sampled by Wilson on the wired dual. Two events are tallied per
    tree: a cut whose classes are epsilon-compatible with the drawing, and a
    cut whose class sizes all land within (1 +- epsilon) * N/k. For two-face
    drawings the single-cut scans are exhaustive via subtree counts; for more
    faces the compatible search tests approximate-split candidates at the
    ``SIZE_WINDOWS``, so the compatible frequency is then a lower bound.

    A prebuilt ``region`` must be clipped to ``d``.
    """
    if region is None:
        region = build_lattice_region(kind, n, d, delta if delta is not None else 3.0 / n)
    elif region.drawing != d:
        raise ValueError("region was clipped to a different drawing")
    g = region.region
    k = d.num_inner_faces
    far = region.face_distance > epsilon
    nv = g.num_vertices
    size_lo = math.ceil((1 - epsilon) * nv / k - 1e-9)
    size_hi = math.floor((1 + epsilon) * nv / k + 1e-9)
    eps_size = min(max(epsilon, 1e-9), 1.0 - 1e-9)
    sampler = DualWilsonSampler(g, region.dual)
    successes = 0
    sized_successes = 0
    for t in range(trials):
        tree_edges, _ = sampler.sample_edges(RngStream(seed, (t,)))
        if k == 1:
            successes += 1
            sized_successes += 1
            continue
        if k == 2:
            compat, sized = _two_face_tree_scan(
                region, far[:, 0], far[:, 1], size_lo, size_hi, tree_edges
            )
            successes += compat
            sized_successes += sized
            continue
        tree = SpanningTree(g, tree_edges, validate=False)
        sized = find_approx_split(tree, k, eps_size)
        sized_successes += sized is not None
        for win in SIZE_WINDOWS:
            split = sized if win == eps_size else find_approx_split(tree, k, win)
            if split is None:
                continue
            classes = forest_classes(g, tree.edges - split.cut_edges)
            if epsilon_compatible(region, classes, epsilon).compatible:
                successes += 1
                break
    lo, hi = wilson_score_interval(successes, trials)
    slo, shi = wilson_score_interval(sized_successes, trials)
    return CompatibilityExperiment(
        kind=kind,
        n=n,
        epsilon=epsilon,
        trials=trials,
        successes=successes,
        frequency=successes / trials,
        ci_low=lo,
        ci_high=hi,
        splittable_successes=sized_successes,
        splittable_frequency=sized_successes / trials,
        splittable_ci_low=slo,
        splittable_ci_high=shi,
    )
