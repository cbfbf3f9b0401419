"""Dynamic forests: link-cut trees plus a naive oracle with the same API.

The link-cut structure is array-based (flat parent/child/flip arrays indexed
by node id) because the up-down walk hammers it millions of times per run.
Edges are materialized as their own path nodes, so parallel candidate edges
keep distinct identities and path extraction yields edge ids directly.
"""

from __future__ import annotations


class LinkError(ValueError):
    """link() endpoints were already connected."""


class CutError(ValueError):
    """cut() edge is not present in the forest."""


class LinkCutForest:
    """Splay-based link-cut trees over a fixed vertex set.

    Nodes 0..num_vertices-1 are vertices; edge nodes are allocated on link
    and recycled on cut. Supports link, cut, connectivity, and ordered path
    extraction in amortized logarithmic time.
    """

    def __init__(self, num_vertices: int):
        self.num_vertices = num_vertices
        n = num_vertices
        self._p = [-1] * n
        self._l = [-1] * n
        self._r = [-1] * n
        self._flip = bytearray(n)
        self._payload: list[int | None] = [None] * n  # edge id at edge nodes
        self._free: list[int] = []
        self._edge_at: dict[tuple[int, int], int] = {}

    # -- splay machinery -----------------------------------------------------

    def _push(self, x: int) -> None:
        if self._flip[x]:
            l, r = self._l, self._r
            l[x], r[x] = r[x], l[x]
            flip = self._flip
            a, b = l[x], r[x]
            if a >= 0:
                flip[a] ^= 1
            if b >= 0:
                flip[b] ^= 1
            flip[x] = 0

    def _is_splay_root(self, x: int) -> bool:
        px = self._p[x]
        return px < 0 or (self._l[px] != x and self._r[px] != x)

    def _rotate(self, x: int) -> None:
        p, l, r = self._p, self._l, self._r
        px = p[x]
        g = p[px]
        if l[px] == x:
            b = r[x]
            l[px] = b
            if b >= 0:
                p[b] = px
            r[x] = px
        else:
            b = l[x]
            r[px] = b
            if b >= 0:
                p[b] = px
            l[x] = px
        p[px] = x
        p[x] = g
        if g >= 0:
            if l[g] == px:
                l[g] = x
            elif r[g] == px:
                r[g] = x

    def _splay(self, x: int) -> None:
        p, l, r = self._p, self._l, self._r
        path = [x]
        y = x
        while True:
            py = p[y]
            if py < 0 or (l[py] != y and r[py] != y):
                break
            y = py
            path.append(y)
        flip = self._flip
        for nd in reversed(path):
            if flip[nd]:
                self._push(nd)
        while True:
            px = p[x]
            if px < 0 or (l[px] != x and r[px] != x):
                break
            g = p[px]
            if g >= 0 and (l[g] == px or r[g] == px):
                if (l[g] == px) == (l[px] == x):
                    self._rotate(px)
                else:
                    self._rotate(x)
            self._rotate(x)

    def _access(self, x: int) -> None:
        self._splay(x)
        if self._r[x] >= 0:
            self._r[x] = -1  # detached child keeps x as path-parent
        p = self._p
        while p[x] >= 0:
            z = p[x]
            self._splay(z)
            self._r[z] = x  # old preferred child of z keeps z as path-parent
            self._splay(x)

    def _make_root(self, x: int) -> None:
        self._access(x)
        self._flip[x] ^= 1
        self._push(x)

    def _find_root(self, x: int) -> int:
        self._access(x)
        l = self._l
        while True:
            self._push(x)
            nxt = l[x]
            if nxt < 0:
                break
            x = nxt
        self._splay(x)
        return x

    def _alloc_edge_node(self, edge: int | None) -> int:
        if self._free:
            en = self._free.pop()
            self._payload[en] = edge
            return en
        en = len(self._p)
        self._p.append(-1)
        self._l.append(-1)
        self._r.append(-1)
        self._flip.append(0)
        self._payload.append(edge)
        return en

    # -- public API ------------------------------------------------------------

    @staticmethod
    def _key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def connected(self, u: int, v: int) -> bool:
        if u == v:
            return True
        return self._find_root(u) == self._find_root(v)

    def link(self, u: int, v: int, edge: int | None = None) -> None:
        if self.connected(u, v):
            raise LinkError(f"vertices {u} and {v} are already connected")
        en = self._alloc_edge_node(edge)
        self._make_root(u)
        self._p[u] = en
        self._make_root(v)
        self._p[v] = en
        self._edge_at[self._key(u, v)] = en

    def _cut_node(self, en: int) -> int | None:
        """Delete edge node ``en``; both its neighbors must lie on preferred paths.

        An edge node has exactly two represented neighbors, so after a splay
        within a preferred path containing all three, detaching both splay
        children splits the tree correctly.
        """
        self._splay(en)
        a, b = self._l[en], self._r[en]
        assert a >= 0 and b >= 0, "edge node must sit between its endpoints"
        self._p[a] = -1
        self._p[b] = -1
        self._l[en] = -1
        self._r[en] = -1
        edge = self._payload[en]
        self._payload[en] = None
        self._free.append(en)
        return edge

    def cut(self, u: int, v: int) -> int | None:
        en = self._edge_at.pop(self._key(u, v), None)
        if en is None:
            raise CutError(f"no forest edge between {u} and {v}")
        self._make_root(u)
        self._access(v)  # preferred path is now exactly u, en, v
        return self._cut_node(en)

    def _path_nodes(self, u: int, v: int) -> list[int] | None:
        """In-order node ids along the u-v path, or None if disconnected."""
        self._make_root(u)
        self._access(v)
        x = v
        l = self._l
        while True:
            self._push(x)
            nxt = l[x]
            if nxt < 0:
                break
            x = nxt
        self._splay(x)
        if x != u:
            return None
        items: list[int] = []
        todo: list[int] = []
        node = x
        r = self._r
        while todo or node >= 0:
            if node >= 0:
                self._push(node)
                todo.append(node)
                node = l[node]
            else:
                node = todo.pop()
                items.append(node)
                node = r[node]
        return items

    def path_edges(self, u: int, v: int) -> list[tuple[int, int, int | None]]:
        """Edges along the u-v path in order as (x, y, edge id) triples."""
        if u == v:
            return []
        items = self._path_nodes(u, v)
        if items is None:
            raise CutError(f"vertices {u} and {v} are not connected")
        n = self.num_vertices
        payload = self._payload
        return [
            (items[i - 1], items[i + 1], payload[items[i]])
            for i in range(1, len(items) - 1)
            if items[i] >= n
        ]

    def path_or_none(self, u: int, v: int) -> list[tuple[int, int, int]] | None:
        """Fused connectivity plus path query for the up-down hot loop.

        Returns (endpoint, endpoint, edge node id) triples, or None when the
        endpoints are in different trees.
        """
        if u == v:
            return []
        items = self._path_nodes(u, v)
        if items is None:
            return None
        n = self.num_vertices
        return [
            (items[i - 1], items[i + 1], items[i])
            for i in range(1, len(items) - 1)
            if items[i] >= n
        ]


class NaiveForest:
    """Adjacency-set forest answering the same queries by traversal."""

    def __init__(self, num_vertices: int):
        self.num_vertices = num_vertices
        self.adj: list[dict[int, int | None]] = [dict() for _ in range(num_vertices)]

    def connected(self, u: int, v: int) -> bool:
        if u == v:
            return True
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for w in self.adj[x]:
                if w == v:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def link(self, u: int, v: int, edge: int | None = None) -> None:
        if self.connected(u, v):
            raise LinkError(f"vertices {u} and {v} are already connected")
        self.adj[u][v] = edge
        self.adj[v][u] = edge

    def cut(self, u: int, v: int) -> int | None:
        if v not in self.adj[u]:
            raise CutError(f"no forest edge between {u} and {v}")
        edge = self.adj[u].pop(v)
        self.adj[v].pop(u)
        return edge

    def path_edges(self, u: int, v: int) -> list[tuple[int, int, int | None]]:
        if u == v:
            return []
        parent: dict[int, int] = {u: u}
        stack = [u]
        while stack and v not in parent:
            x = stack.pop()
            for w in self.adj[x]:
                if w not in parent:
                    parent[w] = x
                    stack.append(w)
        if v not in parent:
            raise CutError(f"vertices {u} and {v} are not connected")
        rev = []
        x = v
        while x != u:
            rev.append((parent[x], x, self.adj[x][parent[x]]))
            x = parent[x]
        return rev[::-1]

    def path_or_none(self, u: int, v: int):
        """Match the fused link-cut query: triples carry the edge id directly."""
        if u == v:
            return []
        try:
            return self.path_edges(u, v)
        except CutError:
            return None
