"""Exact, approximate, and minimum-imbalance k-splits of a tree.

The exact splitter is a single greedy depth-first peel. The approximate and
minimum-imbalance searches run a pseudopolynomial dynamic program over
(components-completed, residual-subtree-size) states, with residual sets
packed into integer bitmasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .planar import SpanningTree, root_forest, subtree_sizes


@dataclass(frozen=True)
class SplitResult:
    cut_edges: frozenset[int]
    component_sizes: tuple[int, ...]

    @property
    def imbalance(self) -> int:
        return max(self.component_sizes) - min(self.component_sizes)


def component_sizes(t: SpanningTree, cut_edges) -> tuple[int, ...]:
    """Component orders of the forest t minus the cut, length |cut|+1."""
    cut = frozenset(int(e) for e in cut_edges)
    extra = cut - t.edges
    if extra:
        raise ValueError(f"edges {sorted(extra)} are not in the tree")
    parent, _, order = root_forest(t.host.num_vertices, t.host.edges, t.edges - cut)
    size = subtree_sizes(parent, order)
    sizes = tuple(size[x] for x in order if parent[x] < 0)
    assert len(sizes) == len(cut) + 1
    return sizes


def find_balanced_split(t: SpanningTree, k: int) -> SplitResult | None:
    """The unique balanced k-split of the tree, or None.

    Peels subtrees in one depth-first pass: every edge whose peeled subtree
    size reaches exactly N/k is cut. The tree is balanced-splittable iff this
    produces exactly k-1 cuts with quota left at the root.
    """
    n = t.host.num_vertices
    if k < 1:
        raise ValueError("k must be at least 1")
    if n % k != 0:
        raise ValueError(f"k={k} does not divide the vertex count {n}")
    quota = n // k
    if k == 1:
        return SplitResult(frozenset(), (n,))
    parent, parent_e, order = root_forest(n, t.host.edges, t.edges)
    root = order[0]
    residual = [1] * n
    cuts = []
    for x in reversed(order):
        p = parent[x]
        if p < 0:
            continue
        if residual[x] == quota:
            cuts.append(parent_e[x])
        else:
            residual[p] += residual[x]
    if len(cuts) == k - 1 and residual[root] == quota:
        return SplitResult(frozenset(cuts), (quota,) * k)
    return None


# -- windowed tree DP ---------------------------------------------------------


class _WindowDP:
    """Feasibility of cutting a rooted tree into components sized in [lo, hi].

    States per vertex: cuts-used -> bitmask of achievable residual sizes.
    Intermediate per-child tables are kept for witness reconstruction.
    """

    def __init__(self, t: SpanningTree, lo: int, hi: int, max_cuts: int,
                 forced: frozenset[int] = frozenset()):
        self.hi = hi
        self.max_cuts = max_cuts
        n = t.host.num_vertices
        self.window_mask = ((1 << (hi + 1)) - 1) ^ ((1 << lo) - 1) if hi >= lo else 0
        # forced cuts split the tree into sub-root components
        parent, parent_e, self.order = root_forest(n, t.host.edges, t.edges - forced)
        self.roots = [x for x in self.order if parent[x] < 0]
        self.children: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for x in self.order:
            if parent[x] >= 0:
                self.children[parent[x]].append((parent_e[x], x))
        self.dp: list[dict[int, int]] = [dict() for _ in range(n)]
        self.trail: list[list[dict[int, int]]] = [[] for _ in range(n)]
        self._run()

    def _run(self) -> None:
        hi = self.hi
        cap = (1 << (hi + 1)) - 1
        for x in reversed(self.order):
            state = {0: 2}  # residual 1, no cuts
            trail = [dict(state)]
            for e, c in self.children[x]:
                child = self.dp[c]
                new: dict[int, int] = {}
                for cu, mask in state.items():
                    for cc, cmask in child.items():
                        keep = cu + cc
                        if keep <= self.max_cuts:
                            acc = 0
                            m = cmask
                            while m:
                                low = m & -m
                                r = low.bit_length() - 1
                                m ^= low
                                acc |= mask << r
                            acc &= cap
                            if acc:
                                new[keep] = new.get(keep, 0) | acc
                        if cc + 1 + cu <= self.max_cuts and cmask & self.window_mask:
                            cut = cu + cc + 1
                            new[cut] = new.get(cut, 0) | mask
                state = new
                trail.append(dict(state))
            self.dp[x] = state
            self.trail[x] = trail

    def feasible_counts(self, root: int) -> dict[int, bool]:
        """cuts-used -> whether the root component can land in the window."""
        return {
            cu: bool(mask & self.window_mask)
            for cu, mask in self.dp[root].items()
        }

    def extract(self, root: int, cuts: int) -> frozenset[int] | None:
        """Deterministic witness with ``cuts`` cuts under this root."""
        mask = self.dp[root].get(cuts, 0) & self.window_mask
        if not mask:
            return None
        r = (mask & -mask).bit_length() - 1
        out: set[int] = set()
        self._walk(root, cuts, r, out)
        return frozenset(out)

    def _walk(self, x: int, cuts: int, residual: int, out: set[int]) -> None:
        # undo the child merges right-to-left, preferring low edge ids cut
        kids = self.children[x]
        trail = self.trail[x]
        cu, r = cuts, residual
        for idx in range(len(kids) - 1, -1, -1):
            e, c = kids[idx]
            prev = trail[idx]
            child = self.dp[c]
            found = None
            # try the cut option first so smaller edge ids tend to be chosen
            for cc in sorted(child):
                if cc + 1 <= cu and child[cc] & self.window_mask:
                    if prev.get(cu - cc - 1, 0) >> r & 1:
                        found = ("cut", cc, None)
                        break
            if found is None:
                for cc in sorted(child):
                    if cc > cu:
                        continue
                    pmask = prev.get(cu - cc, 0)
                    m = child[cc]
                    while m:
                        low = m & -m
                        rc = low.bit_length() - 1
                        m ^= low
                        if rc <= r and pmask >> (r - rc) & 1:
                            found = ("keep", cc, rc)
                            break
                    if found:
                        break
            assert found is not None, "witness reconstruction lost the trail"
            kind, cc, rc = found
            if kind == "cut":
                out.add(e)
                cmask = child[cc] & self.window_mask
                r_child = (cmask & -cmask).bit_length() - 1
                self._walk(c, cc, r_child, out)
                cu -= cc + 1
            else:
                self._walk(c, cc, rc, out)
                cu -= cc
                r -= rc
        assert cu == 0 and r == 1


def _window_bounds(n: int, k: int, epsilon: float) -> tuple[int, int]:
    target = n / k
    lo = math.ceil((1 - epsilon) * target - 1e-9)
    hi = math.floor((1 + epsilon) * target + 1e-9)
    return max(lo, 1), min(hi, n)


def find_approx_split(t: SpanningTree, k: int, epsilon: float) -> SplitResult | None:
    """Any k-split with all component sizes within (1 +- epsilon) * N/k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not (0 < epsilon < 1):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    n = t.host.num_vertices
    if k > n:
        return None
    lo, hi = _window_bounds(n, k, epsilon)
    if lo > hi:
        return None
    dp = _WindowDP(t, lo, hi, k - 1)
    root = dp.roots[0]
    if not dp.feasible_counts(root).get(k - 1, False):
        return None
    cut = dp.extract(root, k - 1)
    assert cut is not None
    return SplitResult(cut, component_sizes(t, cut))


def _window_feasible(t: SpanningTree, k: int, lo: int, hi: int,
                     forced: frozenset[int]) -> bool:
    dp = _WindowDP(t, lo, hi, k - 1, forced)
    budget = k - 1 - len(forced)
    # subset-sum of per-subtree feasible cut counts
    reachable = 1  # bitmask over total extra cuts
    for root in dp.roots:
        counts = dp.feasible_counts(root)
        acc = 0
        for cu, ok in counts.items():
            if ok and cu <= budget:
                acc |= reachable << cu
        reachable = acc & ((1 << (budget + 1)) - 1)
        if not reachable:
            return False
    return bool(reachable >> budget & 1)


def _delta_windows(n: int, k: int, delta: int):
    lo_min = max(1, -(-(n - k * delta) // k))
    for lo in range(lo_min, n // k + 1):
        yield lo, lo + delta


def find_min_imbalance_split(t: SpanningTree, k: int) -> SplitResult:
    """A (k-1)-edge cut minimizing max minus min component size.

    Ties are broken toward the lexicographically smallest sorted edge-id
    set, found by greedy feasibility checks edge by edge.
    """
    n = t.host.num_vertices
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if k == 1:
        return SplitResult(frozenset(), (n,))
    best_delta = None
    for delta in range(n):
        if any(
            _window_feasible(t, k, lo, hi, frozenset())
            for lo, hi in _delta_windows(n, k, delta)
        ):
            best_delta = delta
            break
    assert best_delta is not None, "a tree always splits into k <= N parts"

    def feasible_with(forced: frozenset[int]) -> bool:
        return any(
            _window_feasible(t, k, lo, hi, forced)
            for lo, hi in _delta_windows(n, k, best_delta)
        )

    forced: set[int] = set()
    tree_edges = sorted(t.edges)
    for _ in range(k - 1):
        for e in tree_edges:
            if e in forced:
                continue
            if feasible_with(frozenset(forced | {e})):
                forced.add(e)
                break
        else:
            raise AssertionError("greedy lexicographic completion failed")
    sizes = component_sizes(t, forced)
    result = SplitResult(frozenset(forced), sizes)
    assert result.imbalance == best_delta, "witness must realize the minimum"
    return result
