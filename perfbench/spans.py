"""Span tracing at treesplit's module boundaries, from outside the package.

``install`` replaces selected public functions and methods of treesplit with
wrappers that record one span per call: name, start, end, parent span and
one number taken from the call (steps walked, draws made, split found).
Spans stay in memory until ``save``. Nothing in ``src/`` knows about this.

A span's layer is the part of its name before the dot, which is the module
the wrapped function lives in. A layer's self time is the time its spans
cover minus the time covered by their child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# span name, module, attribute path, value recorded from (args, result)
WRAPS = (
    ("rng.stream", "treesplit.rng", "RngStream.__init__", None),
    ("rng.block", "treesplit.rng", "RngStream.block", lambda a, r: len(r)),
    ("rng.rand_below", "treesplit.rng", "RngStream.rand_below", None),
    ("walks.tree", "treesplit.walks", "WilsonSampler.sample_edges", lambda a, r: r[1]),
    ("experiments.heatmap", "treesplit.experiments", "heatmap_run",
     lambda a, r: r.trials * len(r.rows)),
    ("experiments.sample_tree", "treesplit.experiments", "GridSplitCounter.sample_tree", None),
    ("experiments.subtree", "treesplit.experiments", "GridSplitCounter.subtree_sizes", None),
    ("experiments.score", "treesplit.experiments", "GridSplitCounter.below_size", None),
    ("experiments.score", "treesplit.experiments", "GridSplitCounter.is_two_splittable", None),
    ("planar.build", "treesplit.planar", "build_grid", None),
    ("planar.build", "treesplit.planar", "compute_dual", None),
    ("planar.spanning_tree", "treesplit.planar", "SpanningTree.__init__", None),
    ("planar.tree_count", "treesplit.planar", "count_spanning_trees", None),
    ("planar.partition", "treesplit.planar", "Partition.__init__", None),
    ("planar.partition_from_cut", "treesplit.planar", "Partition.from_tree_cut", None),
    ("splitting.balanced_split", "treesplit.splitting", "find_balanced_split",
     lambda a, r: r is not None),
    ("splitting.approx_split", "treesplit.splitting", "find_approx_split",
     lambda a, r: r is not None),
    ("splitting.min_imbalance", "treesplit.splitting", "find_min_imbalance_split", None),
    ("samplers.perfect", "treesplit.samplers", "perfect_balanced_sample",
     lambda a, r: r[1].rounds_attempted),
    ("samplers.start_forest", "treesplit.samplers", "initial_forest", None),
    ("samplers.updown_run", "treesplit.samplers", "UpDownWalker.run", lambda a, r: a[1]),
    ("samplers.snapshot", "treesplit.samplers", "UpDownWalker.snapshot",
     lambda a, r: r.is_balanced()),
    ("dynforest.path", "treesplit.dynforest", "LinkCutForest.path_or_none",
     lambda a, r: -1 if r is None else len(r)),
    ("dynforest.link", "treesplit.dynforest", "LinkCutForest.link", None),
    ("dynforest.cut", "treesplit.dynforest", "LinkCutForest.cut", None),
    ("dynforest.cut", "treesplit.dynforest", "LinkCutForest.cut_edge_node", None),
    ("dynforest.path", "treesplit.dynforest", "NaiveForest.path_or_none",
     lambda a, r: -1 if r is None else len(r)),
    ("dynforest.link", "treesplit.dynforest", "NaiveForest.link", None),
    ("dynforest.cut", "treesplit.dynforest", "NaiveForest.cut", None),
    ("dynforest.cut", "treesplit.dynforest", "NaiveForest.cut_edge_node", None),
    ("lattice.region", "treesplit.lattice", "build_lattice_region", None),
    ("lattice.experiment", "treesplit.lattice", "compatibility_experiment", None),
    ("lattice.compat_check", "treesplit.lattice", "epsilon_compatible", None),
)

LAYERS = ("rng", "walks", "experiments", "planar", "splitting", "samplers",
          "dynforest", "lattice")

SETUP, TIMED = 0, 1


class Tracer:
    """In-memory span store; recording is on only while ``phase`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.phase_of = array("b")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack: list[int] = []
        self.phase: int | None = None
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, value=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        tr = self

        def traced(*args, **kwargs):
            if tr.phase is None:
                return fn(*args, **kwargs)
            sid = len(tr.start)
            stack = tr._stack
            tr.name.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.phase_of.append(tr.phase)
            tr.end.append(0.0)
            tr.value.append(0.0)
            stack.append(sid)
            tr.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[sid] = clock()
                stack.pop()
            if value is not None:
                tr.value[sid] = value(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in WRAPS; a target that no longer exists is missing."""
        for name, module, path, value in WRAPS:
            try:
                mod = importlib.import_module(module)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                raw = owner.__dict__[attr] if owner_name else getattr(mod, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{path}")
                self._name_id(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, value)))
            elif owner_name:
                setattr(owner, attr, self.wrap(name, raw, value))
            else:
                # rebind the name in every treesplit module that imported it
                wrapped = self.wrap(name, raw, value)
                for mname, m in list(sys.modules.items()):
                    if (mname == "treesplit" or mname.startswith("treesplit.")) and \
                            getattr(m, attr, None) is raw:
                        setattr(m, attr, wrapped)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "phase": np.frombuffer(self.phase_of, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


class SpanTable:
    """Aggregates over recorded spans, per span name and phase."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        name, parent, phase = a["name"], a["parent"], a["phase"]
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        # a span nested in one of the same name (a method delegating to a
        # wrapped sibling) is not a separate call
        outer = np.ones(len(name), dtype=bool)
        outer[has_parent] = name[parent[has_parent]] != name[has_parent]
        self._name, self._phase, self._dur = name, phase, dur
        self._self, self._value, self._outer = self_time, a["value"], outer

    def _mask(self, span: str, phase: int) -> np.ndarray:
        nid = self.names.index(span)
        return (self._name == nid) & (self._phase == phase) & self._outer

    def count(self, span: str, phase: int = TIMED) -> int:
        return int(self._mask(span, phase).sum())

    def total(self, span: str, phase: int = TIMED) -> float:
        return float(self._dur[self._mask(span, phase)].sum())

    def mean(self, span: str, phase: int = TIMED) -> float:
        m = self._mask(span, phase)
        return float(self._dur[m].mean()) if m.any() else 0.0

    def values(self, span: str, phase: int = TIMED) -> np.ndarray:
        return self._value[self._mask(span, phase)]

    def value_sum(self, span: str, phase: int = TIMED) -> float:
        return float(self.values(span, phase).sum())

    def layer_self(self, layer: str, phase: int = TIMED) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
        m = np.isin(self._name, ids) & (self._phase == phase)
        return float(self._self[m].sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


US = 1e6

# metric name -> (unit, better, spans it reads, function of (SpanTable, ops))
PER_LAYER = {
    "rng.streams_per_op": ("count", "lower", ("rng.stream",),
                           lambda t, ops: t.count("rng.stream") / ops),
    "rng.stream_us": ("us", "lower", ("rng.stream",),
                      lambda t, ops: t.mean("rng.stream") * US),
    "rng.block_us": ("us", "lower", ("rng.block",),
                     lambda t, ops: t.mean("rng.block") * US),
    "rng.draws_made_per_op": (
        "count", "lower", ("rng.block", "rng.rand_below"),
        lambda t, ops: (t.value_sum("rng.block") + t.count("rng.rand_below")) / ops),
    "rng.draws_used_per_op": (
        "count", "lower", ("walks.tree", "samplers.updown_run", "rng.rand_below"),
        lambda t, ops: (t.value_sum("walks.tree") + 2 * t.value_sum("samplers.updown_run")
                        + t.count("rng.rand_below")) / ops),
    "walks.trees_per_op": ("count", "lower", ("walks.tree",),
                           lambda t, ops: t.count("walks.tree") / ops),
    "walks.steps_per_tree": (
        "count", "lower", ("walks.tree",),
        lambda t, ops: _ratio(t.value_sum("walks.tree"), t.count("walks.tree"))),
    "walks.tree_us": ("us", "lower", ("walks.tree",),
                      lambda t, ops: t.mean("walks.tree") * US),
    "experiments.trees_per_class_trial": (
        "count", "lower", ("walks.tree", "experiments.heatmap"),
        lambda t, ops: _ratio(t.count("walks.tree"), t.value_sum("experiments.heatmap"))),
    "experiments.subtree_us": ("us", "lower", ("experiments.subtree",),
                               lambda t, ops: t.mean("experiments.subtree") * US),
    "planar.tree_counts_per_op": ("count", "lower", ("planar.tree_count",),
                                  lambda t, ops: t.count("planar.tree_count") / ops),
    "planar.tree_count_us": ("us", "lower", ("planar.tree_count",),
                             lambda t, ops: t.mean("planar.tree_count") * US),
    "planar.partition_us": ("us", "lower", ("planar.partition",),
                            lambda t, ops: t.mean("planar.partition") * US),
    "splitting.balanced_split_us": (
        "us", "lower", ("splitting.balanced_split",),
        lambda t, ops: t.mean("splitting.balanced_split") * US),
    "splitting.splittable_ratio": (
        "ratio", "higher", ("splitting.balanced_split", "splitting.approx_split"),
        lambda t, ops: _ratio(
            t.value_sum("splitting.balanced_split") + t.value_sum("splitting.approx_split"),
            t.count("splitting.balanced_split") + t.count("splitting.approx_split"))),
    "splitting.approx_calls_per_op": (
        "count", "lower", ("splitting.approx_split",),
        lambda t, ops: t.count("splitting.approx_split") / ops),
    "splitting.approx_split_us": ("us", "lower", ("splitting.approx_split",),
                                  lambda t, ops: t.mean("splitting.approx_split") * US),
    "splitting.min_imbalance_s": (
        "s", "lower", ("splitting.min_imbalance",),
        lambda t, ops: t.total("splitting.min_imbalance", SETUP)),
    "samplers.rounds_per_sample": (
        "count", "lower", ("samplers.perfect", "samplers.snapshot"),
        lambda t, ops: _rounds(t) / max(1, _accepted(t))),
    "samplers.accept_ratio": (
        "ratio", "higher", ("samplers.perfect", "samplers.snapshot"),
        lambda t, ops: _ratio(_accepted(t), _rounds(t))),
    "samplers.start_forest_s": (
        "s", "lower", ("samplers.start_forest",),
        lambda t, ops: t.total("samplers.start_forest", SETUP)),
    "dynforest.path_us": ("us", "lower", ("dynforest.path",),
                          lambda t, ops: t.mean("dynforest.path") * US),
    "dynforest.path_len": ("count", "lower", ("dynforest.path",),
                           lambda t, ops: _cycle_len(t)),
    "dynforest.link_us": ("us", "lower", ("dynforest.link",),
                          lambda t, ops: t.mean("dynforest.link") * US),
    "dynforest.cut_us": ("us", "lower", ("dynforest.cut",),
                         lambda t, ops: t.mean("dynforest.cut") * US),
    "lattice.region_s": ("s", "lower", ("lattice.region",),
                         lambda t, ops: t.total("lattice.region", SETUP)),
    "lattice.compat_checks_per_op": (
        "count", "lower", ("lattice.compat_check",),
        lambda t, ops: t.count("lattice.compat_check") / ops),
    "lattice.compat_check_us": ("us", "lower", ("lattice.compat_check",),
                                lambda t, ops: t.mean("lattice.compat_check") * US),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_us_per_op"] = (
        "us", "lower", (),
        lambda t, ops, _layer=_layer: t.layer_self(_layer) / ops * US)


def _rounds(t: SpanTable) -> float:
    """Perfect-sampler rounds plus up-down mixing rounds (one snapshot each)."""
    return t.value_sum("samplers.perfect") + t.count("samplers.snapshot")


def _accepted(t: SpanTable) -> float:
    return t.count("samplers.perfect") + t.value_sum("samplers.snapshot")


def _cycle_len(t: SpanTable) -> float:
    """Mean path length of the path queries that found a cycle (value >= 0)."""
    v = t.values("dynforest.path")
    v = v[v >= 0]
    return float(v.mean()) if len(v) else 0.0


def per_layer_metrics(tracer: Tracer, ops: int) -> tuple[dict, list[str]]:
    """Every per-layer metric, and the ones whose wrapped function is gone.

    A missing metric reads 0, so the run still reports the full set.
    """
    table = SpanTable(tracer)
    found = {name for name, module, path, _ in WRAPS
             if f"{module}.{path}" not in tracer.missing}
    gone = {name for name, *_ in WRAPS} - found
    out = {}
    missing = []
    for metric, (unit, _, spans, fn) in sorted(PER_LAYER.items()):
        if gone.intersection(spans):
            missing.append(metric)
            value = 0.0
        else:
            value = fn(table, ops)
        out[metric] = {"value": value, "unit": unit}
    return out, missing
