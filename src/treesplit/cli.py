"""Command-line front end: experiments, bounds, and partition sampling.

Every CSV output gets a sibling ``<out>.meta.json`` echoing the full parsed
configuration and the library version. Streams are byte-identical for a
fixed seed regardless of worker count, because trials are keyed by index.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .bounds import compute_bounds
from .experiments import (
    central_vertical_class,
    default_workers,
    heatmap_run,
    histogram_run,
    vertical_edge_classes,
    walk_bound_run,
    wilson_scaling,
)
from .lattice import compatibility_experiment, plane_graph_from_json, vertical_strips
from .planar import build_grid
from .rng import RngStream
from .samplers import (
    SamplerExhaustedError,
    approx_balanced_sample,
    partition_json_dict,
    perfect_balanced_sample,
)
from .stats import wilson_score_interval


def _write_metadata(out_path: str, command: str, config: dict) -> None:
    doc = {"command": command, "version": __version__, "config": config}
    with open(out_path + ".meta.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


# -- SVG heatmap -----------------------------------------------------------------

_COLOR_STOPS = (
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
)


def _colormap(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(_COLOR_STOPS) - 1)
    i = min(int(pos), len(_COLOR_STOPS) - 2)
    frac = pos - i
    c0, c1 = _COLOR_STOPS[i], _COLOR_STOPS[i + 1]
    rgb = tuple(round(a + frac * (b - a)) for a, b in zip(c0, c1))
    return "#%02x%02x%02x" % rgb


def render_heatmap_svg(result, path: str, cell: int = 24) -> None:
    """Grid of vertical-edge pixels, every orbit member painted its class value."""
    m, n = result.m, result.n
    value = {}
    for cls, row in zip(result.classes, result.rows):
        freq = row.successes / row.trials
        for member in cls.members:
            value[member] = freq
    positives = [v for v in value.values() if v > 0]
    floor = min(positives) if positives else 1e-9
    top = max(positives) if positives else 1.0
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{m * cell + 80}" height="{(n - 1) * cell + 40}">',
        f'<text x="10" y="20" font-size="13">balanced-split frequency, '
        f"{m}x{n} grid, {result.trials} trials per class</text>",
    ]
    for (i, j), v in sorted(value.items()):
        if top > floor and v > 0:
            t = (math.log(v) - math.log(floor)) / (math.log(top) - math.log(floor))
        else:
            t = 0.0
        x = (i - 1) * cell + 10
        y = (n - 1 - j) * cell + 30
        lines.append(
            f'<rect x="{x}" y="{y}" width="{cell - 1}" height="{cell - 1}" '
            f'fill="{_colormap(t)}"><title>edge ({i},{j}): {v:.3e}</title></rect>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- subcommands -------------------------------------------------------------------


def cmd_heatmap(args) -> int:
    m, n, trials = args.m, args.n, args.trials
    workers = args.workers
    classes = vertical_edge_classes(m, n)
    result = heatmap_run(m, n, trials, args.seed, workers=workers, classes=classes)
    rows = []
    for cls, row in zip(classes, result.rows):
        lo, hi = wilson_score_interval(row.successes, row.trials)
        rows.append([cls.col, cls.row, "v", row.successes, row.trials,
                     f"{lo:.8f}", f"{hi:.8f}"])
    _write_csv(args.out, ["col", "row", "orientation", "successes", "trials",
                          "ci_lo", "ci_hi"], rows)
    config = vars(args).copy()
    config.pop("func")
    config["splittable_frequency"] = result.splittable_frequency()
    _write_metadata(args.out, "heatmap", config)
    if args.svg_out:
        render_heatmap_svg(result, args.svg_out)
    print(f"heatmap: {len(classes)} classes x {trials} trials -> {args.out}")
    print(f"overall 2-splittable frequency: {result.splittable_frequency():.6f}")
    return 0


def _parse_edge(text: str, m: int, n: int) -> tuple[int, int]:
    if text == "central":
        return central_vertical_class(m, n).members[0]
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 2:
        raise ValueError("--edge expects 'central' or 'i,j' (1-based, vertical)")
    return parts[0], parts[1]


def cmd_histogram(args) -> int:
    edge = _parse_edge(args.edge, args.m, args.n)
    result = histogram_run(args.m, args.n, edge, args.trials, args.seed,
                           workers=args.workers)
    rows = [
        [lo, hi, count, args.trials] for lo, hi, count in result.bins(args.bin_size)
    ]
    _write_csv(args.out, ["size_lo", "size_hi", "count", "trials"], rows)
    config = vars(args).copy()
    config.pop("func")
    config["edge_resolved"] = list(edge)
    config["total_mass"] = result.total_mass()
    _write_metadata(args.out, "histogram", config)
    print(
        f"histogram: edge {edge} on {args.m}x{args.n}, mass "
        f"{result.total_mass():.4f} of 1 -> {args.out}"
    )
    return 0


def cmd_bounds(args) -> int:
    table = compute_bounds(args.m, args.n, args.k)
    print(table.format())
    if args.out:
        rows = [
            [r.name, r.symbolic, f"{r.as_float():.12e}", r.description]
            for r in table.rows
        ]
        _write_csv(args.out, ["name", "symbolic", "beta1_value", "description"], rows)
        config = vars(args).copy()
        config.pop("func")
        _write_metadata(args.out, "bounds", config)
    return 0


def cmd_sample(args) -> int:
    g = build_grid(args.m, args.n)
    sink = open(args.out, "w") if args.out else sys.stdout
    total_report = None
    try:
        for i in range(args.count):
            rng = RngStream(args.seed, (i,))
            try:
                if args.mode == "exact":
                    partition, report = perfect_balanced_sample(
                        g, args.k, rng, max_rounds=args.round_cap
                    )
                else:
                    partition, report = approx_balanced_sample(
                        g,
                        args.k,
                        rng,
                        mixing_multiplier=args.mixing_multiplier,
                        max_rounds=args.round_cap,
                    )
            except SamplerExhaustedError as exc:
                print(f"sample {i}: {exc}", file=sys.stderr)
                return 1
            doc = partition_json_dict(
                partition, m=args.m, n=args.n, seed=report.seed,
                rounds=report.rounds_attempted,
            )
            sink.write(json.dumps(doc, sort_keys=True) + "\n")
            total_report = report if total_report is None else total_report.merge(report)
        footer = {"report": total_report.to_dict(include_timing=False)}
        footer["report"]["seed"] = [args.seed]
        sink.write(json.dumps(footer, sort_keys=True) + "\n")
    finally:
        if args.out:
            sink.close()
    if args.out:
        config = vars(args).copy()
        config.pop("func")
        config["wall_clock"] = total_report.wall_clock if total_report else 0.0
        _write_metadata(args.out, "sample", config)
    if total_report is not None:
        splittable_rounds = total_report.rounds_attempted - total_report.rejections.get(
            "not_splittable", 0
        )
        print(
            f"sampled {args.count} partitions in {total_report.rounds_attempted} rounds "
            f"(splittable-round fraction "
            f"{splittable_rounds / max(1, total_report.rounds_attempted):.6f})",
            file=sys.stderr,
        )
    return 0


def cmd_walk_bounds(args) -> int:
    runs = []
    if args.geometry in ("exit-not-below", "all"):
        runs.append(
            walk_bound_run(
                "exit-not-below",
                {"m": args.m, "n": args.n, "i0": args.i0, "j0": args.j0},
                args.trials,
                args.seed,
                workers=args.workers,
            )
        )
    if args.geometry in ("square-top", "all"):
        runs.append(
            walk_bound_run("square-top", {"ell": args.ell}, args.trials, args.seed,
                           workers=args.workers)
        )
    if args.geometry in ("tall-top", "all"):
        runs.append(
            walk_bound_run("tall-top", {"m": args.m, "n": args.n}, args.trials,
                           args.seed, workers=args.workers)
        )
    rows = []
    for r in runs:
        lo, hi = r.confidence()
        rows.append([
            r.geometry,
            json.dumps(r.params).replace(",", ";"),
            r.successes,
            r.trials,
            f"{r.frequency:.8f}",
            f"{lo:.8f}",
            f"{hi:.8f}",
            "" if r.bound is None else f"{r.bound:.8f}",
        ])
        bound_txt = (
            "(no closed-form bound)" if r.bound is None
            else f"bounded below by {r.bound:.4f}"
        )
        print(f"{r.geometry}: {r.frequency:.4f} in [{lo:.4f}, {hi:.4f}] {bound_txt}")
    if args.out:
        _write_csv(args.out, ["geometry", "params", "successes", "trials",
                              "freq", "ci_lo", "ci_hi", "bound"], rows)
        config = vars(args).copy()
        config.pop("func")
        _write_metadata(args.out, "walk-bounds", config)
    return 0


def cmd_lattice(args) -> int:
    if args.drawing:
        with open(args.drawing) as fh:
            d = plane_graph_from_json(fh.read())
    else:
        d = vertical_strips(args.strips)
    exp = compatibility_experiment(
        args.kind, args.n, d, args.epsilon, args.trials, args.seed,
        delta=args.delta,
    )
    print(
        f"{args.kind} n={args.n}: compatible {exp.frequency:.4f} "
        f"[{exp.ci_low:.4f}, {exp.ci_high:.4f}], approx-splittable "
        f"{exp.splittable_frequency:.4f} "
        f"[{exp.splittable_ci_low:.4f}, {exp.splittable_ci_high:.4f}]"
    )
    if args.out:
        rows = [[
            exp.kind, exp.n, exp.epsilon, exp.trials,
            exp.successes, f"{exp.frequency:.8f}",
            f"{exp.ci_low:.8f}", f"{exp.ci_high:.8f}",
            exp.splittable_successes, f"{exp.splittable_frequency:.8f}",
            f"{exp.splittable_ci_low:.8f}", f"{exp.splittable_ci_high:.8f}",
        ]]
        _write_csv(args.out, [
            "kind", "n", "epsilon", "trials",
            "compatible_successes", "compatible_freq", "compatible_ci_lo",
            "compatible_ci_hi", "splittable_successes", "splittable_freq",
            "splittable_ci_lo", "splittable_ci_hi",
        ], rows)
        config = vars(args).copy()
        config.pop("func")
        _write_metadata(args.out, "lattice", config)
    return 0


def cmd_scaling(args) -> int:
    points = wilson_scaling(args.sizes, args.samples, args.seed)
    rows = []
    for p in points:
        rows.append([p.n, p.N, p.samples, f"{p.mean_steps:.2f}", f"{p.normalized:.6f}"])
        print(f"n={p.n}: mean steps {p.mean_steps:.0f}, steps/(N ln N) = {p.normalized:.4f}")
    if args.out:
        _write_csv(args.out, ["n", "N", "samples", "mean_steps", "normalized"], rows)
        config = vars(args).copy()
        config.pop("func")
        _write_metadata(args.out, "scaling", config)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesplit",
        description="Spanning-tree and balanced-partition experiments on grids",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, m_default=10, n_default=10):
        p.add_argument("--m", type=int, default=m_default)
        p.add_argument("--n", type=int, default=n_default)
        p.add_argument("--trials", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=default_workers())

    p = sub.add_parser("heatmap", help="balanced-split likelihood per vertical edge")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--svg-out", default=None)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("histogram", help="below-component size distribution for one edge")
    common(p)
    p.add_argument("--edge", default="central", help="'central' or 'i,j' (1-based)")
    p.add_argument("--bin-size", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("bounds", help="closed-form probability floors")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sample", help="stream balanced partitions as JSON lines")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--mode", choices=["exact", "updown"], default="exact")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mixing-multiplier", type=float, default=10.0)
    p.add_argument("--round-cap", type=int, default=10_000_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("walk-bounds", help="first-exit probabilities for box walks")
    p.add_argument("--geometry", choices=["exit-not-below", "square-top", "tall-top", "all"],
                   default="exit-not-below")
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--i0", type=int, default=4)
    p.add_argument("--j0", type=int, default=4)
    p.add_argument("--ell", type=int, default=5)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=default_workers())
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_walk_bounds)

    p = sub.add_parser("lattice", help="compatibility experiment on a clipped lattice")
    p.add_argument("--kind", choices=["square", "triangular", "hexagonal"],
                   default="square")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--strips", type=int, default=2,
                   help="vertical strips in the default drawing")
    p.add_argument("--drawing", default=None, help="PlaneGraphD JSON file")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("scaling", help="dual-rooted Wilson step-count scaling")
    p.add_argument("--sizes", type=int, nargs="+", default=[10, 18, 32, 56, 100])
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scaling)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("trials", "workers", "count", "bin_size", "k", "strips", "samples"):
            if getattr(args, flag, 1) < 1:
                raise ValueError(f"--{flag.replace('_', '-')} must be at least 1")
        return args.func(args)
    except ValueError as exc:  # the library's bad-input type
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
