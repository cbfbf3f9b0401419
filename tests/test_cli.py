"""CLI subcommands: schemas, reproducibility, and config echo."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from treesplit.cli import main
from treesplit.experiments import vertical_edge_classes


def run_cli(args, capsys=None):
    return main(args)


def read_csv(path: Path) -> list[dict]:
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# heatmap
# ---------------------------------------------------------------------------


def test_heatmap_csv_schema_and_symmetry(tmp_path):
    out = tmp_path / "heat.csv"
    svg = tmp_path / "heat.svg"
    rc = main([
        "heatmap", "--m", "2", "--n", "2", "--trials", "500",
        "--seed", "7", "--out", str(out), "--svg-out", str(svg),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert list(rows[0]) == ["col", "row", "orientation", "successes",
                             "trials", "ci_lo", "ci_hi"]
    # the 2x2 grid has a single vertical-edge class covering both edges
    assert len(rows) == 1
    assert rows[0]["orientation"] == "v"
    meta = json.loads((tmp_path / "heat.csv.meta.json").read_text())
    assert meta["command"] == "heatmap"
    assert meta["config"]["trials"] == 500
    svg_text = svg.read_text()
    assert svg_text.startswith("<svg")
    assert svg_text.count("<rect") == 2  # both orbit members painted


def test_heatmap_reproducible_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        main(["heatmap", "--m", "4", "--n", "4", "--trials", "300",
              "--seed", "3", "--workers", "1", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_heatmap_worker_counts_match(tmp_path):
    a = tmp_path / "w1.csv"
    b = tmp_path / "w2.csv"
    main(["heatmap", "--m", "4", "--n", "4", "--trials", "400",
          "--seed", "5", "--workers", "1", "--out", str(a)])
    main(["heatmap", "--m", "4", "--n", "4", "--trials", "400",
          "--seed", "5", "--workers", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def test_histogram_schema_and_mass(tmp_path):
    out = tmp_path / "hist.csv"
    rc = main([
        "histogram", "--m", "4", "--n", "4", "--trials", "2000",
        "--seed", "2", "--edge", "central", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert list(rows[0]) == ["size_lo", "size_hi", "count", "trials"]
    total = sum(int(r["count"]) for r in rows)
    assert total < 2000  # mass strictly below one
    sizes = [int(r["size_lo"]) for r in rows]
    assert sizes[0] == 1 and int(rows[-1]["size_hi"]) == 15


def test_histogram_binning(tmp_path):
    out = tmp_path / "hist.csv"
    main([
        "histogram", "--m", "4", "--n", "4", "--trials", "500",
        "--seed", "2", "--edge", "2,2", "--bin-size", "4", "--out", str(out),
    ])
    rows = read_csv(out)
    assert int(rows[0]["size_hi"]) - int(rows[0]["size_lo"]) == 3


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_prints_table(tmp_path, capsys):
    rc = main(["bounds", "--m", "10", "--n", "10", "--k", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "1.000000e-04" in text  # both 1/N^2 and 1/(m n^3)
    assert "beta" in text


def test_bounds_csv(tmp_path):
    out = tmp_path / "bounds.csv"
    main(["bounds", "--m", "6", "--n", "6", "--k", "3", "--out", str(out)])
    rows = read_csv(out)
    names = [r["name"] for r in rows]
    assert "k_split" in names and "k_partition" in names


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_stream_and_footer(tmp_path):
    out = tmp_path / "parts.jsonl"
    rc = main([
        "sample", "--m", "3", "--n", "4", "--k", "2", "--mode", "exact",
        "--count", "5", "--seed", "11", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6
    for line in lines[:5]:
        doc = json.loads(line)
        assert doc["k"] == 2
        assert sorted(len(c) for c in doc["classes"]) == [6, 6]
        assert doc["cut_edges"]
    footer = json.loads(lines[-1])
    assert "report" in footer
    assert footer["report"]["accepted"] == 5
    assert "wall_clock" not in footer["report"]


def test_sample_footer_splittable_fraction(tmp_path):
    # exact mode on 3x4, k=2: fraction of rounds passing the splittable
    # check is far above the 1/N^2 = 1/144 floor
    out = tmp_path / "parts.jsonl"
    main([
        "sample", "--m", "3", "--n", "4", "--k", "2", "--count", "200",
        "--seed", "13", "--out", str(out),
    ])
    footer = json.loads(out.read_text().strip().splitlines()[-1])["report"]
    rounds = footer["rounds_attempted"]
    splittable = rounds - footer["rejections"].get("not_splittable", 0)
    assert splittable / rounds >= 1.0 / 144.0


def test_cli_rejects_bad_trials():
    with pytest.raises(SystemExit):
        main(["heatmap", "--m", "2", "--n", "2", "--trials", "0", "--out", "x.csv"])


@pytest.mark.parametrize("args", [
    ["heatmap", "--m", "3", "--n", "3"],
    ["histogram", "--edge", "0,0"],
    ["sample", "--m", "3", "--n", "3", "--k", "2"],
    ["sample", "--m", "1"],
    ["walk-bounds", "--j0", "99"],
])
def test_cli_bad_input_is_one_line_error(args, tmp_path, capsys):
    if args[0] in ("heatmap", "histogram"):
        args = args + ["--trials", "10", "--out", str(tmp_path / "out.csv")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("treesplit: error: ")


def test_sample_byte_identical(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        main(["sample", "--m", "3", "--n", "4", "--k", "2", "--count", "3",
              "--seed", "21", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_sample_updown_mode(tmp_path):
    out = tmp_path / "u.jsonl"
    rc = main([
        "sample", "--m", "3", "--n", "4", "--k", "2", "--mode", "updown",
        "--count", "2", "--seed", "31", "--mixing-multiplier", "4",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# walk-bounds / lattice / scaling
# ---------------------------------------------------------------------------


def test_walk_bounds_cli(tmp_path, capsys):
    out = tmp_path / "walks.csv"
    rc = main([
        "walk-bounds", "--geometry", "exit-not-below", "--m", "8", "--n", "7",
        "--i0", "4", "--j0", "4", "--trials", "20000", "--seed", "1",
        "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0]["geometry"] == "exit-not-below"
    assert float(rows[0]["bound"]) == 0.5
    assert float(rows[0]["freq"]) >= 0.5 - 0.02


def test_lattice_cli(tmp_path):
    out = tmp_path / "lat.csv"
    rc = main([
        "lattice", "--kind", "square", "--n", "8", "--epsilon", "0.2",
        "--trials", "200", "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0]["kind"] == "square"
    assert 0.0 <= float(rows[0]["compatible_freq"]) <= 1.0
    assert 0.0 <= float(rows[0]["splittable_freq"]) <= 1.0


def test_scaling_cli(tmp_path):
    out = tmp_path / "scale.csv"
    rc = main(["scaling", "--sizes", "6", "10", "--samples", "10",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 2
    assert float(rows[0]["normalized"]) > 0


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "treesplit.cli", "bounds", "--m", "4",
         "--n", "4", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "two_split" in proc.stdout


def test_edge_class_count_formula():
    # ceil(m/2) * ceil((n-1)/2) orbits for the rectangle symmetries
    for m, n in [(10, 10), (5, 4), (4, 5), (2, 2)]:
        expect = -(-m // 2) * -(-(n - 1) // 2)
        assert len(vertical_edge_classes(m, n)) == expect
