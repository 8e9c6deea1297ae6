"""``scripts/scaling.py`` runs each layer and prints one table row per size."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "scaling.py"


@pytest.mark.parametrize(
    "layer",
    [
        "eulersplit", "eliminate", "certify", "kernel", "smallk", "parse", "lift", "lift_clique",
        "lift_join", "dense_extra",
    ],
)
def test_scaling_script_prints_one_row_per_size(layer):
    # kernel, smallk, parse, lift_clique and dense_extra sizes are vertex
    # counts, and minimum degree 18 (16, 14) needs n >= 19 (17, 15)
    by_n = ("kernel", "smallk", "parse", "lift_clique", "dense_extra")
    sizes = ["20", "40"] if layer in by_n else ["4", "8"]
    header, rows = run_layer(layer, sizes)
    assert header[-2:] == ["best_s", "ratio"]
    assert [row[0] for row in rows] == sizes


def test_scaling_kernel_counts_the_edges_left_to_the_walk():
    # The Euler passes leave 56 of 180 and 106 of 360 edges live, at mean
    # live degree 5.6 and 5.3: a count that does not depend on the host's speed.
    header, rows = run_layer("kernel", ["20", "40"])
    assert header[:3] == ["n", "m", "walked"]
    assert [row[:3] for row in rows] == [["20", "180", "56"], ["40", "360", "106"]]


def run_layer(layer: str, sizes: list[str]) -> tuple[list[str], list[list[str]]]:
    """The header and rows the script prints for one repeat, split into cells."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), layer, "--sizes", *sizes, "--repeats", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    return header.split(), [row.split() for row in rows]
