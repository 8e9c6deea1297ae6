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
    ["eulersplit", "eliminate", "certify", "kernel", "smallk", "parse", "lift", "lift_clique", "lift_join"],
)
def test_scaling_script_prints_one_row_per_size(layer):
    # kernel, smallk, parse and lift_clique sizes are vertex counts, and
    # minimum degree 18 (16, 14) needs n >= 19 (17, 15)
    sizes = ["20", "40"] if layer in ("kernel", "smallk", "parse", "lift_clique") else ["4", "8"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), layer, "--sizes", *sizes, "--repeats", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[-2:] == ["best_s", "ratio"]
    assert [row.split()[0] for row in rows] == sizes
