"""``scripts/scaling.py`` runs each layer and prints one table row per size."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "scaling.py"


@pytest.mark.parametrize("layer", ["eulersplit", "eliminate", "certify"])
def test_scaling_script_prints_one_row_per_size(layer):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), layer, "--copies", "4", "8", "--repeats", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[-2:] == ["best_s", "ratio"]
    assert [row.split()[0] for row in rows] == ["4", "8"]
