"""``scripts/coverage_gaps.py`` lists the package lines a pytest run misses."""

import os
import pathlib
import subprocess
import sys

from kmajority.graph import is_bipartite
from kmajority.rounding import _Kernel

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "coverage_gaps.py"


def body_lines(function) -> set[int]:
    code = function.__code__
    return {line for _, _, line in code.co_lines() if line and line != code.co_firstlineno}


def not_reached(selection: list[str]) -> tuple[subprocess.CompletedProcess, dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *selection, "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    missed: dict[str, set[int]] = {}
    for row in proc.stdout.splitlines():
        path, _, rest = row.partition(":")
        line = rest.partition(":")[0]
        if path.startswith("src/kmajority/") and line.isdigit():
            missed.setdefault(path.removeprefix("src/kmajority/"), set()).add(int(line))
    return proc, missed


def test_coverage_gaps_lists_the_lines_a_selection_misses():
    proc, missed = not_reached(["tests/test_graph.py", "-k", "is_bipartite"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert body_lines(is_bipartite) - missed["graph.py"]
    assert body_lines(_Kernel._sweep) <= missed["rounding.py"]


def test_coverage_gaps_exits_with_the_code_of_pytest():
    proc, _ = not_reached(["tests/test_graph.py", "-k", "no_test_has_this_name"])
    assert proc.returncode == 5  # pytest.ExitCode.NO_TESTS_COLLECTED
