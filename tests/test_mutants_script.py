"""``scripts/mutants.py`` reports which mutants of one module a selection catches."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mutants.py"


def mutate_sk_degrees(selection: list[str]) -> subprocess.CompletedProcess:
    # sk_degrees is one line: a dropped return, == flipped and four constants.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--function", "sk_degrees", "reductions.py",
         "tests/test_reductions.py", *selection],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=240,
    )


def outcomes(proc: subprocess.CompletedProcess) -> dict[str, str]:
    rows = [row.split(maxsplit=1) for row in proc.stdout.splitlines()[:-1]]
    return {rest.partition(": ")[2]: outcome for outcome, rest in rows}


def test_mutants_that_the_selection_checks_are_killed():
    proc = mutate_sk_degrees(["-k", "sk_degree_sets"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert outcomes(proc)["== -> !="] == "killed"
    assert set(outcomes(proc).values()) == {"killed"}
    assert proc.stdout.splitlines()[-1] == (
        "6 mutants: 6 killed, 0 survived, 0 timed out; kill rate 100.0%"
    )


def test_mutants_that_the_selection_never_runs_survive():
    proc = mutate_sk_degrees(["-k", "split_with_nothing_to_split_returns_its_input"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(outcomes(proc).values()) == {"survived"}
    assert proc.stdout.splitlines()[-1].endswith("kill rate 0.0%")


def test_a_selection_that_fails_unchanged_mutates_nothing():
    proc = mutate_sk_degrees(["-k", "no_test_has_this_name"])
    assert proc.returncode == 2
    assert proc.stdout == ""
