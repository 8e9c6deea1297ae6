"""Scheme outputs stay byte-identical to the pinned digests.

``scripts/output_digest.py`` hashes every colouring of the benchmark
workloads' instances and, with ``--reports``, the ``params`` and ``rounds``
that the CLI's ``--report`` prints of each scheme report.  The digests below
are its ``--reports`` lines for seed 1 and for seeds 1 2 3 (the script's
default); a change that is meant to leave every output as it is must keep
them, and one that moves an output on purpose updates them and says why.  The ``--inputs`` digests
hash the instance texts the workloads generate; a change to the random
generators that is meant to keep every graph keeps them.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_digest.py"

SEED_1_REPORTS = {
    "large_graphs": "541731c67d7ee06442e84bb7edeb30fc59a755745ecd47bca6e88ed0bb60cb71",
    "many_components": "45ac6906b571058d0b2544e23f554b08e5e03767ff280f87914a1d763c90ba13",
    "threshold_sweep": "8d1ead495a6602ccf09c4ccc7f779f12b771c208d8d3da6b5f08e3821176cb41",
}

SEEDS_1_2_3_REPORTS = {
    "large_graphs": "1a6a3ec39f81ecd4b4c1d5495ee54cdcd03dfffa49781bd04b944ee0f17bb0e0",
    "many_components": "0670e8e603e1d87fe2ea45c99960a9660edc15bbbb673168d4822a01513340b0",
    "threshold_sweep": "17fdd9679a4b1914902a6a18fa565f9b400e6c31971e09dcfc68a3a2804e12e4",
}

SEEDS_1_2_3_INPUTS = {
    "large_graphs": "934bec6f9038055e00e1322696fafc3dc6c5d4401979abbab2753eb822c60931",
    "many_components": "d7534d4b20e9765e1ac34b1623a262ab996a0e5b2a47443380013aad03324029",
    "threshold_sweep": "d3378d3e2c7d35785b7d204affb600bdf26a05d0cefbc7a1f5d3f16fab7be8e7",
}


def load_script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(SEED_1_REPORTS))
def test_seed_1_output_digest_is_pinned(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))  # the workloads live in perfbench/
    script = load_script()
    assert script.workload_digest(workload, [1], True) == SEED_1_REPORTS[workload]


@pytest.mark.parametrize("workload", sorted(SEEDS_1_2_3_REPORTS))
def test_seeds_1_2_3_output_digest_is_pinned(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    script = load_script()
    assert script.workload_digest(workload, [1, 2, 3], True) == SEEDS_1_2_3_REPORTS[workload]


@pytest.mark.parametrize("workload", sorted(SEEDS_1_2_3_INPUTS))
def test_seeds_1_2_3_input_digest_is_pinned(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    script = load_script()
    assert script.input_digest(workload, [1, 2, 3]) == SEEDS_1_2_3_INPUTS[workload]
