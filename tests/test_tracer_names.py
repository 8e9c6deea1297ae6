"""The traced benchmark harness wraps library names it finds by attribute.

``perfbench/tracer.py`` replaces each ``(module, attribute)`` of its
``PATCHES`` table with a timing wrapper.  A rename or deletion in the library
would break the traced run, which the tests under ``perfbench/`` catch but
the main suite does not run; these tests keep that contract in the main
suite.  A traced pass over a few benchmark instances also runs every
counter, so a change to a result that a counter reads fails here too.
"""

import importlib.util
import pathlib
import sys

from kmajority.reductions import LiftTrace

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

#: Spans of ``PATCHES`` that no workload reaches: ``schemes`` keeps the
#: wrapped names ``edge_subgraph`` and ``components`` (and ``eulersplit``
#: ``components``) imported, but no longer calls them; ``colour_sk_graph``
#: is an S_k guard in front of ``colour_small_k``, which no workload calls.
DEAD_SPANS = {"graph.edge_subgraph", "graph.components", "schemes.colour_sk_graph"}


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    patches = load("tracer").PATCHES
    assert patches
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in patches
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
    # The raise_to_sk counter reads the lift's gadget count, in the field ``copies``.
    assert "copies" in LiftTrace.__dataclass_fields__


def test_a_traced_pass_verifies_and_reaches_every_live_span():
    # Every large_graphs instance, two many_components unions (one of cliques,
    # one random) and the first instance of each threshold_sweep cell, at seed 1.
    tracer_module, workloads = load("tracer"), load("workloads")
    instances = (
        workloads.build("large_graphs", 1)
        + workloads.build("many_components", 1)[:2]
        + workloads.build("threshold_sweep", 1)[:: workloads.SWEEP_TRIALS]
    )
    with tracer_module.Tracer().installed() as tracer:
        failures = [why for why in map(workloads.run_op, instances) if why is not None]
    assert failures == []
    spans = {span for _, _, span, _ in tracer_module.PATCHES}
    idle = {span for span in spans if not tracer.totals[span + ".calls"]}
    assert idle == DEAD_SPANS
