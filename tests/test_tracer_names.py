"""The traced benchmark harness wraps library names it finds by attribute.

``perfbench/tracer.py`` replaces each ``(module, attribute)`` of its
``PATCHES`` table with a timing wrapper.  A rename or deletion in the library
would break the traced run, which the tests under ``perfbench/`` catch but
the main suite does not run; this test keeps that contract in the main suite.
"""

import importlib.util
import pathlib

from kmajority.reductions import LiftTrace

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    patches = load_tracer().PATCHES
    assert patches
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in patches
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
    # The raise_to_sk counter reads the lift's copy count.
    assert "copies" in LiftTrace.__dataclass_fields__
