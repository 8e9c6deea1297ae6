#!/usr/bin/env python3
"""kmajority benchmark: one workload, one seed, a closed loop of operations.

    python3 perfbench/run.py --workload large_graphs --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  One
process, no threads: each operation starts after the previous one finished.

``--trace 0`` measures the end-to-end metrics with the library untouched.
Their times are scaled to a fixed host speed, gauged in each few seconds of
the run by a reference kernel run between operations; the factor goes to
standard error.
``--trace 1`` alternates untraced and traced passes over the instances and
reports the per-layer metrics of one pass, as medians over the traced passes;
the counters among them repeat exactly for a seed.  The per-scheme times and
the tracing overhead come from the best passes.  A pass is one operation per
instance.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable summary
goes to standard error.  The exit code is 1 when any output failed
verification or an operation raised, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import resource
import statistics
import sys
import time
import traceback
from typing import Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("large_graphs", "many_components", "threshold_sweep")

#: The reference kernel's time at standard speed: about its median time in a
#: window on the host the bounds were set on (a shared 2-core x86-64 virtual
#: machine, Python 3.11.7), in a calm spell.  End-to-end times are reported at
#: the speed at which the kernel's median time in a window is this long.
REF_S = 0.0007

#: Least time between two runs of the reference kernel in the measured loop.
REF_GAP_S = 0.02

#: The measured loop is cut into windows this long; within one, the host's
#: speed is taken as steady (its slow spells last tens of seconds).
WINDOW_S = 3.0

#: Set-up runs in the measured loop, spread evenly over it; setup_s is their
#: median.
SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "edges_per_s": "edges/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rounding.calls": "count",
    "rounding.busy_s": "s",
    "rounding.edges": "count",
    "rounding.us_per_edge": "us/edge",
    "rounding.exceptional": "count",
    "rounding.share": "ratio",
    "rounding.scaling_exp": "exponent",
    "eulersplit.calls": "count",
    "eulersplit.busy_s": "s",
    "eulersplit.edges": "count",
    "eulersplit.bad_vertices": "count",
    "schemes.eliminate.calls": "count",
    "schemes.eliminate.busy_s": "s",
    "schemes.eliminate.initial_bad": "count",
    "schemes.eliminate.flips": "count",
    "schemes.general_s": "s",
    "schemes.refined_s": "s",
    "schemes.bipartite_s": "s",
    "schemes.small_k_s": "s",
    "reductions.split_busy_s": "s",
    "reductions.raise_busy_s": "s",
    "reductions.pull_back_busy_s": "s",
    "reductions.lift_copies": "count",
    "reductions.blowup": "ratio",
    "graph.edge_subgraph_calls": "count",
    "graph.edge_subgraph_busy_s": "s",
    "graph.components_busy_s": "s",
    "graph.is_bipartite_busy_s": "s",
    "colouring.check_majority.calls": "count",
    "colouring.check_majority.busy_s": "s",
    "graphio.parse_busy_s": "s",
    "graphio.format_busy_s": "s",
    "instances.oracle.calls": "count",
    "instances.oracle.busy_s": "s",
    "instances.oracle.nodes": "count",
    "instances.oracle.nodes_per_s": "1/s",
    "instances.oracle.limit_hits": "count",
    **{
        f"{layer}.self_s": "s"
        for layer in (
            "rounding", "eulersplit", "schemes", "reductions",
            "graph", "colouring", "graphio", "instances",
        )
    },
    "trace.overhead_frac": "ratio",
}

#: Per-layer metric -> large_graphs label whose untraced op times it reports.
SCHEME_TIMES = {
    "schemes.general_s": "general_m630",
    "schemes.refined_s": "refined_m504",
    "schemes.bipartite_s": "bipartite_m480",
    "schemes.small_k_s": "small_k_m160",
}

#: The two labels rounding.scaling_exp is fitted on.
SCALING_PAIR = ("general_m360", "general_m630")


class Ops:
    """Runs operations one at a time and keeps what went wrong."""

    def __init__(self, workloads) -> None:
        self._workloads = workloads
        self.attempted = 0
        self.limit_hits = 0
        self.errors: list[str] = []  # invalid outputs and raised exceptions

    @property
    def failed(self) -> int:
        return self.limit_hits + len(self.errors)

    def run(self, inst) -> float:
        """Run one operation and return its wall time in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            reason = self._workloads.run_op(inst)
        except Exception:  # the loop must go on and count it
            reason = f"{inst.label} raised:\n{traceback.format_exc()}"
        elapsed = time.perf_counter() - start
        if reason == self._workloads.LIMIT_HIT:
            self.limit_hits += 1
        elif reason is not None:
            self.errors.append(reason)
        return elapsed


class SetUp:
    """Builds the workload's instances and parses their text back."""

    def __init__(self, workloads, name: str, seed: int) -> None:
        self._workloads, self._name, self._seed = workloads, name, seed
        self.problems: list[str] = []
        self.insts: Optional[list] = None
        self.repeat()

    def repeat(self) -> float:
        """Build once more, check the result and return the time it took.

        The first build is kept as ``insts``.
        """
        start = time.perf_counter()
        insts = self._workloads.build(self._name, self._seed)
        parsed = [self._workloads.graphio.parse_graph(inst.text) for inst in insts]
        elapsed = time.perf_counter() - start
        for inst, graph in zip(insts, parsed):
            if graph.edges != inst.graph.edges:
                self.problems.append(f"{inst.label}: serialised graph does not parse back")
        if self.insts is None:
            self.insts = insts
        elif [i.text for i in insts] != [i.text for i in self.insts]:
            self.problems.append("instance generation is not deterministic in the seed")
        return elapsed


def reference_kernel() -> int:
    """Fixed pure-Python dict, list and set work that gauges the host's speed."""
    adj: dict[int, list[int]] = {}
    for i in range(3000):
        adj.setdefault(i % 97, []).append((i * 7919) % 3001)
    seen = set()
    total = 0
    for key in sorted(adj):
        for v in adj[key]:
            if v not in seen:
                seen.add(v)
                total += v ^ key
    return total


def measure(setup: SetUp, seconds: float, ops: Ops) -> tuple[list, list, list]:
    """Cycle through the instances while the next op should end within ``seconds``.

    Every instance runs at least once; the next op is expected to take as
    long as that instance's previous op.  Between passes, set-up runs again
    whenever its next of ``SETUP_REPEATS`` evenly spaced turns is due, so its
    builds sample the whole run.  After an op, the reference kernel runs if
    ``REF_GAP_S`` has passed since it last ran.  Every time is kept with the
    ``WINDOW_S`` window it ended in.  Returns the op times per instance, the
    set-up times and the reference kernel's times, each as (window, seconds).
    """
    insts = setup.insts
    times: list[list[tuple[int, float]]] = [[] for _ in insts]
    setup_times: list[tuple[int, float]] = []
    ref_times: list[tuple[int, float]] = []
    last_ref = -math.inf
    start = time.perf_counter()

    def window() -> int:
        return int((time.perf_counter() - start) / WINDOW_S)

    n = 0
    while n < len(insts) or time.perf_counter() - start + times[n % len(insts)][-1][1] <= seconds:
        i = n % len(insts)
        while i == 0 and len(setup_times) < SETUP_REPEATS and (
            time.perf_counter() - start >= len(setup_times) * seconds / SETUP_REPEATS
        ):
            elapsed = setup.repeat()
            setup_times.append((window(), elapsed))
        elapsed = ops.run(insts[i])
        times[i].append((window(), elapsed))
        if time.perf_counter() - last_ref >= REF_GAP_S:
            ref_start = time.perf_counter()
            reference_kernel()
            last_ref = time.perf_counter()
            ref_times.append((window(), last_ref - ref_start))
        n += 1
    while len(setup_times) < SETUP_REPEATS:
        elapsed = setup.repeat()
        setup_times.append((window(), elapsed))
    return times, setup_times, ref_times


def end_to_end(insts, times, setup_times, ref_times) -> tuple[dict[str, float], float]:
    """Op and set-up figures at reference speed (see README.md).

    A window's speed factor is ``REF_S`` over the reference kernel's median
    time in it (in the run, if it has none).  An instance's op time is the
    median of its op times, each times its window's factor; setup_s is the
    median of the set-up times, scaled alike.  Also returns the median factor
    over windows.
    """
    ref_by_window: dict[int, list[float]] = {}
    for w, t in ref_times:
        ref_by_window.setdefault(w, []).append(t)
    ref_median = {w: statistics.median(ts) for w, ts in ref_by_window.items()}
    overall = statistics.median(t for _, t in ref_times)

    def scaled(samples) -> float:
        return statistics.median(REF_S / ref_median.get(w, overall) * t for w, t in samples)

    op = [scaled(samples) for samples in times]
    return {
        "setup_s": scaled(setup_times),
        "edges_per_s": statistics.geometric_mean(
            i.graph.edge_count / t for i, t in zip(insts, op)
        ),
        "op_ms_p50": 1e3 * statistics.median(op),
        "op_ms_p90": 1e3 * statistics.quantiles(op, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, statistics.median(REF_S / m for m in ref_median.values())


def traced_pass(tracer_module, insts, ops: Ops) -> tuple[float, dict[str, float]]:
    """One traced pass: its wall time and its per-layer metrics (bar the run-level ones)."""
    tracer = tracer_module.Tracer()
    t = tracer.totals
    wall = 0.0
    rounding_by_label: dict[str, tuple[float, float]] = {}
    with tracer.installed():
        for inst in insts:
            busy, edges = t["rounding.round_weights.busy_s"], t["rounding.round_weights.edges"]
            wall += ops.run(inst)
            total_busy, total_edges = rounding_by_label.get(inst.label, (0.0, 0.0))
            rounding_by_label[inst.label] = (
                total_busy + t["rounding.round_weights.busy_s"] - busy,
                total_edges + t["rounding.round_weights.edges"] - edges,
            )
    rounding_busy = t["rounding.round_weights.busy_s"]
    rounding_edges = t["rounding.round_weights.edges"]
    raise_in = t["reductions.raise.edges_in"]
    oracle_busy = t["instances.oracle.busy_s"]
    metrics = {
        "rounding.calls": t["rounding.round_weights.calls"],
        "rounding.busy_s": rounding_busy,
        "rounding.edges": rounding_edges,
        "rounding.us_per_edge": 1e6 * rounding_busy / rounding_edges if rounding_edges else 0.0,
        "rounding.exceptional": t["rounding.round_weights.exceptional"],
        "rounding.share": rounding_busy / wall,
        "rounding.scaling_exp": _scaling_exp(rounding_by_label),
        "eulersplit.calls": t["eulersplit.balanced_bicolouring.calls"],
        "eulersplit.busy_s": t["eulersplit.busy_s"],
        "eulersplit.edges": t["eulersplit.balanced_bicolouring.edges"],
        "eulersplit.bad_vertices": t["eulersplit.balanced_bicolouring.bad_vertices"],
        "schemes.eliminate.calls": t["schemes.eliminate.calls"],
        "schemes.eliminate.busy_s": t["schemes.eliminate.busy_s"],
        "schemes.eliminate.initial_bad": t["schemes.eliminate.initial_bad"],
        "schemes.eliminate.flips": t["schemes.eliminate.flips"],
        "reductions.split_busy_s": t["reductions.split.busy_s"],
        "reductions.raise_busy_s": t["reductions.raise.busy_s"],
        "reductions.pull_back_busy_s": t["reductions.pull_back.busy_s"],
        "reductions.lift_copies": t["reductions.raise.copies"],
        "reductions.blowup": t["reductions.raise.edges_out"] / raise_in if raise_in else 0.0,
        "graph.edge_subgraph_calls": t["graph.edge_subgraph.calls"],
        "graph.edge_subgraph_busy_s": t["graph.edge_subgraph.busy_s"],
        "graph.components_busy_s": t["graph.components.busy_s"],
        "graph.is_bipartite_busy_s": t["graph.is_bipartite.busy_s"],
        "colouring.check_majority.calls": t["colouring.check_majority.calls"],
        "colouring.check_majority.busy_s": t["colouring.check_majority.busy_s"],
        "graphio.parse_busy_s": t["graphio.parse.busy_s"],
        "graphio.format_busy_s": t["graphio.format.busy_s"],
        "instances.oracle.calls": t["instances.oracle.calls"],
        "instances.oracle.busy_s": oracle_busy,
        "instances.oracle.nodes": t["instances.oracle.nodes"],
        "instances.oracle.nodes_per_s": t["instances.oracle.nodes"] / oracle_busy if oracle_busy else 0.0,
        "instances.oracle.limit_hits": t["instances.oracle.limit_hits"],
        **{name: t[name] for name in PER_LAYER if name.endswith(".self_s")},
    }
    return wall, metrics


def _scaling_exp(rounding_by_label) -> float:
    """Exponent b in busy ~ edges^b between the two general labels (0 if absent)."""
    small, large = (rounding_by_label.get(label) for label in SCALING_PAIR)
    if not small or not large or min(small + large) <= 0:
        return 0.0
    return math.log(large[0] / small[0]) / math.log(large[1] / small[1])


def measure_traced(tracer_module, insts, seconds: float, ops: Ops) -> dict[str, float]:
    """Alternate untraced and traced passes while the next pair should end within ``seconds``.

    One pair runs at least.
    """
    plain: list[list[float]] = []
    traced: list[tuple[float, dict[str, float]]] = []
    start = time.perf_counter()
    pair = 0.0
    while not traced or time.perf_counter() - start + pair <= seconds:
        pair_start = time.perf_counter()
        plain.append([ops.run(inst) for inst in insts])
        traced.append(traced_pass(tracer_module, insts, ops))
        pair = time.perf_counter() - pair_start
    metrics = {
        name: statistics.median(m[name] for _, m in traced) for name in traced[0][1]
    }
    for name, label in SCHEME_TIMES.items():
        columns = [i for i, inst in enumerate(insts) if inst.label == label]
        metrics[name] = (
            statistics.median(min(p[i] for p in plain) for i in columns) if columns else 0.0
        )
    metrics["trace.overhead_frac"] = min(w for w, _ in traced) / min(sum(p) for p in plain) - 1
    return metrics


def _value(value: float, unit: str):
    return int(value) if unit == "count" and float(value).is_integer() else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kmajority" / "__init__.py").is_file():
        print(f"kmajority sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracer_module
    import workloads

    setup = SetUp(workloads, args.workload, args.seed)
    insts = setup.insts
    ops = Ops(workloads)
    if args.trace:
        setup.repeat()
        values = measure_traced(tracer_module, insts, args.seconds, ops)
        units = PER_LAYER
    else:
        times, setup_times, ref_times = measure(setup, args.seconds, ops)
        values, speed = end_to_end(insts, times, setup_times, ref_times)
        units = END_TO_END
        print(
            f"reference kernel: {len(ref_times)} runs; times below are measured times "
            f"x {speed:.4g} (median over {WINDOW_S:g} s windows)",
            file=sys.stderr,
        )

    problems = setup.problems + ops.errors
    for problem in problems[:10]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {ops.attempted} ops over {len(insts)} instances, "
        f"failed_frac {ops.failed / ops.attempted:.6g} ratio ({ops.failed} failed, "
        f"{ops.limit_hits} oracle limit hits)",
        file=sys.stderr,
    )
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:.6g} {unit}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": _value(values[name], unit), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
