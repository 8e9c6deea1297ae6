#!/usr/bin/env python3
"""Print one sha256 per benchmark workload over every scheme output or input.

For each seed, the instances of ``perfbench.workloads.build(workload, seed)``
are coloured as the benchmark's operation colours them: the text is parsed
and the instance's scheme (forced, or ``colour_auto``) is called.  The
digest covers, per instance in order, its label, k, scheme and the canonical
colouring file (``format_colouring``), or ``none`` when the dispatcher finds
no applicable scheme; the oracle fallback is not run.  With ``--reports``
it also covers what the CLI's ``--report`` prints of each scheme report: its
``params`` (levels, head rounds, weights) and its ``rounds`` (per round the
weight, class size and rounding ledger), as one sorted-key JSON line.  Two
checkouts whose outputs are byte-identical print the same lines, so running
the script in both is the byte-identity check of a change that must not move
any output.

``--inputs`` hashes the inputs instead: per instance in order, its label, k,
scheme and the instance text that ``perfbench.workloads.build`` generates
(``format_graph`` of the random or constructed graph), with no scheme run.
It is the byte-identity check of a change to the generators in
``kmajority.instances``.  The two flags exclude each other.

Run from anywhere; the library and the harness are imported from the
checkout that holds this script:

    python3 scripts/output_digest.py --reports --seeds 1 2 3
    python3 scripts/output_digest.py --inputs --seeds 1 2 3
"""

import argparse
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("large_graphs", "many_components", "threshold_sweep")


def report_text(report) -> str:
    """The ``params`` and ``rounds`` of a scheme report, as the CLI prints them."""
    printed = {"params": report.params_json(), "rounds": report.rounds_json()}
    return json.dumps(printed, sort_keys=True)


def workload_digest(workload: str, seeds: list[int], reports: bool) -> str:
    from kmajority import graphio, schemes
    from perfbench import workloads

    digest = hashlib.sha256()
    for seed in seeds:
        for inst in workloads.build(workload, seed):
            graph = graphio.parse_graph(inst.text)
            found, report = getattr(schemes, inst.scheme)(graph, inst.k)
            output = "none\n" if found is None else graphio.format_colouring(found)
            if reports:
                output += report_text(report)
            digest.update(f"{inst.label} {inst.k} {inst.scheme}\n{output}".encode())
    return digest.hexdigest()


def input_digest(workload: str, seeds: list[int]) -> str:
    from perfbench import workloads

    digest = hashlib.sha256()
    for seed in seeds:
        for inst in workloads.build(workload, seed):
            digest.update(f"{inst.label} {inst.k} {inst.scheme}\n{inst.text}".encode())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workload", choices=WORKLOADS, nargs="+", default=list(WORKLOADS))
    what = parser.add_mutually_exclusive_group()
    what.add_argument(
        "--reports", action="store_true", help="also hash each report's printed params and rounds"
    )
    what.add_argument(
        "--inputs", action="store_true", help="hash the generated instance texts, not the outputs"
    )
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    seeds = " ".join(map(str, args.seeds))
    label = " inputs" if args.inputs else " reports" if args.reports else ""
    for workload in args.workload:
        if args.inputs:
            digest = input_digest(workload, args.seeds)
        else:
            digest = workload_digest(workload, args.seeds, args.reports)
        print(f"{workload} seeds {seeds}{label} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
