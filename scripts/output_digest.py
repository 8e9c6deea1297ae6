#!/usr/bin/env python3
"""Print one sha256 per benchmark workload over every scheme output.

For each seed, the instances of ``perfbench.workloads.build(workload, seed)``
are coloured as the benchmark's operation colours them: the text is parsed
and the instance's scheme (forced, or ``colour_auto``) is called.  The
digest covers, per instance in order, its label, k, scheme and the canonical
colouring file (``format_colouring``), or ``none`` when the dispatcher finds
no applicable scheme; the oracle fallback is not run.  Two checkouts whose
colourings are byte-identical print the same lines, so running the script in
both is the byte-identity check of a change that must not move any output.

Run from anywhere; the library and the harness are imported from the
checkout that holds this script:

    python3 scripts/output_digest.py --seeds 1 2 3
"""

import argparse
import hashlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("large_graphs", "many_components", "threshold_sweep")


def workload_digest(workload: str, seeds: list[int]) -> str:
    from kmajority import graphio, schemes
    from perfbench import workloads

    digest = hashlib.sha256()
    for seed in seeds:
        for inst in workloads.build(workload, seed):
            graph = graphio.parse_graph(inst.text)
            found, _ = getattr(schemes, inst.scheme)(graph, inst.k)
            output = "none\n" if found is None else graphio.format_colouring(found)
            digest.update(f"{inst.label} {inst.k} {inst.scheme}\n{output}".encode())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workload", choices=WORKLOADS, nargs="+", default=list(WORKLOADS))
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    seeds = " ".join(map(str, args.seeds))
    for workload in args.workload:
        print(f"{workload} seeds {seeds} {workload_digest(workload, args.seeds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
