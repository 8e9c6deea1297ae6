"""Command-line front end.

Subcommands: ``colour`` (run a scheme and write a colouring), ``verify``
(check a colouring), ``construct`` (lower-bound and random instances),
``oracle`` (exhaustive search), ``sweep`` (random trials to CSV).

Exit codes: 0 success/valid; 1 verification failure or certified
infeasibility; 2 usage or format error; 3 theorem preconditions unmet (also:
oracle stopped by its node budget); 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import Optional

from .colouring import MajorityVerdict, check_majority
from .errors import (
    FormatError,
    InputError,
    InternalInvariantError,
    PreconditionError,
)
from .graphio import read_colouring, read_graph, write_colouring, write_graph
from .instances import (
    bipartite_lower_bound,
    exhaustive_search,
    general_lower_bound,
    random_min_degree_graph,
)
from .schemes import SCHEMES, SchemeReport, colour_auto, scheme_named

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INVARIANT = 4

SWEEP_SCHEMA = "# kmajority-sweep-v1"
SWEEP_COLUMNS = "trial,n,m,delta_actual,algorithm,pass,oracle_nodes,oracle_result"

def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _verdict_json(verdict: Optional[MajorityVerdict]) -> Optional[dict]:
    if verdict is None:
        return None
    witness = None
    if verdict.witness is not None:
        v, colour, count, cap = verdict.witness
        witness = {"vertex": v, "colour": colour, "count": count, "cap": cap}
    return {"pass": verdict.passed, "witness": witness}


def _report_json(
    command: str,
    k: Optional[int],
    *,
    algorithm: Optional[str] = None,
    scheme: Optional[SchemeReport] = None,
    verdict: Optional[MajorityVerdict] = None,
    oracle: Optional[dict] = None,
    seed: Optional[int] = None,
    duration_ms: float = 0.0,
    inputs: Optional[dict] = None,
) -> dict:
    return {
        "command": command,
        "k": k,
        "algorithm": algorithm if scheme is None else scheme.algorithm,
        "params": scheme.params_json() if scheme else {"n": None, "m": None, "alpha": []},
        "rounds": scheme.rounds_json() if scheme else [],
        "verdict": _verdict_json(verdict if verdict is not None else (scheme.verdict if scheme else None)),
        "oracle": oracle,
        "seed": seed,
        "duration_ms": round(duration_ms, 3),
        "inputs": inputs or {},
    }


def _write(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _dump(report: dict, path: Optional[str]) -> None:
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", path)


def cmd_colour(args: argparse.Namespace) -> int:
    graph = read_graph(args.input)
    inputs = {args.input: _digest(args.input)}
    started = time.monotonic()
    if args.algorithm == "auto":
        colouring, scheme = colour_auto(graph, args.k)
    else:
        colouring, scheme = scheme_named(args.algorithm).colour(graph, args.k)
    duration = (time.monotonic() - started) * 1000
    if colouring is not None:
        write_colouring(args.output, colouring)
    if args.report:
        _dump(
            _report_json("colour", args.k, scheme=scheme, duration_ms=duration, inputs=inputs),
            args.report,
        )
    if colouring is None:
        print(
            f"no scheme applies: minimum degree {graph.min_degree()} is below every "
            f"guaranteed threshold for k = {args.k}",
            file=sys.stderr,
        )
        return EXIT_PRECONDITION
    print(f"coloured {graph.edge_count} edges with {colouring.colour_count} colours "
          f"via {scheme.algorithm}; verified")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    graph = read_graph(args.graph)
    colouring = read_colouring(args.colouring)
    if len(colouring.colours) != graph.edge_count:
        raise FormatError(
            f"colouring covers {len(colouring.colours)} edges, graph has {graph.edge_count}"
        )
    started = time.monotonic()
    verdict = check_majority(graph, colouring, args.k)
    duration = (time.monotonic() - started) * 1000
    # The majority rule caps each colour, not the number of colours, so the
    # file's colour count is reported beside the verdict; the schemes use k+1.
    colours = colouring.colour_count
    if args.json:
        inputs = {args.graph: _digest(args.graph), args.colouring: _digest(args.colouring)}
        report = _report_json("verify", args.k, verdict=verdict, duration_ms=duration, inputs=inputs)
        report["colour_count"] = colours
        _dump(report, None)
    elif verdict.passed:
        note = "" if colours == args.k + 1 else f", not k+1 = {args.k + 1}"
        print(f"valid 1/{args.k}-majority colouring with {colours} colours{note}")
    else:
        v, colour, count, cap = verdict.witness
        print(
            f"violation at vertex {v}: colour {colour} appears {count} times, cap {cap}"
        )
    return EXIT_OK if verdict.passed else EXIT_FAIL


def cmd_construct(args: argparse.Namespace) -> int:
    if args.family == "bipartite-lower":
        graph = bipartite_lower_bound(args.k)
    elif args.family == "general-lower":
        graph = general_lower_bound(args.k)
    else:
        if args.n is None or args.delta is None:
            raise InputError("random construction needs --n and --delta")
        graph = random_min_degree_graph(
            args.n, args.delta, bipartite=args.bipartite, seed=args.seed,
            extra_edges=args.extra_edges,
        )
    write_graph(args.output, graph)
    print(
        f"wrote {args.family} instance: {graph.vertex_count} vertices, "
        f"{graph.edge_count} edges, min degree {graph.min_degree()}"
    )
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    graph = read_graph(args.graph)
    colour_count = args.colours if args.colours is not None else args.k + 1
    started = time.monotonic()
    outcome = exhaustive_search(graph, args.k, colour_count, node_limit=args.node_limit)
    duration = (time.monotonic() - started) * 1000
    oracle = {"nodes": outcome.node_count, "limit_hit": outcome.limit_hit}
    verdict = None
    if outcome.found and args.output:
        write_colouring(args.output, outcome.colouring)
    if outcome.found:
        verdict = check_majority(graph, outcome.colouring, args.k)
    if args.json:
        _dump(
            _report_json(
                "oracle",
                args.k,
                algorithm="oracle",
                verdict=verdict,
                oracle=oracle,
                duration_ms=duration,
                inputs={args.graph: _digest(args.graph)},
            ),
            None,
        )
    if outcome.found:
        if not args.json:
            print(f"found a colouring with {colour_count} colours ({outcome.node_count} nodes)")
        return EXIT_OK
    if outcome.limit_hit:
        print(f"inconclusive: node limit {args.node_limit} hit", file=sys.stderr)
        return EXIT_PRECONDITION
    if not args.json:
        print(
            f"certified: no 1/{args.k}-majority colouring with {colour_count} colours "
            f"({outcome.node_count} nodes)"
        )
    return EXIT_FAIL


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise InputError(f"trial count must be nonnegative, got {args.trials}")
    rows = [SWEEP_SCHEMA, SWEEP_COLUMNS]
    for trial in range(args.trials):
        trial_seed = args.seed + trial
        graph = random_min_degree_graph(args.n, args.delta, seed=trial_seed)
        colouring, scheme = colour_auto(graph, args.k)
        if colouring is not None:
            algorithm, passed = scheme.algorithm, "true"
            oracle_nodes = oracle_result = ""
        else:
            algorithm = "none"
            colour_count = args.oracle_colours if args.oracle_colours is not None else args.k + 1
            outcome = exhaustive_search(graph, args.k, colour_count, node_limit=args.node_limit)
            oracle_nodes = str(outcome.node_count)
            if outcome.found:
                passed, oracle_result = "true", "found"
            elif outcome.limit_hit:
                passed, oracle_result = "", "limit"
            else:
                passed, oracle_result = "false", "infeasible"
        rows.append(
            f"{trial},{graph.vertex_count},{graph.edge_count},{graph.min_degree()},"
            f"{algorithm},{passed},{oracle_nodes},{oracle_result}"
        )
    _write("\n".join(rows) + "\n", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmajority",
        description="Construct and verify 1/k-majority (k+1)-edge-colourings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("colour", help="colour a graph file with a guaranteed scheme")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument(
        "--algorithm", choices=["auto", *sorted(s.name for s in SCHEMES)], default="auto"
    )
    p.add_argument("--report", help="write a JSON run report to this path")
    p.set_defaults(func=cmd_colour)

    p = sub.add_parser("verify", help="check a colouring against the majority rule")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--colouring", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="write a lower-bound or random instance")
    p.add_argument("--family", choices=["bipartite-lower", "general-lower", "random"],
                   required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--bipartite", action="store_true")
    p.add_argument("--extra-edges", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("oracle", help="exhaustive backtracking feasibility search")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--colours", type=int, help="colour count (default k+1)")
    p.add_argument("--node-limit", type=int, default=10**8)
    p.add_argument("--output", help="write the found colouring here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="random trials: schemes first, oracle fallback")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--oracle-colours", type=int)
    p.add_argument("--node-limit", type=int, default=10**8)
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"precondition not met: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
