#!/usr/bin/env python3
"""Probe the conjectured threshold delta = k^2 on random graphs.

For each k in the requested range, sweeps the minimum degree from just below
k^2 up to the smallest degree any constructive scheme guarantees, colouring
each random instance with the automatic dispatcher and falling back to the
exhaustive oracle when no theorem applies.  One CSV per (k, delta) pair lands
in the output directory, in the same schema as `kmajority sweep`.
"""

import argparse
import math
import pathlib
import sys

from kmajority.cli import main as cli_main
from kmajority.schemes import SCHEMES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-min", type=int, default=2)
    parser.add_argument("--k-max", type=int, default=3)
    parser.add_argument("--n", type=int, default=14, help="vertices per instance")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--node-limit", type=int, default=200_000)
    parser.add_argument("--out-dir", default="sweep-results")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(args.k_min, args.k_max + 1):
        guaranteed = min(
            math.ceil(s.threshold(k)) for s in SCHEMES if s.covers(k) and not s.bipartite
        )
        for delta in range(max(2, k * k - 1), guaranteed + 1):
            if delta >= args.n:
                print(f"k={k} delta={delta}: skipped (needs n > delta)")
                continue
            out = out_dir / f"sweep_k{k}_delta{delta}.csv"
            code = cli_main(
                [
                    "sweep",
                    "--k", str(k),
                    "--delta", str(delta),
                    "--n", str(args.n),
                    "--trials", str(args.trials),
                    "--seed", str(args.seed),
                    "--node-limit", str(args.node_limit),
                    "--output", str(out),
                ]
            )
            if code != 0:
                return code
            rows = out.read_text().splitlines()[2:]
            solved = sum(row.split(",")[5] == "true" for row in rows)
            print(f"k={k} delta={delta}: {solved}/{len(rows)} colourable -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
