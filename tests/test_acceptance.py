"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import multiprocessing
import random
import time
from fractions import Fraction

import oracles
from kmajority import (
    bipartite_lower_bound,
    build_graph,
    check_majority,
    colour_bipartite,
    colour_general_2k2,
    colour_refined,
    colour_sk_graph,
    colour_small_k,
    exhaustive_search,
    general_lower_bound,
    is_bipartite,
    pull_back_colouring,
    raise_to_sk,
    random_min_degree_graph,
    refined_parameters,
    round_weights,
    sk_degrees,
    split_high_degree,
)
from kmajority.cli import main


def _announce(cid, name, failures, started):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {cid} {name}: {status} ({time.monotonic() - started:.1f}s)")


def _random_graph_for_corpus(rng):
    n = rng.randint(4, 40)
    if rng.random() < 0.33:
        side = max(2, n // 2)
        pairs = [(u, side + w) for u in range(side) for w in range(side)]
        bipartite = True
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        bipartite = False
    density = rng.uniform(0.05, 0.9)
    chosen = sorted(pair for pair in pairs if rng.random() < density)
    vertex_count = 2 * side if bipartite else n
    return build_graph(vertex_count, chosen)


def test_criterion_1_rounding_lemma_suite():
    started = time.monotonic()
    rng = random.Random(20260810)
    failures = []
    for trial in range(500):
        graph = _random_graph_for_corpus(rng)
        z = []
        for _ in range(graph.edge_count):
            q = rng.randint(1, 12)
            z.append(Fraction(rng.randint(0, q), q))
        result = round_weights(graph, z)
        x = [Fraction(b) for b in result.x]
        if not oracles.check_certificate(graph, z, x, result.exceptional):
            failures.append(trial)
        if is_bipartite(graph) and result.exceptional:
            failures.append(("bipartite-ledger", trial))
    _announce(1, "rounding-lemma suite (500 graphs)", failures, started)
    assert not failures, failures[:5]


def _criterion2_graph(index):
    graphs = sorted(
        oracles.connected_graphs(6), key=lambda g: -(5 ** g.edge_count)
    )
    graph = graphs[index]
    maps = list(oracles.weight_maps(graph.edge_count, 3))
    bulk = oracles.AssignmentOracle(graph).bulk(6, maps)
    bad = 0
    for row, zmap in enumerate(maps):
        result = round_weights(graph, zmap)
        if not bulk.is_valid(row, result.x) or not bulk.any_valid(row):
            bad += 1
    return len(maps), bad


def test_criterion_2_oracle_equivalence_micro():
    started = time.monotonic()
    graph_count = len(oracles.connected_graphs(6))
    with multiprocessing.get_context("fork").Pool(2) as pool:
        results = pool.map(_criterion2_graph, range(graph_count), chunksize=1)
    checked = sum(count for count, _ in results)
    failures = sum(bad for _, bad in results)
    _announce(2, f"micro oracle equivalence ({checked} weight maps)", failures, started)
    assert failures == 0


def test_criterion_3_bipartite_theorem():
    started = time.monotonic()
    failures = []
    for k in range(2, 7):
        delta = k * (k - 1)
        for trial in range(50):
            side = delta + trial % 3
            extra = 0 if side == delta else (trial % 4) * 2
            graph = random_min_degree_graph(
                2 * side, delta, bipartite=True, seed=1000 * k + trial,
                extra_edges=extra,
            )
            colouring, report = colour_bipartite(graph, k)
            if not report.verdict.passed:
                failures.append((k, trial))
                continue
            for v in range(graph.vertex_count):
                d = graph.degree(v)
                if d % (k + 1) == 0:
                    if any(c != d // (k + 1) for c in report.verdict.counts[v]):
                        failures.append(("claim2", k, trial, v))
    _announce(3, "bipartite theorem (k=2..6, 50 graphs each)", failures, started)
    assert not failures, failures[:5]


def test_criterion_4_general_theorem():
    started = time.monotonic()
    failures = []
    for k in range(2, 6):
        delta = 2 * k * k
        for trial in range(25):
            n = delta + 2 + trial % 7
            graph = random_min_degree_graph(
                n, delta, seed=2000 * k + trial, extra_edges=(trial % 3) * k
            )
            colouring, report = colour_general_2k2(graph, k)
            if not report.verdict.passed:
                failures.append((k, trial))
            for stat in report.rounds:
                if stat.class_slack > 0 or stat.residual_slack > 0:
                    failures.append(("round-bound", k, trial, stat.index))
    _announce(4, "general theorem (k=2..5, 25 graphs each)", failures, started)
    assert not failures, failures[:5]


def test_criterion_5_refined_theorem():
    started = time.monotonic()
    failures = []
    for k, delta in ((5, 45), (6, 66)):
        levels, head_rounds, _ = refined_parameters(k)
        for trial in range(10):
            n = delta + 2 + trial % 5
            graph = random_min_degree_graph(n, delta, seed=3000 * k + trial)
            # Every bucket component with an edge: more than n vertices, and
            # one of them not special (the proof in colour_refined).
            try:
                with oracles.refined_bucket_checks(levels):
                    colouring, report = colour_refined(graph, k)
            except AssertionError:
                failures.append(("bucket", k, trial))
                continue
            if not report.verdict.passed:
                failures.append((k, trial))
                continue
            # independent claim-bound check from the final colouring alone
            counts = report.verdict.counts
            two_n = 1 << levels
            for v in range(graph.vertex_count):
                d_h = graph.degree(v) - sum(counts[v][:head_rounds])
                bound = Fraction(d_h - 1, two_n) + Fraction(3, 2)
                if any(counts[v][c] > bound for c in range(head_rounds, k + 1)):
                    failures.append(("claim", k, trial, v))
    _announce(5, "refined theorem (k=5 and k=6, 10 graphs each)", failures, started)
    assert not failures, failures[:5]


def _with_extra_edges(graph, count, rng):
    """Add random edges among vertices >= 1, keeping vertex 0 at its degree."""
    edges = set(graph.edges)
    present = {(min(u, v), max(u, v)) for u, v in edges}
    added = 0
    attempts = 0
    while added < count and attempts < 50 * count + 50:
        attempts += 1
        u = rng.randrange(1, graph.vertex_count)
        v = rng.randrange(1, graph.vertex_count)
        key = (min(u, v), max(u, v))
        if u != v and key not in present:
            present.add(key)
            added += 1
    return build_graph(graph.vertex_count, sorted(present))


def test_criterion_6_small_k_thresholds():
    started = time.monotonic()
    failures = []
    sizes = {2: 8, 3: 12, 4: 18}
    for k in (2, 3, 4):
        threshold = k * k
        for trial in range(50):
            n = sizes[k] + trial % 6
            graph = random_min_degree_graph(n, threshold, seed=4000 * k + trial)
            if trial % 2:
                graph = _with_extra_edges(
                    graph, 1 + trial % 5, random.Random(5000 * k + trial)
                )
            if graph.min_degree() != threshold:
                failures.append(("not-threshold", k, trial))
                continue
            colouring, report = colour_small_k(graph, k)
            if not report.verdict.passed:
                failures.append((k, trial))
            initial, flips = report.elimination or (0, 0)
            if flips > initial:
                failures.append(("elimination", k, trial))
    _announce(6, "small-k thresholds (k=2,3,4 at delta=k^2)", failures, started)
    assert not failures, failures[:5]


def test_criterion_7_lower_bounds():
    started = time.monotonic()
    failures = []
    t0 = time.monotonic()
    outcome = exhaustive_search(general_lower_bound(2), 2, 3)
    elapsed = time.monotonic() - t0
    if outcome.found or outcome.limit_hit:
        failures.append("general-lb-not-certified")
    if not outcome.node_count < 3**10:
        failures.append("node-count")
    if elapsed >= 1.0:
        failures.append("general-lb-too-slow")
    for k in range(2, 7):
        if not (k + 1) * (k - 2) < k * k - k - 1:
            failures.append(("pigeonhole", k))
        result = exhaustive_search(bipartite_lower_bound(k), k, k + 1)
        if result.found or result.limit_hit or result.node_count != 0:
            failures.append(("bipartite-lb", k))
    _announce(7, "lower bounds reproduced", failures, started)
    assert not failures, failures


def test_criterion_8_reduction_round_trips():
    started = time.monotonic()
    failures = []
    trial = 0
    for round_index in range(67):
        for k in (2, 3, 4):
            if trial >= 200:
                break
            trial += 1
            seed = 6000 + trial
            rng = random.Random(seed)
            base = {2: 8, 3: 12, 4: 18}[k] + round_index % 5
            graph = random_min_degree_graph(
                base, k * k, seed=seed, extra_edges=rng.randint(0, 5)
            )
            if k <= 3 and round_index % 3 == 0:
                # hub vertex of degree >= 2k^2 exercises the splitting step
                hub_degree = 2 * k * k + rng.randint(0, 2)
                if graph.vertex_count >= hub_degree:
                    edges = list(graph.edges)
                    hub = graph.vertex_count
                    edges.extend((v, hub) for v in range(hub_degree))
                    graph = build_graph(hub + 1, edges)
            split_graph, _ = split_high_degree(graph, k)
            if not all(
                k * k <= d < 2 * k * k for d in split_graph.degrees()
            ):
                failures.append(("split-profile", k, trial))
            lifted, _ = raise_to_sk(split_graph, k)
            allowed = set(sk_degrees(k))
            if not all(d in allowed for d in lifted.degrees()):
                failures.append(("lift-profile", k, trial))
            if any(
                lifted.degree(v) // k != split_graph.degree(v) // k
                for v in range(split_graph.vertex_count)
            ):
                failures.append(("cap-equality", k, trial))
            colouring, _ = colour_sk_graph(lifted, k)
            pulled = pull_back_colouring(colouring, graph)
            if not check_majority(graph, pulled, k).passed:
                failures.append(("pull-back", k, trial))
    _announce(8, f"reduction round trips ({trial} pairs)", failures, started)
    assert not failures, failures[:5]


def test_criterion_9_determinism(tmp_path):
    started = time.monotonic()
    failures = []

    def run_twice(args, outputs):
        blobs = []
        for attempt in range(2):
            for path in outputs:
                if path.exists():
                    path.unlink()
            code = main(args)
            if code != 0:
                failures.append(("exit", args, code))
            blobs.append([path.read_bytes() for path in outputs])
        if blobs[0] != blobs[1]:
            failures.append(("bytes", args))

    graph_path = tmp_path / "g.g"
    run_twice(
        ["construct", "--family", "random", "--n", "14", "--delta", "4",
         "--seed", "11", "--extra-edges", "3", "--output", str(graph_path)],
        [graph_path],
    )
    colouring_path = tmp_path / "g.col"
    run_twice(
        ["colour", "--k", "2", "--input", str(graph_path), "--output",
         str(colouring_path)],
        [colouring_path],
    )
    reports = []
    for attempt in range(2):
        report_path = tmp_path / f"report{attempt}.json"
        code = main(
            ["colour", "--k", "2", "--input", str(graph_path), "--output",
             str(colouring_path), "--report", str(report_path)]
        )
        if code != 0:
            failures.append(("report-exit", code))
        payload = json.loads(report_path.read_text())
        payload.pop("duration_ms", None)
        reports.append(payload)
    if reports[0] != reports[1]:
        failures.append("report-mismatch")
    sweep_path = tmp_path / "sweep.csv"
    run_twice(
        ["sweep", "--k", "2", "--delta", "4", "--n", "12", "--trials", "5",
         "--seed", "3", "--output", str(sweep_path)],
        [sweep_path],
    )
    _announce(9, "determinism under fixed seeds", failures, started)
    assert not failures, failures
