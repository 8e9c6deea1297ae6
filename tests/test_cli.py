import json
import subprocess
import sys

import pytest

from kmajority import InternalInvariantError, parse_colouring, parse_graph, read_graph, rounding
from kmajority.cli import SWEEP_COLUMNS, SWEEP_SCHEMA, main
from kmajority.graphio import format_graph, write_graph
from kmajority.instances import general_lower_bound


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.g"
    path.write_text("graph 4 4\n0 1\n1 2\n2 3\n3 0\n")
    return path


def test_colour_verify_round_trip(tmp_path, c4_file):
    out = tmp_path / "c4.col"
    report = tmp_path / "report.json"
    code = main(
        ["colour", "--k", "2", "--input", str(c4_file), "--output", str(out),
         "--report", str(report)]
    )
    assert code == 0
    colouring = parse_colouring(out.read_text())
    assert colouring.colour_count == 3
    assert main(
        ["verify", "--k", "2", "--graph", str(c4_file), "--colouring", str(out)]
    ) == 0
    payload = json.loads(report.read_text())
    assert set(payload) == {
        "command", "k", "algorithm", "params", "rounds", "verdict", "oracle",
        "seed", "duration_ms", "inputs",
    }
    assert payload["verdict"]["pass"] is True
    assert set(payload["params"]) == {"n", "m", "alpha"}


def test_colour_below_threshold_exits_3(tmp_path, c4_file):
    code = main(
        ["colour", "--k", "5", "--input", str(c4_file), "--output",
         str(tmp_path / "x.col")]
    )
    assert code == 3


def test_colour_forced_algorithm_precondition(tmp_path):
    path = tmp_path / "triangle.g"
    path.write_text("graph 3 3\n0 1\n1 2\n2 0\n")
    code = main(
        ["colour", "--k", "2", "--algorithm", "bipartite", "--input", str(path),
         "--output", str(tmp_path / "t.col")]
    )
    assert code == 3


def test_internal_invariant_violation_exits_4(tmp_path, c4_file, monkeypatch, capsys):
    # C4 at k = 2 is coloured by the bipartite scheme, whose rounding is
    # certified; a failing certification must surface as exit code 4.
    def broken_certificate(*args):
        raise InternalInvariantError("certificate refused")

    monkeypatch.setattr(rounding, "_certify_int", broken_certificate)
    code = main(
        ["colour", "--k", "2", "--input", str(c4_file), "--output", str(tmp_path / "c4.col")]
    )
    assert code == 4
    assert "internal invariant violation: certificate refused" in capsys.readouterr().err


def test_malformed_graph_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.g"
    path.write_text("graph 3 1\n0 one\n")
    code = main(
        ["colour", "--k", "2", "--input", str(path), "--output",
         str(tmp_path / "x.col")]
    )
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_absurd_graph_header_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.g"
    path.write_text("graph 20000000 0\n")
    code = main(
        ["colour", "--k", "2", "--input", str(path), "--output",
         str(tmp_path / "x.col")]
    )
    assert code == 2
    assert "declares 20000000 vertices" in capsys.readouterr().err


def test_graph_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bytes.g"
    path.write_bytes(b"graph 2 1\n0 1\xff\n")
    code = main(
        ["colour", "--k", "2", "--input", str(path), "--output", str(tmp_path / "x.col")]
    )
    assert code == 2
    assert "format error:" in capsys.readouterr().err


def test_colouring_file_that_is_not_utf8_exits_2(tmp_path, c4_file, capsys):
    path = tmp_path / "bytes.col"
    path.write_bytes(b"colouring 4 3\n0 1\n1 2\n2 1\n3 \xff\n")
    code = main(["verify", "--k", "2", "--graph", str(c4_file), "--colouring", str(path)])
    assert code == 2
    assert "format error:" in capsys.readouterr().err


def test_construct_refuses_a_graph_it_could_not_read_back(tmp_path, capsys):
    out = tmp_path / "empty.g"
    code = main(
        ["construct", "--family", "random", "--n", "100", "--delta", "0",
         "--output", str(out)]
    )
    assert code == 2
    assert "graph has 100 vertices" in capsys.readouterr().err
    assert not out.exists()


def test_verify_failure_reports_witness(tmp_path):
    graph_path = tmp_path / "star.g"
    graph_path.write_text("graph 4 3\n0 1\n0 2\n0 3\n")
    col_path = tmp_path / "star.col"
    col_path.write_text("colouring 3 3\n0 1\n1 2\n2 3\n")
    code = main(
        ["verify", "--k", "2", "--graph", str(graph_path), "--colouring", str(col_path)]
    )
    assert code == 1


def test_verify_json_reports_the_witness(tmp_path, capsys):
    graph_path = tmp_path / "star.g"
    graph_path.write_text("graph 4 3\n0 1\n0 2\n0 3\n")
    col_path = tmp_path / "star.col"
    col_path.write_text("colouring 3 3\n0 1\n1 1\n2 2\n")
    code = main(
        ["verify", "--k", "2", "--graph", str(graph_path), "--colouring", str(col_path),
         "--json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    # Colour 1 twice at the centre, whose cap is floor(3/2) = 1.
    witness = {"vertex": 0, "colour": 1, "count": 2, "cap": 1}
    assert payload["verdict"] == {"pass": False, "witness": witness}


def test_verify_accepts_the_empty_graph(tmp_path, capsys):
    graph_path = tmp_path / "empty.g"
    graph_path.write_text("graph 0 0\n")
    col_path = tmp_path / "empty.col"
    col_path.write_text("colouring 0 1\n")
    code = main(
        ["verify", "--k", "2", "--graph", str(graph_path), "--colouring", str(col_path)]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("valid 1/2-majority colouring")


def test_verify_edge_count_mismatch_exits_2(tmp_path, c4_file):
    col_path = tmp_path / "short.col"
    col_path.write_text("colouring 3 3\n0 1\n1 2\n2 3\n")
    code = main(
        ["verify", "--k", "2", "--graph", str(c4_file), "--colouring", str(col_path)]
    )
    assert code == 2


def test_verify_json_payload(tmp_path, c4_file, capsys):
    col = tmp_path / "c4.col"
    main(["colour", "--k", "2", "--input", str(c4_file), "--output", str(col)])
    capsys.readouterr()
    code = main(
        ["verify", "--k", "2", "--graph", str(c4_file), "--colouring", str(col),
         "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == {"pass": True, "witness": None}


def test_verify_reports_the_colour_count(tmp_path, c4_file, capsys):
    k4 = tmp_path / "k4.g"
    k4.write_text("graph 4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    rainbow = tmp_path / "k4.col"
    rainbow.write_text("colouring 6 6\n" + "".join(f"{e} {e + 1}\n" for e in range(6)))
    args = ["verify", "--k", "2", "--graph", str(k4), "--colouring", str(rainbow)]
    assert main(args) == 0
    assert "with 6 colours, not k+1 = 3" in capsys.readouterr().out
    assert main(args + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["colour_count"] == 6
    col = tmp_path / "c4.col"
    main(["colour", "--k", "2", "--input", str(c4_file), "--output", str(col)])
    capsys.readouterr()
    assert main(["verify", "--k", "2", "--graph", str(c4_file), "--colouring", str(col)]) == 0
    assert capsys.readouterr().out == "valid 1/2-majority colouring with 3 colours\n"


def test_construct_families(tmp_path):
    for family, expect_edges in (("bipartite-lower", 3), ("general-lower", 10)):
        out = tmp_path / f"{family}.g"
        assert main(
            ["construct", "--family", family, "--k", "2", "--output", str(out)]
        ) == 0
        assert parse_graph(out.read_text()).edge_count == expect_edges
    out = tmp_path / "random.g"
    code = main(
        ["construct", "--family", "random", "--n", "12", "--delta", "4",
         "--seed", "5", "--output", str(out)]
    )
    assert code == 0
    assert parse_graph(out.read_text()).min_degree() >= 4


def test_construct_refuses_more_extra_edges_than_non_edges(tmp_path, capsys):
    out = tmp_path / "k14.g"
    code = main(
        ["construct", "--family", "random", "--n", "14", "--delta", "13",
         "--extra-edges", "1", "--output", str(out)]
    )
    assert code == 2
    assert "only 0 non-edges exist" in capsys.readouterr().err
    assert not out.exists()


def test_construct_random_requires_parameters(tmp_path):
    code = main(
        ["construct", "--family", "random", "--output", str(tmp_path / "x.g")]
    )
    assert code == 2


def test_oracle_exit_codes(tmp_path, c4_file):
    assert main(["oracle", "--k", "2", "--graph", str(c4_file)]) == 0
    lb = tmp_path / "lb.g"
    write_graph(str(lb), general_lower_bound(2))
    assert main(["oracle", "--k", "2", "--graph", str(lb)]) == 1
    assert main(
        ["oracle", "--k", "2", "--graph", str(c4_file), "--node-limit", "1"]
    ) == 3


def test_oracle_json_on_a_certified_infeasible_instance(tmp_path, capsys):
    lb = tmp_path / "lb.g"
    assert main(["construct", "--family", "general-lower", "--k", "2", "--output", str(lb)]) == 0
    capsys.readouterr()
    assert main(["oracle", "--k", "2", "--graph", str(lb), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] is None
    assert payload["oracle"]["limit_hit"] is False


def test_missing_input_file_exits_2(tmp_path, capsys):
    code = main(
        ["colour", "--k", "2", "--input", str(tmp_path / "absent.g"), "--output",
         str(tmp_path / "x.col")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("i/o error")


def test_oracle_rejects_negative_node_limit(c4_file):
    assert main(
        ["oracle", "--k", "2", "--graph", str(c4_file), "--node-limit", "-5"]
    ) == 2


def test_oracle_writes_colouring_and_json(tmp_path, c4_file, capsys):
    out = tmp_path / "c4.col"
    code = main(
        ["oracle", "--k", "2", "--graph", str(c4_file), "--output", str(out),
         "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle"]["limit_hit"] is False
    colouring = parse_colouring(out.read_text())
    assert len(colouring.colours) == 4


def test_sweep_schema_and_content(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--k", "2", "--delta", "4", "--n", "12", "--trials", "3",
         "--seed", "7", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# kmajority-sweep-v1"
    assert lines[1] == "trial,n,m,delta_actual,algorithm,pass,oracle_nodes,oracle_result"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3
    for index, row in enumerate(rows):
        assert row[0] == str(index)
        assert row[4] in {"bipartite", "small-k", "refined", "general"}
        assert row[5] == "true"


def test_sweep_falls_through_to_oracle(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--k", "5", "--delta", "4", "--n", "10", "--trials", "2",
         "--seed", "7", "--node-limit", "500", "--output", str(out)]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    for row in rows:
        assert row[4] == "none"
        assert row[7] in {"found", "infeasible", "limit"}


@pytest.mark.parametrize("limit, result", [("100", "true,26,found"), ("1", ",1,limit")])
def test_sweep_rows_of_the_oracle(tmp_path, limit, result):
    # No scheme applies to a 3-regular graph at k=2; the oracle finds a
    # colouring within 100 nodes and stops at 1.
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--k", "2", "--delta", "3", "--n", "8", "--trials", "1",
         "--seed", "1", "--node-limit", limit, "--output", str(out)]
    )
    assert code == 0
    assert out.read_text().splitlines()[2] == f"0,8,12,3,none,{result}"


def test_sweep_rejects_zero_oracle_colours(tmp_path):
    # No scheme applies at k=3, delta=5, so every trial asks the oracle for
    # the requested colour count; 0 must not silently become k+1.
    for colours in ("0", "-1"):
        code = main(
            ["sweep", "--k", "3", "--delta", "5", "--n", "10", "--trials", "2",
             "--seed", "1", "--oracle-colours", colours, "--output", str(tmp_path / "s.csv")]
        )
        assert code == 2


def test_sweep_rejects_a_negative_trial_count(tmp_path, capsys):
    out = tmp_path / "s.csv"
    base = ["sweep", "--k", "2", "--delta", "3", "--n", "8", "--seed", "1", "--output", str(out)]
    assert main(base + ["--trials", "-3"]) == 2
    assert "trial count must be nonnegative, got -3" in capsys.readouterr().err
    assert not out.exists()
    assert main(base + ["--trials", "0"]) == 0
    assert out.read_text().splitlines() == [SWEEP_SCHEMA, SWEEP_COLUMNS]


def test_usage_error_exits_2():
    assert main(["colour", "--k", "2"]) == 2
    assert main(["unknown"]) == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kmajority", "construct", "--family",
         "general-lower", "--k", "2", "--output", "/dev/null"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "general-lower" in proc.stdout


def test_graph_writer_matches_reader(tmp_path):
    g = general_lower_bound(2)
    path = tmp_path / "g.g"
    write_graph(str(path), g)
    assert read_graph(str(path)) == g
    assert path.read_text() == format_graph(g)
