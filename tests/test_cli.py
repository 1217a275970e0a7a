import csv
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from treemodulus import cli
from treemodulus.cli import main
from treemodulus.errors import (
    DisconnectedGraphError,
    GeneratorError,
    GraphError,
    InvariantViolation,
    ParseError,
    SizeGuardExceeded,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text("0 1\n1 2\n2 0\n")
    return str(path)


@pytest.fixture
def bridge_file(tmp_path):
    path = tmp_path / "bridge.edges"
    path.write_text("0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 3\n")
    return str(path)


@pytest.fixture
def cycle5_file(tmp_path):
    path = tmp_path / "c5.edges"
    path.write_text("".join(f"{i} {(i + 1) % 5}\n" for i in range(5)))
    return str(path)


class TestVuln:
    def test_triangle(self, triangle_file, capsys):
        assert main(["vuln", triangle_file]) == 0
        out = capsys.readouterr().out
        assert "theta = 2/3" in out
        assert "critical edges = 3" in out

    def test_bridge(self, bridge_file, capsys):
        assert main(["vuln", bridge_file]) == 0
        out = capsys.readouterr().out
        assert "theta = 1/1" in out
        assert "critical edges = 1" in out
        assert "2 -- 3" in out

    def test_karate(self, capsys):
        assert main(["vuln", str(FIXTURES / "karate.edges")]) == 0
        out = capsys.readouterr().out
        assert "theta = 1/1" in out
        assert "critical edges = 1" in out
        assert "0 -- 11" in out


class TestModulus:
    def test_json_roundtrip(self, cycle5_file, capsys):
        assert main(["modulus", cycle5_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["modulus"] == {"num": 5, "den": 16}
        etas = [Fraction(item["num"], item["den"]) for item in payload["eta"]]
        assert etas == [Fraction(4, 5)] * 5
        # recomputing the modulus from the eta array reproduces the fraction
        recomputed = 1 / sum(v * v for v in etas)
        assert recomputed == Fraction(payload["modulus"]["num"], payload["modulus"]["den"])
        assert payload["trace"][0]["theta"] == {"num": 4, "den": 5}

    def test_text(self, triangle_file, capsys):
        assert main(["modulus", triangle_file]) == 0
        out = capsys.readouterr().out
        assert "modulus = 3/4" in out
        assert "2/3 x 3" in out

    def test_csv(self, triangle_file, capsys):
        assert main(["modulus", triangle_file, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "# modulus=3/4"
        assert lines[1] == "edge,endpoint_a,endpoint_b,eta_num,eta_den,rho_num,rho_den"
        assert len(lines) == 5

    def test_dot(self, bridge_file, capsys):
        assert main(["modulus", bridge_file, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph modulus {")
        assert '"2" -- "3"' in out
        assert 'label="1/1"' in out
        assert out.count("--") == 7

    def test_deterministic_bytes(self, bridge_file, capsys):
        main(["modulus", bridge_file, "--format", "json"])
        first = capsys.readouterr().out
        main(["modulus", bridge_file, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, triangle_file, tmp_path):
        out_path = tmp_path / "result.json"
        assert main(["modulus", triangle_file, "--format", "json", "--out", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["modulus"] == {"num": 3, "den": 4}

    def test_labels_with_delimiters_and_quotes(self, tmp_path, capsys):
        # a label is any whitespace-free token, so it may hold a comma, a
        # double quote or a backslash
        labels = [("a,x", "b\\y"), ("b\\y", 'c"q'), ('c"q', "a,x")]
        path = tmp_path / "odd.edges"
        path.write_text("".join(f"{a} {b}\n" for a, b in labels))
        assert main(["modulus", str(path), "--format", "csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()[1:]))
        assert all(len(row) == 7 for row in rows)
        assert [tuple(row[1:3]) for row in rows[1:]] == labels
        assert main(["modulus", str(path), "--format", "dot"]) == 0
        quoted = r'"((?:[^"\\]|\\.)*)"'
        edges = re.findall(rf"^  {quoted} -- {quoted} \[", capsys.readouterr().out, re.M)
        unescaped = [tuple(re.sub(r"\\(.)", r"\1", ident) for ident in pair) for pair in edges]
        assert unescaped == labels

    @pytest.mark.parametrize("fmt", ["text", "json", "csv", "dot"])
    def test_karate_golden(self, fmt, capsys):
        # every output, peel trace included, stays byte-identical to the
        # committed karate.modulus.* files
        assert main(["modulus", str(FIXTURES / "karate.edges"), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (FIXTURES / f"karate.modulus.{fmt}").read_bytes()


class TestGenerate:
    def test_complete(self, capsys):
        assert main(["generate", "complete", "--n", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6

    def test_multipartite(self, capsys):
        assert main(["generate", "multipartite", "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8

    def test_gnp_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["generate", "gnp", "--n", "20"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: treemod generate")
        assert "error: gnp requires --seed" in err

    def test_gnp_deterministic(self, capsys):
        main(["generate", "gnp", "--n", "30", "--seed", "7"])
        first = capsys.readouterr().out
        main(["generate", "gnp", "--n", "30", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second
        assert first

    def test_geometric(self, capsys):
        assert main(["generate", "geometric", "--n", "25", "--seed", "3"]) == 0
        assert capsys.readouterr().out


class TestStats:
    def test_karate(self, capsys):
        assert main(["stats", str(FIXTURES / "karate.edges")]) == 0
        out = capsys.readouterr().out
        assert "vertices = 34" in out
        assert "edges = 78" in out
        assert "bridges = 1" in out
        assert "spanning_trees = " in out

    def test_self_loops_counted(self, tmp_path, capsys):
        path = tmp_path / "loops.edges"
        path.write_text("0 0\n0 1\n1 2\n2 0\n")
        assert main(["stats", str(path)]) == 0
        assert "self_loops_dropped = 1" in capsys.readouterr().out


class TestCheck:
    def test_triangle_all_pass(self, triangle_file, capsys):
        assert main(["check", triangle_file]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 9

    def test_guard_exceeded(self, capsys):
        assert main(["check", str(FIXTURES / "karate.edges")]) == 4


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 2\n")
        assert main(["vuln", str(path)]) == 2

    def test_missing_file(self, capsys):
        assert main(["vuln", "/nonexistent/file.edges"]) == 2

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.edges"
        path.write_bytes(b"0 1\n1 caf\xe9\n")
        assert main(["modulus", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 2: not valid UTF-8\n"

    def test_directory(self, tmp_path, capsys):
        assert main(["modulus", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_disconnected(self, tmp_path, capsys):
        path = tmp_path / "disc.edges"
        path.write_text("0 1\n2 3\n")
        assert main(["vuln", str(path)]) == 3
        assert main(["modulus", str(path)]) == 3

    @pytest.mark.parametrize("error, code", [
        (ParseError(7, "bad line"), 2),
        (DisconnectedGraphError("not connected"), 3),
        (SizeGuardExceeded("too large"), 4),
        (GeneratorError("no sample"), 4),
        (InvariantViolation("bug"), 5),
        (FileNotFoundError("no such file"), 2),
        (GraphError("other"), 1),
    ], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value))
    def test_each_error_class(self, error, code, triangle_file, monkeypatch, capsys):
        def fail(_g):
            raise error

        monkeypatch.setattr(cli, "vulnerability", fail)
        assert main(["vuln", triangle_file]) == code
        assert capsys.readouterr().err == f"error: {error}\n"


class TestBench:
    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_reps_below_one_is_a_usage_error(self, reps, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--families", "complete", "--sizes", "4", "--reps", reps,
                  "--out", str(out_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: treemod bench")
        assert f"error: --reps must be at least 1, got {reps}" in err
        assert not out_path.exists()

    def test_empty_sizes_gives_header_only(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        assert main(["bench", "--families", "complete", "--out", str(out_path)]) == 0
        assert out_path.read_text() == "family,n,vertices,edges,nanos,result\n"

    def test_complete_family_rows(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        code = main([
            "bench", "--families", "complete", "--sizes", "3,4,5",
            "--reps", "1", "--out", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "family,n,vertices,edges,nanos,result"
        assert len(lines) == 4
        edges = [int(line.split(",")[3]) for line in lines[1:]]
        assert edges == sorted(edges)  # monotone nondecreasing |E|
        results = [line.split(",")[5] for line in lines[1:]]
        assert results == ["3/4", "2/3", "5/8"]
        err = capsys.readouterr().err
        assert "family=complete" in err

    def test_multiple_families(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        code = main([
            "bench", "--families", "gnp,geometric", "--sizes", "10,12",
            "--reps", "1", "--seed", "5", "--out", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 5


@pytest.mark.parametrize("argv", [
    ["generate", "complete", "--n", "1"],
    ["generate", "gnp", "--n", "1", "--seed", "1"],
    ["generate", "multipartite", "--k", "1"],
    ["bench", "--families", "complete", "--sizes", "1"],
    ["bench", "--families", "nope"],
    ["bench", "--sizes", "3,x"],
])
def test_bad_family_or_size_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: treemod {argv[0]}")
