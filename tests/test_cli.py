import json
import math
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import pathgm
from pathgm import load_dataset
from pathgm.cli import main


DATA_CSV = "A,B,C\n0,1,0\n1,0,1\n1,1,0\n0,0,1\n2,1,0\n2,0,1\n"
P4_GRAPH = "4 3\n0 1\n1 2\n2 3\n"
STAR4_GRAPH = "4 3\n0 1\n0 2\n0 3\n"


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(DATA_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture()
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(P4_GRAPH, encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def assert_one_line_error(capsys, code, expected_code):
    captured = capsys.readouterr()
    assert code == expected_code
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")


class TestScore:
    def test_inline_path(self, capsys, data_file):
        doc = run_json(
            capsys, ["score", "--data", data_file, "--structure", "path:2,0,1"]
        )
        assert doc["tool"] == "pathgm"
        assert doc["version"] == pathgm.__version__
        assert doc["command"] == "score"
        assert doc["structure"] == {"type": "path", "order": [2, 0, 1]}
        assert "sha256" in doc["inputs"]["data"]
        (report,) = doc["reports"]
        assert report["criterion"] == "ml"
        assert report["score"] == pytest.approx(
            math.fsum(report["local_scores"]), abs=1e-12
        )
        assert report["score"] <= 0.0

    def test_structure_json_file(self, capsys, tmp_path, data_file):
        structure_file = tmp_path / "structure.json"
        structure_file.write_text('{"parent": [null, 0, 0]}', encoding="utf-8")
        doc = run_json(
            capsys,
            ["score", "--data", data_file, "--structure", str(structure_file)],
        )
        assert doc["structure"] == {"type": "branching", "parent": [None, 0, 0]}
        assert "structure" in doc["inputs"]

    def test_all_criteria(self, capsys, data_file):
        doc = run_json(
            capsys,
            [
                "score",
                "--data",
                data_file,
                "--structure",
                "path:0,1,2",
                "--criterion",
                "all",
            ],
        )
        assert [r["criterion"] for r in doc["reports"]] == ["ml", "mdl", "bayes"]

    def test_non_permutation_is_a_domain_error(self, capsys, data_file):
        code = main(["score", "--data", data_file, "--structure", "path:0,0,1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert captured.out == ""

    def test_garbled_inline_structure_is_a_parse_error(self, capsys, data_file):
        code = main(["score", "--data", data_file, "--structure", "path:a,b"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_structure_json_without_keys(self, capsys, tmp_path, data_file):
        structure_file = tmp_path / "structure.json"
        structure_file.write_text('{"nodes": [0, 1, 2]}', encoding="utf-8")
        code = main(
            ["score", "--data", data_file, "--structure", str(structure_file)]
        )
        assert code == 2


class TestLearnTree:
    def test_forest_report(self, capsys, data_file):
        doc = run_json(capsys, ["learn-tree", "--data", data_file])
        (report,) = doc["reports"]
        assert report["connected"] is False
        assert len(report["parent"]) == 3
        assert report["roots"]
        assert isinstance(report["score"], float)

    def test_connected_flag(self, capsys, data_file):
        doc = run_json(capsys, ["learn-tree", "--data", data_file, "--connected"])
        (report,) = doc["reports"]
        assert report["connected"] is True
        assert len(report["roots"]) == 1

    def test_mdl_on_empty_dataset_is_a_domain_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("A,B\n#card:2,2\n", encoding="utf-8")
        code = main(["learn-tree", "--data", str(path), "--criterion", "mdl"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err


class TestLearnPath:
    def test_exact_report(self, capsys, data_file):
        doc = run_json(capsys, ["learn-path", "--data", data_file])
        (report,) = doc["reports"]
        assert report["method"] == "exact"
        assert report["exact"] is True
        assert sorted(report["order"]) == [0, 1, 2]
        assert report["gap"] >= 0.0
        assert report["score"] <= report["upper_bound"] + 1e-12

    def test_heuristic_matches_exact_here(self, capsys, data_file):
        exact = run_json(capsys, ["learn-path", "--data", data_file])
        heur = run_json(
            capsys,
            ["learn-path", "--data", data_file, "--method", "heuristic",
             "--restarts", "4", "--seed", "7"],
        )
        assert heur["reports"][0]["exact"] is False
        assert heur["reports"][0]["score"] <= exact["reports"][0]["score"] + 1e-9

    def test_exact_limit_refusal(self, capsys, data_file):
        code = main(
            ["learn-path", "--data", data_file, "--exact-limit", "2"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "heuristic" in captured.err


class TestReduceVerifyDecide:
    def test_round_trip(self, capsys, tmp_path, p4_file):
        out_csv = tmp_path / "reduced.csv"
        doc = run_json(
            capsys, ["reduce", "--graph", p4_file, "--data-out", str(out_csv)]
        )
        assert doc["vertices"] == 4
        assert doc["edges"] == 3
        assert doc["cases"] == 4 * 4 * 3
        assert doc["dataset"]["path"] == str(out_csv)

        data = load_dataset(str(out_csv))
        assert data.num_cases == 48
        assert data.cardinalities == (3, 3, 3, 3)

        verify = run_json(
            capsys, ["verify", "--data", str(out_csv), "--graph", p4_file]
        )
        assert [r["criterion"] for r in verify["reports"]] == ["ml", "mdl", "bayes"]
        for report in verify["reports"]:
            assert all(report["conditions"].values())
            assert report["count_table_ok"] is True
            assert report["separation"] > 0
            assert report["k"] == pytest.approx(
                report["gamma"] + 3 * report["beta"]
            )
            assert "decision" not in report

        decide = run_json(capsys, ["decide-hp", "--graph", p4_file])
        for report in decide["reports"]:
            assert report["decision"] == "yes"
            assert sorted(report["witness"]) == [0, 1, 2, 3]
            assert report["optimal_score"] == pytest.approx(report["k"])

    def test_decide_no_instance(self, capsys, tmp_path):
        graph = tmp_path / "star.txt"
        graph.write_text(STAR4_GRAPH, encoding="utf-8")
        doc = run_json(
            capsys, ["decide-hp", "--graph", str(graph), "--criterion", "ml"]
        )
        (report,) = doc["reports"]
        assert report["decision"] == "no"
        assert report["witness"] is None
        assert report["optimal_score"] < report["k"]

    def test_verify_mismatched_inputs(self, capsys, tmp_path, p4_file, data_file):
        code = main(["verify", "--data", data_file, "--graph", p4_file])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err


class TestPlumbing:
    def test_missing_file_is_a_parse_error(self, capsys, tmp_path):
        code = main(["score", "--data", str(tmp_path / "nope.csv"),
                     "--structure", "path:0,1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n0,x\n", encoding="utf-8")
        code = main(["learn-tree", "--data", str(path)])
        assert code == 2

    def test_malformed_graph(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 9\n", encoding="utf-8")
        code = main(["decide-hp", "--graph", str(path)])
        assert code == 2

    @pytest.mark.parametrize("body", ['{"order": ["x", 1, 2]}', '{"parent": 5}'])
    def test_malformed_structure_json(self, capsys, tmp_path, data_file, body):
        path = tmp_path / "structure.json"
        path.write_text(body, encoding="utf-8")
        code = main(["score", "--data", data_file, "--structure", str(path)])
        assert_one_line_error(capsys, code, 2)

    def test_zero_restarts(self, capsys, data_file):
        code = main(["learn-path", "--data", data_file, "--method", "heuristic",
                     "--restarts", "0"])
        assert_one_line_error(capsys, code, 2)

    def test_python_dash_m_runs_the_cli(self, capsys, p4_file):
        argv = ["decide-hp", "--graph", p4_file, "--criterion", "ml"]
        src = os.path.dirname(os.path.dirname(pathgm.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        run = subprocess.run(
            [sys.executable, "-m", "pathgm", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert run.returncode == 0, run.stderr
        assert main(argv) == 0
        assert run.stdout == capsys.readouterr().out

    def test_cell_past_int64_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("A,B\n100000000000000000000,0\n", encoding="utf-8")
        code = main(["learn-tree", "--data", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert "line 2: column 'A'" in err

    @pytest.mark.parametrize(
        "exc", [MemoryError(), MemoryError("Unable to allocate 240. GiB")]
    )
    def test_out_of_memory_exits_1(self, capsys, monkeypatch, data_file, exc):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(pathgm.cli, "solve_path_exact", exhausted)
        code = main(["learn-path", "--data", data_file])
        assert_one_line_error(capsys, code, 1)

    @pytest.mark.parametrize("n", [1000000000, 3000000000])
    @pytest.mark.parametrize("command", ["reduce", "decide-hp"])
    def test_huge_graph_header_is_out_of_memory(
        self, capsys, monkeypatch, tmp_path, command, n
    ):
        # numpy cannot address these case arrays; the size check must refuse
        # them without asking numpy for any array.
        path = tmp_path / "huge.txt"
        path.write_text(f"{n} 0\n", encoding="utf-8")
        argv = [command, "--graph", str(path)]
        if command == "reduce":
            argv += ["--data-out", str(tmp_path / "out.csv")]
        monkeypatch.setattr(
            pathgm.reduction, "np", SimpleNamespace(iinfo=np.iinfo, intp=np.intp)
        )
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: out of memory: the reduction of {n} vertices needs "
            f"{32 * n * n * (n - 1)} bytes\n"
        )

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_output_file_and_byte_identical_reruns(
        self, capsys, tmp_path, data_file
    ):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        argv = ["learn-path", "--data", data_file, "--criterion", "all"]
        assert main(argv + ["--output", str(out_a)]) == 0
        assert main(argv + ["--output", str(out_b)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert out_a.read_bytes() == out_b.read_bytes()
        doc = json.loads(out_a.read_text(encoding="utf-8"))
        assert doc["command"] == "learn-path"

    def test_stdout_reruns_identical(self, capsys, p4_file):
        assert main(["decide-hp", "--graph", p4_file]) == 0
        first = capsys.readouterr().out
        assert main(["decide-hp", "--graph", p4_file]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.endswith("\n")


class TestDefaults:
    """Omitted flags give the bytes of their documented values."""

    def assert_same_report(self, capsys, argv, explicit):
        assert main(argv) == 0
        implicit_out = capsys.readouterr().out
        assert main(argv + explicit) == 0
        assert capsys.readouterr().out == implicit_out

    @pytest.mark.parametrize(
        "command, extra, explicit",
        [
            ("learn-path", [], ["--method", "exact"]),
            ("learn-path", [], ["--criterion", "ml"]),
            ("learn-tree", [], ["--criterion", "ml"]),
            ("score", ["--structure", "path:2,0,1"], ["--criterion", "ml"]),
        ],
    )
    def test_data_commands(self, capsys, data_file, command, extra, explicit):
        argv = [command, "--data", data_file] + extra
        self.assert_same_report(capsys, argv, explicit)

    def test_heuristic_restarts_and_seed(self, capsys, tmp_path):
        # On these 6 random cases over 30 variables the report changes with
        # either value, so matching bytes pin both.
        rng = random.Random(8)
        lines = [",".join(f"V{i}" for i in range(30))]
        lines += [",".join(str(rng.randrange(4)) for _ in range(30))
                  for _ in range(6)]
        path = tmp_path / "rugged.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["learn-path", "--data", str(path), "--method", "heuristic"]
        self.assert_same_report(capsys, argv, ["--restarts", "8", "--seed", "0"])
        default = run_json(capsys, argv)
        for other in (["--restarts", "4"], ["--seed", "1"]):
            assert run_json(capsys, argv + other) != default

    def test_reduction_commands(self, capsys, tmp_path, p4_file):
        encoded = str(tmp_path / "encoded.csv")
        run_json(capsys, ["reduce", "--graph", p4_file, "--data-out", encoded])
        for argv in (
            ["verify", "--data", encoded, "--graph", p4_file],
            ["decide-hp", "--graph", p4_file],
        ):
            self.assert_same_report(capsys, argv, ["--criterion", "all"])

    @pytest.mark.parametrize("command", ["learn-path", "decide-hp"])
    def test_exact_limit_is_20(self, capsys, monkeypatch, tmp_path, command):
        # 21 vertices: the refusal must come before the solver touches numpy,
        # so before its 2^21-column table exists.
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} used before the limit check")

        if command == "learn-path":
            path = tmp_path / "wide.csv"
            names = [f"V{i}" for i in range(21)]
            row = ["0"] * 21
            path.write_text(f"{','.join(names)}\n{','.join(row)}\n",
                            encoding="utf-8")
            argv = [command, "--data", str(path), "--criterion", "ml"]
        else:
            path = tmp_path / "p21.txt"
            edges = "".join(f"{v} {v + 1}\n" for v in range(20))
            path.write_text(f"21 20\n{edges}", encoding="utf-8")
            argv = [command, "--graph", str(path), "--criterion", "ml"]
            # ... and before the reduction is generated.
            monkeypatch.setattr(pathgm.reduction, "np", NoNumpy())
        monkeypatch.setattr(pathgm.path_learn, "np", NoNumpy())
        errors = []
        for extra in ([], ["--exact-limit", "20"]):
            code = main(argv + extra)
            errors.append(capsys.readouterr().err)
            assert code == 1
        assert errors[0] == errors[1]
        assert "limited to 20 vertices, got 21" in errors[0]
