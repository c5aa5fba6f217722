"""Golden CLI reports, compared byte for byte.

Every command runs on the files in ``tests/golden/inputs`` from a scratch
directory, with relative paths, so a report does not depend on where the
checkout lives. The inputs are tie-heavy on purpose: constant columns
(every ml weight is 0), identical columns, and a Hamiltonian-path
reduction dataset, next to one noisy chain.

To re-record after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import shutil
from pathlib import Path

import pytest

from pathgm.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
CRITERIA = ("ml", "mdl", "bayes", "all")
DATASETS = {"mixed": 7, "constant": 6, "copies": 5, "house5": 5}
GRAPHS = ("p4", "star4", "house5")
GRAPH_PAIRS = (
    ("p4", "p4"), ("star4", "star4"), ("house5", "house5"), ("p4", "star4"),
)


def _cases():
    cases = {}
    for name, n in DATASETS.items():
        data = ["--data", f"{name}.csv"]
        backwards = ",".join(str(v) for v in reversed(range(n)))
        variants = {
            "score-path": ["score", *data, "--structure", f"path:{backwards}"],
            "score-tree": ["score", *data, "--structure", f"{name}.tree.json"],
            "learn-forest": ["learn-tree", *data],
            "learn-tree": ["learn-tree", *data, "--connected"],
            "path-exact": ["learn-path", *data, "--method", "exact"],
            "path-heuristic": [
                "learn-path", *data, "--method", "heuristic",
                "--restarts", "3", "--seed", "5",
            ],
        }
        for variant, argv in variants.items():
            for criterion in CRITERIA:
                cases[f"{variant}-{name}-{criterion}"] = (
                    argv + ["--criterion", criterion]
                )
    for graph in GRAPHS:
        cases[f"reduce-{graph}"] = [
            "reduce", "--graph", f"{graph}.txt", "--data-out", "out.csv"
        ]
        for criterion in CRITERIA:
            cases[f"decide-hp-{graph}-{criterion}"] = [
                "decide-hp", "--graph", f"{graph}.txt",
                "--criterion", criterion,
            ]
    # Each reduction dataset against its own graph, and one against a
    # graph of the same size that it does not encode.
    for data, graph in GRAPH_PAIRS:
        for criterion in CRITERIA:
            cases[f"verify-{data}-{graph}-{criterion}"] = [
                "verify", "--data", f"{data}.csv", "--graph", f"{graph}.txt",
                "--criterion", criterion,
            ]
    return cases


CASES = _cases()


def _run(argv, workdir):
    """Report text of one command run inside a copy of the inputs."""
    shutil.copytree(INPUTS, workdir, dirs_exist_ok=True)
    out = os.path.join(workdir, "report.json")
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        assert main(argv + ["--output", "report.json"]) == 0
    finally:
        os.chdir(previous)
    return Path(out).read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path):
    expected = (GOLDEN / f"{case}.json").read_bytes()
    assert _run(CASES[case], tmp_path) == expected


def test_every_golden_has_a_case():
    recorded = {p.stem for p in GOLDEN.glob("*.json")}
    assert recorded == set(CASES)


if __name__ == "__main__":
    import tempfile

    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as workdir:
            (GOLDEN / f"{case}.json").write_bytes(_run(argv, workdir))
