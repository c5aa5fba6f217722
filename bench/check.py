"""Correctness checks for the reports the benchmark's jobs write.

``check_report`` re-derives what a report claims from the job's input files,
read here without the program's own parser, and returns the problems it
finds; an empty list means the report is right. The byte-level check, that
a report matches the digest recorded for its input, is ``Digests``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from pathgm import (
    Criterion,
    DiscreteDataset,
    HpInstance,
    generate_reduction,
    score_structure,
)

CONDITIONS = {"i", "ii", "iii", "iv", "v"}


def read_csv(path: str) -> DiscreteDataset:
    """A benchmark CSV: header, ``#card:`` line, then integer rows."""
    with open(path, "r", encoding="utf-8") as handle:
        names = handle.readline().strip().split(",")
        cards = handle.readline().strip()[len("#card:"):].split(",")
        cases = np.loadtxt(handle, delimiter=",", dtype=np.int64, ndmin=2)
    return DiscreteDataset(tuple(names), tuple(int(c) for c in cards), cases)


def read_graph(path: str) -> Tuple[int, List[Tuple[int, int]]]:
    with open(path, "r", encoding="utf-8") as handle:
        n, _ = (int(x) for x in handle.readline().split())
        edges = [tuple(int(x) for x in line.split()) for line in handle]
    return n, edges


def _arg(argv: Sequence[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _path_parents(order: Sequence[int]) -> List[Tuple[int, ...]]:
    sets: List[Tuple[int, ...]] = [()] * len(order)
    for prev, here in zip(order, order[1:]):
        sets[here] = (prev,)
    return sets


def _same_score(problems: List[str], what: str, reported, expected: float) -> None:
    if not (isinstance(reported, float) and reported == expected):
        problems.append(f"{what}: reported {reported!r}, recomputed {expected!r}")


def check_report(job: dict, text: bytes, root: str) -> List[str]:
    """Problems with ``text``, the report of ``job`` run in directory ``root``."""
    argv = job["argv"]
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems: List[str] = []
    if doc.get("command") != argv[0]:
        return [f"command {doc.get('command')!r}, expected {argv[0]!r}"]
    reports = doc.get("reports", [])
    criterion = _arg(argv, "--criterion")
    wanted = [c.value for c in Criterion] if criterion == "all" else [criterion]
    if [r.get("criterion") for r in reports] != wanted:
        problems.append(f"reports are for {[r.get('criterion') for r in reports]}, "
                        f"expected {wanted}")
    if argv[0] == "decide-hp":
        _check_decide(problems, job, reports, os.path.join(root, _arg(argv, "--graph")))
        return problems
    data = read_csv(os.path.join(root, _arg(argv, "--data")))
    for r in reports:
        criterion = r["criterion"]
        if argv[0] == "learn-tree":
            parent = r["parent"]
            roots = [v for v, p in enumerate(parent) if p is None]
            if len(roots) != 1 or r["roots"] != roots:
                problems.append(
                    f"{criterion}: roots {r['roots']}, parents give {roots}")
            sets = [() if p is None else (p,) for p in parent]
        else:
            order = r["order"] if argv[0] == "learn-path" else doc["structure"]["order"]
            if sorted(order) != list(range(data.num_variables)):
                problems.append(f"{criterion}: order is not a permutation")
                continue
            sets = _path_parents(order)
        _same_score(problems, f"{criterion} score", r["score"],
                    score_structure(criterion, data, sets).value)
        if argv[0] == "learn-path":
            if not r["score"] <= r["upper_bound"]:
                problems.append(f"{criterion}: score above upper_bound")
            if r["gap"] != r["upper_bound"] - r["score"]:
                problems.append(f"{criterion}: gap != upper_bound - score")
        if argv[0] == "score":
            expected = [int(v) for v in _arg(argv, "--structure")[5:].split(",")]
            if doc["structure"]["order"] != expected:
                problems.append("structure echo differs from the argument")
            if math.fsum(r["local_scores"]) != r["score"]:
                problems.append(f"{criterion}: local scores do not sum to score")
    return problems


def _check_decide(
    problems: List[str], job: dict, reports: List[dict], graph: str
) -> None:
    n, edges = read_graph(graph)
    edge_set = {tuple(sorted(e)) for e in edges}
    data: Optional[DiscreteDataset] = None
    for r in reports:
        criterion = r["criterion"]
        if set(r["conditions"]) != CONDITIONS or not all(r["conditions"].values()):
            problems.append(f"{criterion}: conditions {r['conditions']}")
        if (r["decision"] == "yes") != job["planted"]:
            problems.append(f"{criterion}: decision {r['decision']}, "
                            f"planted {job['planted']}")
        witness = r["witness"]
        if r["decision"] == "no":
            if witness is not None:
                problems.append(f"{criterion}: 'no' with a witness")
            continue
        if witness is None or sorted(witness) != list(range(n)) or not all(
                tuple(sorted(a)) in edge_set for a in zip(witness, witness[1:])):
            problems.append(f"{criterion}: witness {witness} is not a Hamiltonian path")
            continue
        if data is None:
            data = generate_reduction(HpInstance(n, frozenset(edge_set)))
        _same_score(problems, f"{criterion} optimal_score", r["optimal_score"],
                    score_structure(criterion, data, _path_parents(witness)).value)


def digest(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()


class Digests:
    """Expected report digests, one per pool input.

    Digests recorded for (workload, seed) in ``digests.json`` are what the
    seed program wrote for that input; for other seeds the first report of
    each input in the run becomes its expected digest, so every later
    report must repeat it byte for byte.
    """

    def __init__(self, recorded: Optional[List[str]]) -> None:
        self.recorded = recorded
        self.expected: Dict[int, str] = dict(enumerate(recorded or []))

    @classmethod
    def load(cls, path: str, workload: str, seed: int) -> "Digests":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                table = json.load(handle)
        except FileNotFoundError:
            table = {}
        return cls(table.get(workload, {}).get(str(seed)))

    def matches(self, index: int, value: str) -> bool:
        return self.expected.setdefault(index, value) == value
