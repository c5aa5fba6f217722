"""Benchmark workloads: seeded input pools and the CLI jobs run on them.

Each workload is a pool of inputs generated from the workload seed and one
``pathgm`` command line per input. The program sees only the generated
files. Every input draws from its own random stream (``input_stream``), so
the same seed gives byte-identical files.

Run as a script to write one pool (the benchmark does this in a separate
process, so the generator's memory never counts against the program):

    python3 bench/workloads.py --workload tree-wide --seed 1 --out DIR

It writes the input files under DIR/in/ and DIR/manifest.json, which lists
each job's arguments (relative to DIR) and, for ``hp-decide``, the planted
answer. Graph answers are confirmed by exhaustive search before the
manifest is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool: int
    make: Callable[[np.random.Generator, int, str], dict]


def tree_data(
    rng: np.random.Generator, n: int, rows: int, card_lo: int, card_hi: int
) -> Tuple[Tuple[int, ...], np.ndarray]:
    """Rows sampled from a hidden random tree over ``n`` discrete variables.

    Each variable picks a parent among the variables placed before it; its
    conditional table has one Dirichlet(0.5) row per parent value.
    """
    cards = rng.integers(card_lo, card_hi + 1, size=n)
    order = rng.permutation(n)
    cases = np.empty((rows, n), dtype=np.int64)
    root = order[0]
    cases[:, root] = rng.choice(cards[root], size=rows,
                                p=rng.dirichlet(np.ones(cards[root])))
    for k in range(1, n):
        v, parent = order[k], order[rng.integers(0, k)]
        cpt = rng.dirichlet(np.full(cards[v], 0.5), size=cards[parent])
        cdf = np.cumsum(cpt, axis=1)[cases[:, parent]]
        drawn = (rng.random(rows)[:, None] > cdf).sum(axis=1)
        cases[:, v] = np.minimum(drawn, cards[v] - 1)
    return tuple(int(c) for c in cards), cases


def write_csv(path: str, cards: Tuple[int, ...], cases: np.ndarray) -> None:
    """Dataset CSV with a declared-cardinality line, so unseen values keep
    their declared range."""
    names = ",".join(f"V{i}" for i in range(len(cards)))
    lines = [names, "#card:" + ",".join(str(c) for c in cards)]
    lines.extend(",".join(map(str, row)) for row in cases.tolist())
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def planted_graph(rng: np.random.Generator, n: int, m: int) -> List[Tuple[int, int]]:
    """``m`` edges on ``n`` vertices containing a random Hamiltonian path."""
    order = rng.permutation(n)
    edges = {tuple(sorted((int(a), int(b)))) for a, b in zip(order, order[1:])}
    others = [(i, j) for i in range(n) for j in range(i + 1, n)
              if (i, j) not in edges]
    for k in rng.choice(len(others), m - len(edges), replace=False):
        edges.add(others[k])
    return sorted(edges)


def unbalanced_bipartite_graph(
    rng: np.random.Generator, n: int, m: int
) -> List[Tuple[int, int]]:
    """``m`` edges between parts of sizes n/2 - 1 and n/2 + 1.

    A path alternates sides, so the parts of any Hamiltonian path differ in
    size by at most one: such a graph has none by construction.
    """
    perm = rng.permutation(n)
    small, large = perm[: n // 2 - 1], perm[n // 2 - 1:]
    pairs = sorted(tuple(sorted((int(a), int(b)))) for a in small for b in large)
    return sorted(pairs[k] for k in rng.choice(len(pairs), m, replace=False))


def has_hamiltonian_path(n: int, edges: List[Tuple[int, int]]) -> bool:
    """Exhaustive depth-first search, independent of the program under test."""
    adjacent = [set() for _ in range(n)]
    for u, v in edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    used = [False] * n

    def extend(last: int, depth: int) -> bool:
        if depth == n:
            return True
        for v in adjacent[last]:
            if not used[v]:
                used[v] = True
                if extend(v, depth + 1):
                    return True
                used[v] = False
        return False

    for start in range(n):
        used[start] = True
        if extend(start, 1):
            return True
        used[start] = False
    return False


def _tree_wide(rng: np.random.Generator, index: int, out: str) -> dict:
    data = f"in/{index:02d}.csv"
    write_csv(os.path.join(out, data), *tree_data(rng, 32, 4000, 2, 4))
    return {"argv": ["learn-tree", "--data", data, "--connected",
                     "--criterion", "all"]}


def _path_heuristic(rng: np.random.Generator, index: int, out: str) -> dict:
    data = f"in/{index:02d}.csv"
    write_csv(os.path.join(out, data), *tree_data(rng, 24, 1000, 2, 4))
    return {"argv": ["learn-path", "--data", data, "--method", "heuristic",
                     "--criterion", "bayes", "--restarts", "8",
                     "--seed", str(index)]}


def _hp_decide(rng: np.random.Generator, index: int, out: str) -> dict:
    n = 14
    planted = index % 2 == 0
    make = planted_graph if planted else unbalanced_bipartite_graph
    edges = make(rng, n, 2 * n)
    if has_hamiltonian_path(n, edges) != planted:
        raise RuntimeError(f"graph {index}: exhaustive search disagrees "
                           f"with the planted answer {planted}")
    graph = f"in/{index:02d}.txt"
    with open(os.path.join(out, graph), "w", encoding="utf-8") as handle:
        handle.write(f"{n} {len(edges)}\n")
        handle.writelines(f"{u} {v}\n" for u, v in edges)
    return {"argv": ["decide-hp", "--graph", graph, "--criterion", "all"],
            "planted": planted}


def _score_long(rng: np.random.Generator, index: int, out: str) -> dict:
    n = 40
    data = f"in/{index:02d}.csv"
    write_csv(os.path.join(out, data), *tree_data(rng, n, 50000, 2, 4))
    order = ",".join(str(int(v)) for v in rng.permutation(n))
    return {"argv": ["score", "--data", data, "--structure", f"path:{order}",
                     "--criterion", "all"]}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "tree-wide",
            "n^2 short count-table queries and the n-root spanning tree; no "
            "path solver runs, so solver changes must leave it unchanged",
            6, _tree_wide),
        Workload(
            "path-heuristic",
            "local-search move evaluation dominates; shows heuristic and bound "
            "changes while count-table changes barely move it",
            16, _path_heuristic),
        Workload(
            "hp-decide",
            "exact subset DP and the reduction pipeline on tiny tie-heavy "
            "datasets; half the graphs have a Hamiltonian path",
            8, _hp_decide),
        Workload(
            "score-long",
            "CSV parsing and 40 long-column count tables each asked for 6 "
            "times, so the per-dataset stats cache is hit 5 times in 6",
            4, _score_long),
    )
}


def input_stream(seed: int, index: int) -> List[int]:
    """Random stream of pool input ``index``.

    Input 0, the first job of every fresh process, is the same for all
    seeds: ``first_job_s`` is a single job, so it would otherwise measure
    how hard the seed's first input happens to be.
    """
    return [seed, index] if index else [0, 0]


def generate(workload: str, seed: int, out: str) -> List[dict]:
    """Write the pool for ``workload`` under ``out``; return its jobs."""
    spec = WORKLOADS[workload]
    os.makedirs(os.path.join(out, "in"), exist_ok=True)
    jobs = [spec.make(np.random.default_rng(input_stream(seed, index)), index, out)
            for index in range(spec.pool)]
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump({"workload": workload, "seed": seed, "jobs": jobs}, f,
                  indent=1)
    return jobs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
