"""Slow reference solvers that the tests compare the package against.

``solve_path_brute`` scores every permutation. ``solve_path_heuristic``
is the local search that scores every trial move with ``path_score`` in
scan order: the screened search in ``pathgm.path_learn`` must return an
identical result.
"""

import itertools
import random
from typing import List, Tuple

import numpy as np

from pathgm import PathSearchResult, SolverLimitError, WeightMatrix, path_score
from pathgm.path_learn import _finish

BRUTE_DEFAULT_LIMIT = 9


def solve_path_brute(
    weights: WeightMatrix, limit: int = BRUTE_DEFAULT_LIMIT
) -> PathSearchResult:
    """Optimal path by scoring all n! orders; only for cross-checks."""
    n = weights.num_variables
    if n > limit:
        raise SolverLimitError(
            f"brute-force path search limited to {limit} vertices, got {n}"
        )
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    scores = weights.root[perms[:, 0]].copy()
    if n > 1:
        scores += weights.arc[perms[:, :-1], perms[:, 1:]].sum(axis=1)
    idx = int(np.argmax(scores))
    return _finish(weights, perms[idx].tolist(), exact=True)


def _greedy_order(weights: WeightMatrix, start: int) -> List[int]:
    n = weights.num_variables
    order = [start]
    remaining = [v for v in range(n) if v != start]
    while remaining:
        last = order[-1]
        best = remaining[0]
        for v in remaining[1:]:
            if weights.arc[last, v] > weights.arc[last, best]:
                best = v
        order.append(best)
        remaining.remove(best)
    return order


def relocate_once(weights: WeightMatrix, order: List[int], score: float):
    n = len(order)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            trial = list(order)
            v = trial.pop(i)
            trial.insert(j, v)
            trial_score = path_score(weights, trial)
            if trial_score > score:
                return trial, trial_score
    return None


def reverse_once(weights: WeightMatrix, order: List[int], score: float):
    n = len(order)
    for i in range(n - 1):
        for j in range(i + 1, n):
            trial = order[:i] + order[i:j + 1][::-1] + order[j + 1:]
            trial_score = path_score(weights, trial)
            if trial_score > score:
                return trial, trial_score
    return None


def local_search(
    weights: WeightMatrix, order: List[int]
) -> Tuple[List[int], float]:
    score = path_score(weights, order)
    while True:
        moved = relocate_once(weights, order, score)
        if moved is None:
            moved = reverse_once(weights, order, score)
        if moved is None:
            return order, score
        order, score = moved


def solve_path_heuristic(
    weights: WeightMatrix, restarts: int = 8, seed: int = 0
) -> PathSearchResult:
    """First-improvement local search scoring every trial exactly."""
    n = weights.num_variables
    rng = random.Random(seed)
    starts = [_greedy_order(weights, s) for s in range(n)]
    for _ in range(restarts):
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        starts.append(shuffled)
    best_order: List[int] = []
    best_score = -np.inf
    for start in starts:
        order, score = local_search(weights, list(start))
        if score > best_score:
            best_order, best_score = order, score
    return _finish(weights, best_order, exact=False)
