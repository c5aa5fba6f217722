"""Slow reference solvers that the tests compare the package against.

``solve_path_brute`` scores every permutation. ``solve_path_exact`` is
the subset DP in push form, one Python step per mask with a back-pointer
table: the pull recurrence in ``pathgm.path_learn`` must return an
identical result. ``solve_path_heuristic`` is the local search that
scores every trial move with ``path_score`` in scan order: the screened
search in ``pathgm.path_learn`` must return an identical result.
``learn_optimal_branching`` and ``learn_optimal_spanning_tree`` solve
each level of the cycle contraction afresh from a list of arc tuples and
recurse: the iterative dense solver in ``pathgm.tree_learn`` must return
an identical result.
"""

import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from pathgm import (
    Branching,
    InvalidStructureError,
    PathSearchResult,
    SolverLimitError,
    WeightMatrix,
    path_score,
)
from pathgm.path_learn import _finish
from pathgm.structures import find_cycle

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


def solve_path_exact(weights: WeightMatrix) -> PathSearchResult:
    """Subset DP that pushes every (mask, end) state to its successors.

    Each stored predecessor is the first-index argmax over the members
    of the mask. When no path has a finite score the back pointers are
    never set, and the walk back returns a one-vertex order.
    """
    n = weights.num_variables
    full = 1 << n
    dp = np.full((full, n), -np.inf)
    back = np.full((full, n), -1, dtype=np.int8)
    for v in range(n):
        dp[1 << v, v] = weights.root[v]
    for mask in range(1, full):
        members = [v for v in range(n) if mask & (1 << v)]
        if len(members) == n:
            break
        candidates = dp[mask, members][:, None] + weights.arc[members, :]
        best = candidates.max(axis=0)
        origin = candidates.argmax(axis=0)
        for v in range(n):
            if mask & (1 << v):
                continue
            grown = mask | (1 << v)
            if best[v] > dp[grown, v]:
                dp[grown, v] = best[v]
                back[grown, v] = members[origin[v]]
    full_mask = full - 1
    end = int(np.argmax(dp[full_mask]))
    order: List[int] = []
    mask, v = full_mask, end
    while v != -1:
        order.append(v)
        prev = int(back[mask, v])
        mask ^= 1 << v
        v = prev
    order.reverse()
    return _finish(weights, order, exact=True)


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


# Arc tuples are (tail, head, weight, payload); payload wraps the arc one
# contraction level up, None at the outermost level.
_Arc = Tuple[int, int, float, object]


def _select_best_in(
    nodes: Sequence[int], arcs: List[_Arc], root: int
) -> Dict[int, _Arc]:
    best: Dict[int, _Arc] = {}
    for a in arcs:
        tail, head = a[0], a[1]
        if head == root or tail == head:
            continue
        cur = best.get(head)
        if cur is None or a[2] > cur[2]:
            best[head] = a
    for v in nodes:
        if v != root and v not in best:
            raise InvalidStructureError(f"no arc enters vertex {v}")
    return best


def _best_arborescence(
    nodes: List[int], arcs: List[_Arc], root: int, next_id: int
) -> Dict[int, _Arc]:
    """Maximum arborescence rooted at ``root``; returns chosen arc per vertex."""
    best = _select_best_in(nodes, arcs, root)
    cycle = find_cycle({v: best[v][0] for v in nodes if v != root})
    if cycle is None:
        return best

    c = next_id
    in_cycle = set(cycle)
    contracted: List[_Arc] = []
    for a in arcs:
        tail, head, weight, _ = a
        new_tail = c if tail in in_cycle else tail
        new_head = c if head in in_cycle else head
        if new_tail == new_head:
            continue
        if new_head == c:
            contracted.append((new_tail, c, weight - best[head][2], a))
        else:
            contracted.append((new_tail, new_head, weight, a))
    new_nodes = [v for v in nodes if v not in in_cycle] + [c]
    sub = _best_arborescence(new_nodes, contracted, root, next_id + 1)

    chosen: Dict[int, _Arc] = {}
    entering: Optional[_Arc] = None
    for v, a in sub.items():
        original = a[3]
        if v == c:
            entering = original
        else:
            chosen[v] = original
    assert entering is not None
    broken = entering[1]  # cycle vertex that now takes the outside parent
    chosen[broken] = entering
    for v in cycle:
        if v != broken:
            chosen[v] = best[v]
    return chosen


def learn_optimal_branching(weights: WeightMatrix) -> Tuple[Branching, float]:
    """Highest-scoring forest (in-degree at most 1, any number of roots)."""
    n = weights.num_variables
    rho = n
    shift = np.where(np.isfinite(weights.root), weights.root, 0.0)
    arcs: List[_Arc] = [
        (rho, v, float(weights.root[v] - shift[v]), None) for v in range(n)
    ]
    for u in range(n):
        for v in range(n):
            if u != v:
                arcs.append((u, v, float(weights.arc[u, v] - shift[v]), None))
    chosen = _best_arborescence(list(range(n)) + [rho], arcs, rho, n + 1)
    tails = [chosen[v][0] for v in range(n)]
    branching = Branching(tuple(None if u == rho else u for u in tails))
    score = weights.branching_score(branching)
    if score == -np.inf:
        raise InvalidStructureError("every forest scores -inf")
    return branching, score


def learn_optimal_spanning_tree(weights: WeightMatrix) -> Tuple[Branching, float]:
    """Highest-scoring connected spanning tree (exactly one root).

    Tries every root; ties keep the smallest root index.
    """
    n = weights.num_variables
    arcs: List[_Arc] = [
        (u, v, float(weights.arc[u, v]), None)
        for u in range(n)
        for v in range(n)
        if u != v
    ]
    trees = []
    for r in range(n):
        chosen = _best_arborescence(list(range(n)), list(arcs), r, n)
        parent = (None if v == r else chosen[v][0] for v in range(n))
        trees.append(Branching(tuple(parent)))
    # max keeps the first of equal scores, so the smallest root wins ties.
    tree = max(trees, key=weights.branching_score)
    score = weights.branching_score(tree)
    if score == -np.inf:
        raise InvalidStructureError("every spanning tree scores -inf")
    return tree, score
