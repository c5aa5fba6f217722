"""Optimal and near-optimal path structures over a weight matrix.

A path's score is ``root[first] + sum of arc[prev, next]`` along the order.
Two solvers:

* ``solve_path_exact``: the subset DP (Held & Karp 1962) in pull form,
  ``best[v, S] = max_u best[u, S - {v}] + arc[u, v]``: one 2^n * n float
  table, O(2^n * n^2) time, refused above a vertex limit. Ties go to the
  first predecessor u in ascending order, then to the smallest end.
* ``solve_path_heuristic``: greedy construction from every start vertex
  plus seeded random restarts, polished by first-improvement relocation
  and segment-reversal moves. No optimality guarantee.

The local search screens, then confirms. Each pass computes the float
change of every relocation and every reversal at once, O(n^2) memory, and
scores only the moves that could improve with ``path_score``, in scan
order; the first that beats the current score exactly is taken. The
screen provably keeps every such move, so the result is the same as
scoring every move in scan order.

Every result carries the optimal-forest score as an upper bound; the gap
is how far below that bound the returned path landed (0 does not certify
optimality, since the best forest need not be a path). When the best path
scores -inf, because every path uses a forbidden weight, both solvers
raise ``InvalidStructureError``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvalidStructureError, SolverLimitError
from .structures import PathStructure
from .tree_learn import WeightMatrix, learn_optimal_branching

EXACT_DEFAULT_LIMIT = 20


@dataclass(frozen=True)
class PathSearchResult:
    """Outcome of a path search: the path, its score, and bound context."""

    best_path: PathStructure
    best_score: float
    upper_bound: float
    gap: float
    exact: bool


def path_score(weights: WeightMatrix, order: Sequence[int]) -> float:
    """Score of the path visiting ``order`` under ``weights``.

    Exactly rounded, so reversing an order with symmetric arc weights and
    equal root weights reproduces the identical float.
    """
    terms = [float(weights.root[order[0]])]
    terms.extend(float(weights.arc[u, v]) for u, v in zip(order, order[1:]))
    return math.fsum(terms)


def _finish(
    weights: WeightMatrix, order: Sequence[int], exact: bool
) -> PathSearchResult:
    # The reported score is recomputed from the order so it matches
    # score_structure on the induced parent map bit for bit; the solver's
    # internal running sums only steer the search.
    score = path_score(weights, order)
    if score == -np.inf:
        raise InvalidStructureError("every path scores -inf")
    _, upper = learn_optimal_branching(weights)
    # Paths are a subset of forests, so the bound dominates the score; any
    # negative residue is float noise.
    gap = max(upper - score, 0.0)
    return PathSearchResult(
        PathStructure(tuple(order)), score, upper, gap, exact
    )


def check_exact_limit(n: int, limit: int) -> None:
    """Refuse an exact path search over more than ``limit`` vertices."""
    if n > limit:
        raise SolverLimitError(
            f"exact path search limited to {limit} vertices, got {n}; "
            "use the heuristic for larger instances"
        )


def solve_path_exact(
    weights: WeightMatrix, limit: int = EXACT_DEFAULT_LIMIT
) -> PathSearchResult:
    """Provably optimal path via the subset dynamic program."""
    n = weights.num_variables
    check_exact_limit(n, limit)
    # best[v, S]: best score of a path over the vertex set S that ends at v.
    full = 1 << n
    best = np.full((n, full), -np.inf)
    best[range(n), 1 << np.arange(n)] = weights.root
    # size[S] = |S|, doubled per vertex: the sets holding it come second.
    size = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        size = np.concatenate((size, size + 1))
    for k in range(2, n + 1):
        layer = np.flatnonzero(size == k)
        for v in range(n):
            grown = layer[(layer >> v) & 1 == 1]
            prev = grown ^ 1 << v
            acc = np.full(grown.size, -np.inf)
            reach = np.empty(grown.size)
            for u in range(n):
                if u != v:
                    best[u].take(prev, out=reach)
                    reach += weights.arc[u, v]
                    np.maximum(acc, reach, out=acc)
            best[v, grown] = acc
    # Walk back from the best end, each step to the lowest u attaining it.
    mask, v = full - 1, int(np.argmax(best[:, -1]))
    order = [v]
    while mask != 1 << v:
        value = best[v, mask]
        mask ^= 1 << v
        reach = best[:, mask] + weights.arc[:, v]
        v = next(u for u in range(n) if mask >> u & 1 and reach[u] == value)
        order.append(v)
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


def _relocate(order: List[int], i: int, j: int) -> List[int]:
    trial = list(order)
    trial.insert(j, trial.pop(i))
    return trial


def _reverse(order: List[int], i: int, j: int) -> List[int]:
    return order[:i] + order[i:j + 1][::-1] + order[j + 1:]


class _MoveScreen:
    """Float change of every relocation and every reversal of a path.

    ``table`` spans the vertices plus a virtual start ``n`` with
    ``table[n, v] = root[v]`` and a virtual end ``n + 1`` with
    ``table[v, n + 1] = 0``, so a path's score is the sum of ``table``
    along ``ext = [n, *order, n + 1]``. The real part holds the finite
    weights and the imaginary part marks the forbidden (-inf) ones.
    Complex addition is componentwise, so one gather gives a move's float
    change and its exact change in forbidden arcs.

    Why the screen drops no move that ``path_score`` would accept:
    ``path_score`` rounds the exact sum once, and rounding is monotone, so
    ``path_score(trial) > score`` means the trial has no forbidden arc and,
    if the current path has none either, its exact sum beats the current
    exact sum. That difference is the signed sum of the table entries the
    move changes. A delta adds at most 4n of them, each at most M in
    magnitude, through at most n + 2 roundings of 2**-53, so it lies
    within (n + 2) * 2**-53 * 4n * M * (1 + 1e-9) < ``slack`` of the exact
    difference, and an improving move has delta > -slack. Deltas that
    overflowed are kept; ``path_score`` judges them.
    """

    def __init__(self, weights: WeightMatrix) -> None:
        n = weights.num_variables
        full = np.zeros((n + 2, n + 2))
        full[:n, :n] = weights.arc
        full[n, :n] = weights.root
        np.fill_diagonal(full, 0.0)
        self.weights = weights
        self.table = np.where(np.isneginf(full), 1j, full)
        self.slack = float(
            4.0 * (n + 2) ** 2 * np.finfo(float).eps
            * np.abs(self.table.real).max()
        )
        j = np.arange(n)
        # Gap t lies between ext[t] and ext[t + 1]. A vertex moved from
        # index i to index j lands in gap j below i and gap j + 1 above it.
        self.gap = j + (j >= j[:, None])
        self.legal = (j != j[:, None], j > j[:, None])

    def _relocations(self, ext: np.ndarray) -> np.ndarray:
        """[i, j]: change when the vertex at index i moves to index j."""
        t, x = self.table, ext[1:-1, None]
        before, after = ext[:-2, None], ext[2:, None]
        low, high = ext[self.gap], ext[self.gap + 1]
        return (t[before, after] - t[before, x] - t[x, after]) + (
            (t[low, x] + t[x, high]) - t[low, high]
        )

    def _reversals(self, ext: np.ndarray) -> np.ndarray:
        """[i, j]: change when the segment at indices i..j is reversed."""
        t, x = self.table, ext[1:-1]
        before, after = ext[:-2], ext[2:]
        # Arcs are not symmetric, so every arc inside the segment changes.
        turn = np.cumsum(
            np.concatenate(([0], t[x[1:], x[:-1]] - t[x[:-1], x[1:]]))
        )
        ends = (t[before[:, None], x] + t[x[:, None], after]) - (
            t[before, x][:, None] + t[x, after]
        )
        return ends + (turn - turn[:, None])

    def improve(self, order: List[int], score: float):
        """First move whose exact score beats ``score``, or None.

        Relocations (i, j), j != i, come before reversals (i, j), i < j,
        each in row-major order. Moves that pass the screen are scored
        with ``path_score`` in that order.
        """
        n = len(order)
        ext = np.array([n, *order, n + 1])
        broken = self.table[ext[:-1], ext[1:]].imag.sum()
        scans = zip(
            (self._relocations, self._reversals), self.legal,
            (_relocate, _reverse),
        )
        for deltas, legal, move in scans:
            change = deltas(ext)
            keep = legal & (change.imag == -broken)
            if not broken:
                keep &= (change.real > -self.slack) | ~np.isfinite(change.real)
            for k in np.flatnonzero(keep):
                trial = move(order, *divmod(int(k), n))
                trial_score = path_score(self.weights, trial)
                if trial_score > score:
                    return trial, trial_score
        return None


def _local_search(
    screen: _MoveScreen, order: List[int]
) -> Tuple[List[int], float]:
    score = path_score(screen.weights, order)
    while True:
        moved = screen.improve(order, score)
        if moved is None:
            return order, score
        order, score = moved


def solve_path_heuristic(
    weights: WeightMatrix, restarts: int = 8, seed: int = 0
) -> PathSearchResult:
    """Best path found by greedy starts plus seeded random restarts.

    Deterministic for a fixed (weights, restarts, seed). The returned
    result has ``exact=False`` even if it happens to be optimal.
    """
    if restarts < 1:
        raise ValueError("restarts must be a positive integer")
    n = weights.num_variables
    rng = random.Random(seed)
    screen = _MoveScreen(weights)
    best_order, best_score = _local_search(screen, _greedy_order(weights, 0))
    # Greedy starts from every vertex, then the random restarts, each built
    # just before its search so memory does not grow with ``restarts``.
    for k in range(1, n + restarts):
        if k < n:
            start = _greedy_order(weights, k)
        else:
            start = list(range(n))
            rng.shuffle(start)
        order, score = _local_search(screen, start)
        if score > best_score:
            best_order, best_score = order, score
    return _finish(weights, best_order, exact=False)
