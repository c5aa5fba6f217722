"""Optimal tree-shaped structures under a decomposable score.

The search space is every structure with in-degree at most 1. A score
factorizes into one weight per vertex: ``root[v]`` when v has no parent,
``arc[u, v]`` when u is its parent. Two learners share the machinery:

* ``learn_optimal_branching``: best forest, solved as a maximum
  arborescence from a virtual root whose arcs cost 0 against delta
  weights ``arc[u, v] - root[v]``.
* ``learn_optimal_spanning_tree``: best single connected tree, solved by
  running a fixed-root maximum arborescence from every possible root on
  the raw arc weights and keeping the best.

The arborescence solver is the classic cycle-contraction method: pick the
best entering arc per vertex, contract any cycle, recurse, then unwrap.
Ties always keep the first candidate in scan order (virtual root first,
then arcs by ascending (parent, child)), so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dataset import DiscreteDataset
from .errors import InvalidStructureError
from .scoring import Criterion, CriterionLike, local_score
from .structures import Branching

# Arc tuples are (tail, head, weight, payload); payload wraps the arc one
# contraction level up, None at the outermost level.
_Arc = Tuple[int, int, float, object]


@dataclass(frozen=True)
class WeightMatrix:
    """Per-vertex root weights and per-arc weights for one criterion.

    ``arc[u, v]`` is the local score of v with single parent u; the
    diagonal is -inf and never read. Weights may be -inf (forbidden) but
    not NaN or +inf.
    """

    criterion: Criterion
    root: np.ndarray
    arc: np.ndarray

    def __post_init__(self) -> None:
        root = np.asarray(self.root, dtype=float)
        arc = np.asarray(self.arc, dtype=float)
        n = root.shape[0]
        if root.ndim != 1 or n < 1:
            raise InvalidStructureError("root weights must be a nonempty vector")
        if arc.shape != (n, n):
            raise InvalidStructureError(
                f"arc weights must be {n}x{n}, got {arc.shape}"
            )
        arc = arc.copy()
        np.fill_diagonal(arc, -np.inf)
        # -inf forbids a root or an arc; NaN and +inf have no meaning as a
        # score, and the path heuristic's screen relies on their absence.
        if not ((root < np.inf).all() and (arc < np.inf).all()):
            raise InvalidStructureError("weights must not be NaN or +inf")
        root.setflags(write=False)
        arc.setflags(write=False)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "arc", arc)
        object.__setattr__(self, "criterion", Criterion(self.criterion))

    @property
    def num_variables(self) -> int:
        return int(self.root.shape[0])

    def branching_score(self, branching: Branching) -> float:
        """Total weight of a branching under this matrix (exactly rounded)."""
        if branching.num_vertices != self.num_variables:
            raise InvalidStructureError(
                "branching and weight matrix disagree on vertex count"
            )
        return math.fsum(
            float(self.root[v]) if p is None else float(self.arc[p, v])
            for v, p in enumerate(branching.parent)
        )


def build_weights(criterion: CriterionLike, data: DiscreteDataset) -> WeightMatrix:
    """Compute all no-parent and single-parent local scores for ``data``."""
    criterion = Criterion(criterion)
    n = data.num_variables
    root = np.empty(n, dtype=float)
    arc = np.full((n, n), -np.inf, dtype=float)
    for v in range(n):
        root[v] = local_score(criterion, data, v, ())
    for u in range(n):
        for v in range(n):
            if u != v:
                arc[u, v] = local_score(criterion, data, v, (u,))
    return WeightMatrix(criterion=criterion, root=root, arc=arc)


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


def _find_cycle(
    nodes: Sequence[int], best: Dict[int, _Arc], root: int
) -> Optional[List[int]]:
    color = {v: 0 for v in nodes}  # 0 fresh, 1 on chain, 2 settled
    for start in nodes:
        if start == root or color[start] != 0:
            continue
        chain: List[int] = []
        v = start
        while v != root and color[v] == 0:
            color[v] = 1
            chain.append(v)
            v = best[v][0]
        cycle = None
        if v != root and color[v] == 1:
            cycle = chain[chain.index(v):]
        for u in chain:
            color[u] = 2
        if cycle is not None:
            return cycle
    return None


def _best_arborescence(
    nodes: List[int], arcs: List[_Arc], root: int, next_id: int
) -> Dict[int, _Arc]:
    """Maximum arborescence rooted at ``root``; returns chosen arc per vertex."""
    best = _select_best_in(nodes, arcs, root)
    cycle = _find_cycle(nodes, best, root)
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
    arcs: List[_Arc] = [(rho, v, 0.0, None) for v in range(n)]
    for u in range(n):
        for v in range(n):
            if u != v:
                arcs.append(
                    (u, v, float(weights.arc[u, v] - weights.root[v]), None)
                )
    chosen = _best_arborescence(list(range(n)) + [rho], arcs, rho, n + 1)
    parent: List[Optional[int]] = [None] * n
    for v in range(n):
        if chosen[v][0] != rho:
            parent[v] = chosen[v][0]
    branching = Branching(tuple(parent))
    return branching, weights.branching_score(branching)


def learn_optimal_spanning_tree(weights: WeightMatrix) -> Tuple[Branching, float]:
    """Highest-scoring connected spanning tree (exactly one root).

    Tries every root; ties keep the smallest root index.
    """
    n = weights.num_variables
    if n == 1:
        return Branching((None,)), float(weights.root[0])
    arcs: List[_Arc] = [
        (u, v, float(weights.arc[u, v]), None)
        for u in range(n)
        for v in range(n)
        if u != v
    ]
    best_branching: Optional[Branching] = None
    best_total = -np.inf
    for r in range(n):
        chosen = _best_arborescence(list(range(n)), list(arcs), r, n)
        parent: List[Optional[int]] = [None] * n
        for v in range(n):
            if v != r:
                parent[v] = chosen[v][0]
        candidate = Branching(tuple(parent))
        total = weights.branching_score(candidate)
        if total > best_total:
            best_total = total
            best_branching = candidate
    assert best_branching is not None
    return best_branching, float(best_total)
