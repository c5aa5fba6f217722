"""Optimal tree-shaped structures under a decomposable score.

The search space is every structure with in-degree at most 1. A score
factorizes into one weight per vertex: ``root[v]`` when v has no parent,
``arc[u, v]`` when u is its parent. Two learners share the machinery:

* ``learn_optimal_branching``: best forest, solved as a maximum
  arborescence from a virtual root after lowering every arc into v by
  root[v] where it is finite (a -inf shift gives +inf or NaN deltas).
* ``learn_optimal_spanning_tree``: best single connected tree, solved by
  running a fixed-root maximum arborescence from every possible root on
  the raw arc weights and keeping the best.

The arborescence solver contracts cycles iteratively on one dense weight
matrix (Tarjan 1977; Camerini, Fratta & Maffioli 1979). It picks the best
entering arc of every vertex, then contracts the first cycle these arcs
form into one node, until none is left: the node's columns are lowered by
their heads' best weights, and its best entering arc is the first maximum
of its outside x inside block. A stack of contractions is unwound at the
end.
Ties keep the first candidate in scan order (virtual root first, then
arcs by ascending (parent, child)), so results are deterministic. Memory
is O(m^2) for m vertices and nothing recurses. Both learners raise
``InvalidStructureError`` when the best structure scores -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .dataset import DiscreteDataset
from .errors import InvalidStructureError
from .scoring import Criterion, CriterionLike, local_score
from .structures import Branching, find_cycle


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


def _max_arborescence(w: np.ndarray, root: int) -> List[int]:
    """Tail of the chosen arc into each vertex of a maximum arborescence.

    ``w[u, v]`` weighs arc u -> v and is lowered in place; nothing enters
    ``root`` and the diagonal is -inf. A node is a vertex or a contracted
    cycle; ``live`` lists the outermost nodes, and ``label`` names the
    one that holds each vertex.
    """
    m = w.shape[0]
    # Each node's best entering arc (tail, head, weight); ids >= m are cycles.
    tail, head, best = np.zeros(2 * m, int), np.arange(2 * m), np.empty(2 * m)
    # The first maximum down each column is the first in scan order; a
    # column of -inf takes row 0, which in column 0 is the diagonal.
    tail[:m] = w.argmax(axis=0)
    if m > 1 and tail[0] == 0:
        tail[0] = 1
    best[:m] = w[tail[:m], head[:m]]
    label = np.arange(m)
    live = [v for v in range(m) if v != root]
    stack = []
    c = m
    while True:
        parent = label[tail[live]].tolist()
        cycle = find_cycle(dict(zip(live, parent)))
        if cycle is None:
            break
        member = np.zeros(c, dtype=bool)
        member[cycle] = True
        inside = member[label]
        cols, rows = np.flatnonzero(inside), np.flatnonzero(~inside)
        owner = label[cols]
        with np.errstate(over="ignore", invalid="ignore"):
            w[:, cols] -= best[owner]
        # Replay the scan: the first arc wins unless a later one is
        # strictly greater, so a NaN first arc is never beaten.
        block = w[np.ix_(rows, cols)].ravel()
        k = 0
        if block[0] == block[0]:
            block[np.isnan(block)] = -np.inf
            k = int(block.argmax())
        t, h = int(rows[k // cols.size]), int(cols[k % cols.size])
        tail[c], head[c], best[c] = t, h, w[t, h]
        label[cols] = c
        live = [v for v in live if not member[v]] + [c]
        stack.append((c, cols, owner))
        c += 1
    # Unwind: the arc entering a cycle replaces the best arc of the member
    # that holds its head; the other members keep their own.
    for c, cols, owner in reversed(stack):
        x = owner[np.searchsorted(cols, head[c])]
        tail[x], head[x] = tail[c], head[c]
    return tail[:m].tolist()


def learn_optimal_branching(weights: WeightMatrix) -> Tuple[Branching, float]:
    """Highest-scoring forest (in-degree at most 1, any number of roots)."""
    n = weights.num_variables
    shift = np.where(np.isfinite(weights.root), weights.root, 0.0)
    # Row and column 0 are the virtual root, so row-major is scan order.
    w = np.full((n + 1, n + 1), -np.inf)
    with np.errstate(over="ignore"):
        w[0, 1:] = weights.root - shift
        w[1:, 1:] = weights.arc - shift
    tails = _max_arborescence(w, 0)[1:]
    branching = Branching(tuple(None if t == 0 else t - 1 for t in tails))
    score = weights.branching_score(branching)
    if score == -np.inf:
        raise InvalidStructureError("every forest scores -inf")
    return branching, score


def learn_optimal_spanning_tree(weights: WeightMatrix) -> Tuple[Branching, float]:
    """Highest-scoring connected spanning tree (exactly one root).

    Tries every root; ties keep the smallest root index.
    """
    n = weights.num_variables
    trees = []
    for r in range(n):
        tails = _max_arborescence(weights.arc.copy(), r)
        trees.append(Branching(tuple(
            None if v == r else t for v, t in enumerate(tails)
        )))
    scores = [weights.branching_score(tree) for tree in trees]
    best = max(scores)
    if best == -np.inf:
        raise InvalidStructureError("every spanning tree scores -inf")
    return trees[scores.index(best)], best
