"""Encode a Hamiltonian-path question as a path-learning instance.

``generate_reduction`` turns an undirected graph on n >= 2 vertices into a
ternary dataset with one variable per vertex and 8 cases per vertex pair
(4n(n-1) cases total). In a pair's 8 cases the two paired variables take
values in {1, 2} following one of two fixed blocks (one for edges, one for
non-edges) while every other variable is 0.

The construction makes every variable's no-parent score a common value
gamma, and every single-parent score one of two values: alpha for
non-adjacent pairs, beta for adjacent ones, with alpha < beta. A path
therefore scores gamma + (sum over its n-1 arcs), which is at most
k = gamma + (n-1) * beta, with equality exactly when every arc of the path
is a graph edge. Deciding whether the optimal path reaches k decides
whether the graph has a Hamiltonian path.

``verify_reduction`` measures those properties on an arbitrary
(dataset, graph) pair and reports them without assuming the dataset was
generated here; ``decide_hp`` runs the whole pipeline and cross-checks the
score-level decision against the structural witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .dataset import DiscreteDataset
from .errors import (
    InstanceTooSmallError,
    InvalidQueryError,
    ReductionMismatchError,
)
from .path_learn import (
    EXACT_DEFAULT_LIMIT, PathSearchResult, check_exact_limit, solve_path_exact,
)
from .scoring import Criterion, CriterionLike
from .structures import HpInstance, is_hamiltonian_path
from .tree_learn import WeightMatrix, build_weights

# Value patterns for the paired variables across a pair's 8 cases.
EDGE_BLOCK: Tuple[Tuple[int, int], ...] = (
    (1, 1), (1, 1), (1, 1), (1, 2), (2, 1), (2, 2), (2, 2), (2, 2),
)
NONEDGE_BLOCK: Tuple[Tuple[int, int], ...] = (
    (1, 1), (1, 1), (1, 2), (1, 2), (2, 1), (2, 1), (2, 2), (2, 2),
)

_REL_TOL = 1e-9


def generate_reduction(g: HpInstance) -> DiscreteDataset:
    """Build the ternary dataset encoding ``g``; needs at least 2 vertices."""
    n = g.vertex_count
    if n < 2:
        raise InstanceTooSmallError(
            f"reduction needs at least 2 vertices, got {n}"
        )
    # 4n(n-1) cases of n int64 cells; past the address range numpy would
    # fail with a ValueError instead of a MemoryError.
    size = 32 * n * n * (n - 1)
    if size > np.iinfo(np.intp).max:
        raise MemoryError(f"the reduction of {n} vertices needs {size} bytes")
    rows = np.zeros((4 * n * (n - 1), n), dtype=np.int64)
    at = 0
    for i in range(n):
        for j in range(i + 1, n):
            block = EDGE_BLOCK if g.has_edge(i, j) else NONEDGE_BLOCK
            for a, b in block:
                rows[at, i] = a
                rows[at, j] = b
                at += 1
    names = tuple(f"X{v + 1}" for v in range(n))
    return DiscreteDataset(names, tuple(3 for _ in range(n)), rows)


def expected_pair_table(g: HpInstance, i: int, j: int) -> np.ndarray:
    """Closed-form joint count table of (X_i, X_j) over the whole dataset."""
    n = g.vertex_count
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise InvalidQueryError(f"invalid vertex pair ({i}, {j})")
    table = np.zeros((3, 3), dtype=np.int64)
    table[0, 0] = 4 * (n * n - 5 * n + 6)
    table[0, 1] = table[0, 2] = table[1, 0] = table[2, 0] = 4 * (n - 2)
    if g.has_edge(i, j):
        table[1:, 1:] = [[3, 1], [1, 3]]
    else:
        table[1:, 1:] = [[2, 2], [2, 2]]
    return table


@dataclass(frozen=True)
class ReductionReport:
    """Everything ``verify_reduction`` measured, failures included.

    ``alpha`` is None when the graph has no non-adjacent pair to measure it
    on, and ``beta`` when it has no edge. ``k`` needs ``beta``, and
    ``separation`` (beta - alpha) needs both. ``conditions`` maps each of
    "i".."v" to whether it held.
    """

    criterion: Criterion
    gamma: float
    alpha: Optional[float]
    beta: Optional[float]
    k: Optional[float]
    conditions: Dict[str, bool]
    separation: Optional[float]
    count_table_ok: bool

    def all_conditions_passed(self) -> bool:
        return all(self.conditions.values())

    def to_json_dict(self) -> dict:
        """The report keys that ``verify`` and ``decide-hp`` share."""
        return {
            "criterion": self.criterion.value,
            "gamma": self.gamma,
            "alpha": self.alpha,
            "beta": self.beta,
            "k": self.k,
            "conditions": dict(self.conditions),
        }


def _cluster(values: List[float], tol: float) -> List[List[float]]:
    clusters: List[List[float]] = []
    for v in sorted(values):
        if clusters and v - clusters[-1][-1] <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return clusters


def verify_reduction(
    data: DiscreteDataset, g: HpInstance, criterion: CriterionLike
) -> ReductionReport:
    """Measure the reduction properties of ``data`` against ``g``.

    Five conditions are checked with tolerance 1e-9 relative to the score
    scale; failures are reported, never raised.

    i.   All variables share one cardinality.
    ii.  All no-parent scores agree (their common value is gamma).
    iii. The ordered single-parent scores fall into at most two bands, and
         when the graph has both edges and non-edges, the edge band beta
         lies strictly above the non-edge band alpha.
    iv.  Pair scores are direction-symmetric.
    v.   Every adjacent pair scores beta and every non-adjacent pair scores
         alpha, with no non-adjacent pair reaching beta.

    Count tables are compared exactly against the closed form and reported
    separately, since arbitrary user data need not match them to satisfy
    the score conditions.
    """
    n = g.vertex_count
    if data.num_variables != n:
        raise InvalidQueryError(
            f"dataset has {data.num_variables} variables, graph has {n} vertices"
        )
    return _measure(data, g, build_weights(criterion, data))


def _measure(
    data: DiscreteDataset, g: HpInstance, weights: WeightMatrix
) -> ReductionReport:
    """``verify_reduction`` on the no-parent and single-parent scores in
    ``weights``, which must have been built from ``data``."""
    criterion = weights.criterion
    n = g.vertex_count
    marginals = weights.root.tolist()
    arc = weights.arc.tolist()
    pair: Dict[Tuple[int, int], float] = {
        (i, j): arc[i][j] for i in range(n) for j in range(n) if i != j
    }
    scale = max(
        [1.0]
        + [abs(x) for x in marginals]
        + [abs(x) for x in pair.values()]
    )
    tol = _REL_TOL * scale

    gamma = marginals[0]
    edge_pairs = sorted(g.edges)
    nonedge_pairs = sorted(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not g.has_edge(i, j)
    )
    beta = pair[edge_pairs[0]] if edge_pairs else None
    alpha = pair[nonedge_pairs[0]] if nonedge_pairs else None

    conditions: Dict[str, bool] = {}

    conditions["i"] = len(set(data.cardinalities)) == 1

    spread = max(marginals) - min(marginals) if marginals else 0.0
    conditions["ii"] = spread <= tol

    clusters = _cluster(list(pair.values()), tol)
    if edge_pairs and nonedge_pairs:
        conditions["iii"] = len(clusters) == 2 and beta - alpha > tol
    else:
        conditions["iii"] = len(clusters) <= 1

    asym = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            asym = max(asym, abs(pair[(i, j)] - pair[(j, i)]))
    conditions["iv"] = asym <= tol

    v_ok = True
    for i, j in edge_pairs:
        dev = max(abs(pair[(i, j)] - beta), abs(pair[(j, i)] - beta))
        if dev > tol:
            v_ok = False
    for i, j in nonedge_pairs:
        dev = max(abs(pair[(i, j)] - alpha), abs(pair[(j, i)] - alpha))
        if dev > tol:
            v_ok = False
        if beta is not None and abs(pair[(i, j)] - beta) <= tol:
            v_ok = False
    conditions["v"] = v_ok

    # With every cardinality 3, cell (a, b) of a pair's table is the count
    # of 3a + b.
    cases = data.cases
    count_ok = all(c == 3 for c in data.cardinalities) and all(
        np.array_equal(
            np.bincount(3 * cases[:, i] + cases[:, j], minlength=9).reshape(3, 3),
            expected_pair_table(g, i, j),
        )
        for i in range(n)
        for j in range(i + 1, n)
    )

    k = gamma + (n - 1) * beta if beta is not None else None
    separation = (
        beta - alpha if beta is not None and alpha is not None else None
    )
    return ReductionReport(
        criterion=criterion,
        gamma=gamma,
        alpha=alpha,
        beta=beta,
        k=k,
        conditions=conditions,
        separation=separation,
        count_table_ok=count_ok,
    )


@dataclass(frozen=True)
class HpDecision:
    """Outcome of the end-to-end Hamiltonian-path decision."""

    has_path: bool
    witness: Optional[Tuple[int, ...]]
    report: ReductionReport
    search: Optional[PathSearchResult]


def decide_hp(
    g: HpInstance,
    criterion: CriterionLike,
    exact_limit: int = EXACT_DEFAULT_LIMIT,
) -> HpDecision:
    """Decide Hamiltonian-path existence through the reduction.

    Generates the dataset, verifies it, finds the optimal path structure
    exactly, and answers yes iff that path walks along graph edges. The
    structural answer is cross-checked against the score test
    (optimal score within tolerance of k); disagreement raises, since on
    generated data it would mean a broken invariant. A graph with edges
    and more than ``exact_limit`` vertices is refused before any work.
    """
    if g.edges:
        check_exact_limit(g.vertex_count, exact_limit)
    data = generate_reduction(g)
    weights = build_weights(criterion, data)
    report = _measure(data, g, weights)
    if not (report.all_conditions_passed() and report.count_table_ok):
        failed = [name for name, ok in report.conditions.items() if not ok]
        raise ReductionMismatchError(
            "generated dataset failed its own verification: "
            f"conditions {failed}, count_table_ok={report.count_table_ok}"
        )
    if not g.edges:
        return HpDecision(
            has_path=False, witness=None, report=report, search=None
        )
    search = solve_path_exact(weights, limit=exact_limit)
    order = search.best_path.order
    structural = is_hamiltonian_path(g, order)
    k = report.k
    tol = _REL_TOL * max(1.0, abs(k))
    by_score = search.best_score >= k - tol
    if structural != by_score:
        raise ReductionMismatchError(
            f"structural answer {structural} disagrees with score test "
            f"(score {search.best_score!r} vs k {k!r})"
        )
    if structural and abs(search.best_score - k) > tol:
        raise ReductionMismatchError(
            f"witness path score {search.best_score!r} should equal k {k!r}"
        )
    return HpDecision(
        has_path=structural,
        witness=order if structural else None,
        report=report,
        search=search,
    )
