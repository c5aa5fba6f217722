"""Decomposable structure scores for discrete complete data.

Three local criteria over the (target, parents) count tables, all in
natural log:

* ``ml``: maximized log-likelihood, the sum over joint counts of
  N(v, c) * ln(N(v, c) / N(c)). Never positive; an empty table scores 0.
* ``mdl``: the ml score minus a description-length penalty
  q * (r - 1) * ln(N) / 2, where q is the number of parent configurations
  (product of declared parent cardinalities, 1 for no parents) and r the
  declared target cardinality. Undefined when N = 0.
* ``bayes``: log marginal likelihood under a uniform Dirichlet prior. Each
  observed parent configuration c contributes
  lgamma(r) - lgamma(r + N(c)) + sum_v lgamma(N(v, c) + 1), with the
  first difference summed as -sum_{k < N(c)} ln(r + k) when r > 64 N(c);
  unobserved configurations contribute 0 exactly, and the constant factor
  from the structure prior is dropped.

The score of a whole structure is the sum of local scores, one term per
variable given its parent set. All sums use exactly rounded summation, so
a score never depends on term order: permuting dataset rows or relabeling
the parent order reproduces the same float bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Tuple, Union

from .dataset import DiscreteDataset, compute_stats
from .errors import InvalidStructureError, UndefinedScoreError


class Criterion(str, Enum):
    """Which local score to use."""

    ML = "ml"
    MDL = "mdl"
    BAYES = "bayes"


CriterionLike = Union[Criterion, str]


@dataclass(frozen=True)
class ScoreValue:
    """A structure score, its criterion, and one local score per variable."""

    value: float
    criterion: Criterion
    local_scores: Tuple[float, ...]


def local_score_ml(
    data: DiscreteDataset, target: int, parents: Iterable[int] = ()
) -> float:
    """Maximized log-likelihood of ``target`` given ``parents``."""
    stats = compute_stats(data, target, parents)
    return math.fsum(
        count * math.log(count / stats.parent_counts[config])
        for (_, config), count in stats.joint_counts.items()
    )


def local_score_mdl(
    data: DiscreteDataset, target: int, parents: Iterable[int] = ()
) -> float:
    """ML score minus the description-length penalty for the local table."""
    parents = tuple(parents)
    likelihood = local_score_ml(data, target, parents)
    n = data.num_cases
    if n == 0:
        raise UndefinedScoreError(
            "mdl score is undefined on an empty dataset (ln N has no value)"
        )
    q = math.prod(data.cardinalities[p] for p in parents)
    r = data.cardinalities[target]
    return likelihood - q * (r - 1) * math.log(n) / 2.0


def local_score_bayes(
    data: DiscreteDataset, target: int, parents: Iterable[int] = ()
) -> float:
    """Log marginal likelihood of the local table, uniform Dirichlet prior."""
    stats = compute_stats(data, target, parents)
    r = data.cardinalities[stats.target]
    terms = []
    for total in stats.parent_counts.values():
        # lgamma(r) - lgamma(r + total) keeps a relative error of about
        # eps * r / total, so far above total it is summed term by term.
        if r > 64 * total:
            terms.extend(-math.log(r + k) for k in range(total))
        else:
            terms.append(math.lgamma(r) - math.lgamma(r + total))
    terms.extend(math.lgamma(count + 1) for count in stats.joint_counts.values())
    return math.fsum(terms)


_LOCAL = {
    Criterion.ML: local_score_ml,
    Criterion.MDL: local_score_mdl,
    Criterion.BAYES: local_score_bayes,
}


def local_score(
    criterion: CriterionLike,
    data: DiscreteDataset,
    target: int,
    parents: Iterable[int] = (),
) -> float:
    """Dispatch to the local score named by ``criterion``."""
    return _LOCAL[Criterion(criterion)](data, target, parents)


def score_structure(
    criterion: CriterionLike,
    data: DiscreteDataset,
    parent_sets: Sequence[Iterable[int]],
) -> ScoreValue:
    """Score a structure given as one parent set per variable.

    ``parent_sets[i]`` lists the parents of variable i. The map is checked
    for arity, index range, self-parenting and duplicates; acyclicity is the
    caller's concern since the sum is defined either way.
    """
    criterion = Criterion(criterion)
    sets = [tuple(int(p) for p in ps) for ps in parent_sets]
    n = data.num_variables
    if len(sets) != n:
        raise InvalidStructureError(
            f"structure has {len(sets)} parent sets, dataset has {n} variables"
        )
    for i, ps in enumerate(sets):
        if i in ps:
            raise InvalidStructureError(f"variable {i} is its own parent")
        if len(set(ps)) != len(ps):
            raise InvalidStructureError(f"variable {i} repeats a parent")
        for p in ps:
            if not 0 <= p < n:
                raise InvalidStructureError(
                    f"variable {i}: parent index {p} out of range [0, {n})"
                )
    terms = tuple(
        local_score(criterion, data, i, ps) for i, ps in enumerate(sets)
    )
    return ScoreValue(math.fsum(terms), criterion, terms)
