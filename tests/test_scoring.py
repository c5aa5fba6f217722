import math
import random
from math import factorial

import numpy as np
import pytest

from pathgm import (
    Criterion,
    DiscreteDataset,
    InvalidStructureError,
    UndefinedScoreError,
    compute_stats,
    local_score,
    local_score_bayes,
    local_score_mdl,
    local_score_ml,
    score_structure,
)
from conftest import random_dataset

# Two ternary variables; each of the 8 rows pairs value patterns from the
# edge-type construction block.
EDGE_BLOCK_ROWS = [
    [1, 1], [1, 1], [1, 1], [1, 2], [2, 1], [2, 2], [2, 2], [2, 2],
]


def _uniform_ternary_24():
    rows = [[v] for v in (0, 1, 2) for _ in range(8)]
    return DiscreteDataset(("X",), (3,), rows)


def bayes_rational_oracle(data, target, parents=()):
    """Exact-factorial evaluation of the uniform-prior marginal likelihood."""
    stats = compute_stats(data, target, parents)
    r = data.cardinalities[target]
    numerator = 1
    denominator = 1
    for config, total in stats.parent_counts.items():
        numerator *= factorial(r - 1)
        denominator *= factorial(r - 1 + total)
    for count in stats.joint_counts.values():
        numerator *= factorial(count)
    return math.log(numerator) - math.log(denominator)


class TestMl:
    def test_uniform_ternary_marginal(self):
        data = _uniform_ternary_24()
        value = local_score_ml(data, 0)
        assert value == pytest.approx(24 * math.log(1.0 / 3.0), abs=1e-12)
        assert value == pytest.approx(-26.366694928034633, abs=1e-9)

    def test_edge_block_conditional(self):
        data = DiscreteDataset(("A", "B"), (3, 3), EDGE_BLOCK_ROWS)
        value = local_score_ml(data, 1, (0,))
        expected = 6 * math.log(3.0 / 4.0) + 2 * math.log(1.0 / 4.0)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(-4.498681156950466, abs=1e-9)

    def test_edge_block_marginal_counts_feed_through(self):
        data = DiscreteDataset(("A", "B"), (3, 3), EDGE_BLOCK_ROWS)
        stats = compute_stats(data, 0)
        assert stats.joint_counts == {(1, ()): 4, (2, ()): 4}

    def test_constant_target_scores_zero(self):
        data = DiscreteDataset(("A", "B"), (2, 3), [[0, v % 3] for v in range(9)])
        assert local_score_ml(data, 0) == 0.0
        assert local_score_ml(data, 0, (1,)) == 0.0

    def test_deterministic_dependence_scores_zero(self):
        data = DiscreteDataset(("A", "B"), (2, 2), [[0, 0], [1, 1], [0, 0]])
        assert local_score_ml(data, 1, (0,)) == 0.0

    def test_never_positive_and_empty_data_zero(self):
        rng = random.Random(3)
        for _ in range(15):
            data = random_dataset(rng, max_cases=50)
            target = rng.randrange(data.num_variables)
            assert local_score_ml(data, target) <= 0.0
        empty = DiscreteDataset(("A", "B"), (2, 2), np.empty((0, 2), dtype=int))
        assert local_score_ml(empty, 0) == 0.0
        assert local_score_ml(empty, 0, (1,)) == 0.0

    def test_monotone_under_parent_inclusion(self):
        rng = random.Random(17)
        for _ in range(40):
            data = random_dataset(rng, max_cases=60)
            n = data.num_variables
            target = rng.randrange(n)
            others = [v for v in range(n) if v != target]
            q = tuple(rng.sample(others, rng.randint(1, min(2, len(others)))))
            p = tuple(rng.sample(q, rng.randint(0, len(q) - 1)))
            small = local_score_ml(data, target, p)
            large = local_score_ml(data, target, q)
            assert large >= small - 1e-9 * max(1.0, abs(small))


class TestMdl:
    def test_penalty_no_parents(self):
        data = _uniform_ternary_24()
        ml = local_score_ml(data, 0)
        mdl = local_score_mdl(data, 0)
        assert mdl == ml - 1 * 2 * math.log(24) / 2.0
        assert ml - mdl == pytest.approx(3.1780538303479458, abs=1e-12)

    def test_penalty_binary_target_ternary_parent(self):
        rng = random.Random(1)
        rows = [[rng.randrange(2), rng.randrange(3)] for _ in range(10)]
        data = DiscreteDataset(("A", "B"), (2, 3), rows)
        ml = local_score_ml(data, 0, (1,))
        mdl = local_score_mdl(data, 0, (1,))
        assert ml - mdl == pytest.approx(3 * 1 * math.log(10) / 2.0, abs=1e-12)
        assert ml - mdl == pytest.approx(3.453877639491069, abs=1e-9)

    def test_unit_cardinality_target_has_zero_penalty(self):
        data = DiscreteDataset(("A", "B"), (1, 2), [[0, 1], [0, 0]])
        assert local_score_mdl(data, 0, (1,)) == local_score_ml(data, 0, (1,))

    def test_single_case_penalty_vanishes(self):
        data = DiscreteDataset(("A", "B"), (2, 2), [[0, 1]])
        assert local_score_mdl(data, 0) == local_score_ml(data, 0)

    def test_empty_dataset_is_undefined(self):
        data = DiscreteDataset(("A",), (2,), np.empty((0, 1), dtype=int))
        with pytest.raises(UndefinedScoreError):
            local_score_mdl(data, 0)

    def test_identity_against_ml_random(self):
        rng = random.Random(23)
        for _ in range(25):
            data = random_dataset(rng, max_cases=80)
            n = data.num_variables
            target = rng.randrange(n)
            others = [v for v in range(n) if v != target]
            parents = tuple(
                rng.sample(others, rng.randint(0, min(2, len(others))))
            )
            q = math.prod(data.cardinalities[p] for p in parents)
            penalty = (
                q
                * (data.cardinalities[target] - 1)
                * math.log(data.num_cases)
                / 2.0
            )
            assert local_score_mdl(data, target, parents) == (
                local_score_ml(data, target, parents) - penalty
            )


class TestBayes:
    def test_uniform_ternary_marginal_exact_rational(self):
        data = _uniform_ternary_24()
        value = local_score_bayes(data, 0)
        exact = math.log(2 * factorial(8) ** 3) - math.log(factorial(26))
        assert value == pytest.approx(exact, abs=1e-12)
        assert value == pytest.approx(-28.754745872206307, abs=1e-9)

    def test_binary_pair_single_config(self):
        data = DiscreteDataset(("A", "B"), (2, 2), [[0, 0], [0, 1]])
        value = local_score_bayes(data, 1, (0,))
        assert value == pytest.approx(-math.log(6), abs=1e-12)
        assert value == pytest.approx(-1.791759469228055, abs=1e-9)

    def test_empty_dataset_scores_zero(self):
        data = DiscreteDataset(("A", "B"), (3, 2), np.empty((0, 2), dtype=int))
        assert local_score_bayes(data, 0) == 0.0
        assert local_score_bayes(data, 0, (1,)) == 0.0

    def test_unobserved_parent_configs_contribute_nothing(self):
        narrow = DiscreteDataset(("A", "B"), (2, 2), [[0, 0], [0, 1]])
        declared_wide = DiscreteDataset(("A", "B"), (9, 2), [[0, 0], [0, 1]])
        assert local_score_bayes(narrow, 1, (0,)) == local_score_bayes(
            declared_wide, 1, (0,)
        )

    @pytest.mark.parametrize("r", [10**6, 10**12, 10**17])
    def test_huge_cardinality_does_not_cancel(self, r):
        # lgamma(r) - lgamma(r + N) loses every digit at r = 10^17.
        for n in (2, 7):
            data = DiscreteDataset(("A",), (r,), [[v] for v in range(n)])
            exact = -math.log(math.prod(range(r, r + n)))
            assert local_score_bayes(data, 0) == pytest.approx(exact, rel=1e-13)

    def test_matches_rational_oracle_on_small_datasets(self):
        rng = random.Random(29)
        for _ in range(60):
            data = random_dataset(rng, max_cases=20)
            n = data.num_variables
            target = rng.randrange(n)
            others = [v for v in range(n) if v != target]
            parents = tuple(
                rng.sample(others, rng.randint(0, min(2, len(others))))
            )
            assert local_score_bayes(data, target, parents) == pytest.approx(
                bayes_rational_oracle(data, target, parents), abs=1e-9
            )


class TestDispatchAndStructure:
    def test_dispatch_is_bit_identical(self):
        rng = random.Random(31)
        data = random_dataset(rng, num_vars=3, max_cases=40)
        assert local_score("ml", data, 0, (1,)) == local_score_ml(data, 0, (1,))
        assert local_score(Criterion.MDL, data, 0) == local_score_mdl(data, 0)
        assert local_score("bayes", data, 2) == local_score_bayes(data, 2)

    def test_row_permutation_invariance_is_exact(self):
        rng = random.Random(37)
        data = random_dataset(rng, num_vars=4, max_cases=120)
        perm = list(range(data.num_cases))
        rng.shuffle(perm)
        shuffled = DiscreteDataset(
            data.variable_names, data.cardinalities, data.cases[perm]
        )
        for criterion in Criterion:
            for target in range(4):
                parents = tuple(v for v in (0, 2) if v != target)
                assert local_score(criterion, data, target, parents) == (
                    local_score(criterion, shuffled, target, parents)
                )

    def test_parent_order_invariance_is_exact(self):
        rng = random.Random(41)
        data = random_dataset(rng, num_vars=4, max_cases=100)
        for criterion in Criterion:
            assert local_score(criterion, data, 3, (0, 1, 2)) == (
                local_score(criterion, data, 3, (2, 0, 1))
            )

    def test_structure_score_is_sum_of_locals(self):
        rng = random.Random(43)
        for _ in range(10):
            data = random_dataset(rng, max_cases=60)
            n = data.num_variables
            parent_sets = []
            for v in range(n):
                others = [u for u in range(n) if u != v]
                parent_sets.append(
                    tuple(rng.sample(others, rng.randint(0, min(2, len(others)))))
                )
            for criterion in Criterion:
                total = score_structure(criterion, data, parent_sets)
                assert total.criterion == criterion
                expected = math.fsum(
                    local_score(criterion, data, v, parent_sets[v])
                    for v in range(n)
                )
                assert total.value == expected

    def test_empty_structure_sums_marginals(self):
        rng = random.Random(47)
        data = random_dataset(rng, num_vars=3, max_cases=30)
        total = score_structure("ml", data, [(), (), ()])
        expected = math.fsum(local_score_ml(data, v) for v in range(3))
        assert total.value == expected

    def test_structure_validation(self):
        data = DiscreteDataset(("A", "B"), (2, 2), [[0, 1]])
        with pytest.raises(InvalidStructureError, match="own parent"):
            score_structure("ml", data, [(0,), ()])
        with pytest.raises(InvalidStructureError, match="parent sets"):
            score_structure("ml", data, [()])
        with pytest.raises(InvalidStructureError, match="repeats"):
            score_structure("ml", data, [(1, 1), ()])
        with pytest.raises(InvalidStructureError, match="out of range"):
            score_structure("ml", data, [(5,), ()])

    def test_unknown_criterion_rejected(self):
        data = DiscreteDataset(("A",), (2,), [[0]])
        with pytest.raises(ValueError):
            local_score("aic", data, 0)
