import itertools
import math
import random

import numpy as np
import pytest

from pathgm import (
    Branching,
    Criterion,
    InvalidStructureError,
    WeightMatrix,
    build_weights,
    generate_reduction,
    learn_optimal_branching,
    learn_optimal_spanning_tree,
    local_score,
    score_structure,
)
from conftest import path_graph, random_dataset


def _random_weights(rng, n, low=-10.0, high=10.0):
    root = np.array([rng.uniform(low, high) for _ in range(n)])
    arc = np.array([[rng.uniform(low, high) for _ in range(n)] for _ in range(n)])
    return WeightMatrix(criterion=Criterion.ML, root=root, arc=arc)


def _enumerate_branchings(n, connected=False):
    """All acyclic in-degree <= 1 parent maps, optionally single-rooted."""
    choices = [[None] + [u for u in range(n) if u != v] for v in range(n)]
    for combo in itertools.product(*choices):
        if connected and combo.count(None) != 1:
            continue
        try:
            yield Branching(combo)
        except InvalidStructureError:
            continue


def _brute_best(weights, connected=False):
    best = None
    best_score = -math.inf
    for b in _enumerate_branchings(weights.num_variables, connected):
        score = weights.branching_score(b)
        if score > best_score:
            best, best_score = b, score
    return best, best_score


class TestWeightMatrix:
    def test_build_matches_local_scores(self):
        rng = random.Random(3)
        data = random_dataset(rng, num_vars=4, max_cases=60)
        for criterion in Criterion:
            w = build_weights(criterion, data)
            for v in range(4):
                assert w.root[v] == local_score(criterion, data, v)
                for u in range(4):
                    if u != v:
                        assert w.arc[u, v] == local_score(
                            criterion, data, v, (u,)
                        )

    def test_diagonal_is_minus_inf(self):
        rng = random.Random(5)
        w = _random_weights(rng, 4)
        assert np.all(np.isneginf(np.diag(w.arc)))

    def test_single_variable(self):
        rng = random.Random(7)
        data = random_dataset(rng, num_vars=1, max_cases=20, min_card=2)
        w = build_weights("ml", data)
        assert w.num_variables == 1

    def test_shape_validation(self):
        with pytest.raises(InvalidStructureError):
            WeightMatrix(Criterion.ML, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(InvalidStructureError):
            WeightMatrix(Criterion.ML, np.zeros(3), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nan_and_plus_inf_root(self, bad):
        root = np.array([0.0, bad, 1.0])
        with pytest.raises(InvalidStructureError, match="NaN or \\+inf"):
            WeightMatrix(Criterion.ML, root, np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nan_and_plus_inf_arc(self, bad):
        arc = np.zeros((3, 3))
        arc[2, 0] = bad
        with pytest.raises(InvalidStructureError, match="NaN or \\+inf"):
            WeightMatrix(Criterion.ML, np.zeros(3), arc)

    def test_minus_inf_is_legal_and_diagonal_ignored(self):
        arc = np.full((3, 3), -np.inf)
        arc[0, 1] = arc[1, 2] = 1.0
        np.fill_diagonal(arc, np.nan)
        w = WeightMatrix(Criterion.ML, np.array([0.0, -np.inf, 2.0]), arc)
        assert np.all(np.isneginf(np.diag(w.arc)))
        assert w.arc[1, 2] == 1.0 and np.isneginf(w.arc[2, 0])

    def test_branching_score_matches_structure_score(self):
        rng = random.Random(11)
        data = random_dataset(rng, num_vars=5, max_cases=60)
        b = Branching((None, 0, 1, None, 2))
        for criterion in Criterion:
            w = build_weights(criterion, data)
            assert w.branching_score(b) == score_structure(
                criterion, data, b.parent_sets()
            ).value

    def test_reduction_weights_are_symmetric_and_uniform(self):
        data = generate_reduction(path_graph(5))
        for criterion in Criterion:
            w = build_weights(criterion, data)
            assert np.array_equal(w.arc, w.arc.T)
            assert len(set(w.root.tolist())) == 1


class TestBranchingLearner:
    def test_matches_brute_force_on_random_weights(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 5)
            w = _random_weights(rng, n)
            learned, total = learn_optimal_branching(w)
            _, brute_total = _brute_best(w)
            assert total == pytest.approx(brute_total, abs=1e-9)
            assert w.branching_score(learned) == total

    def test_minus_inf_roots_match_brute_force(self):
        # A -inf root once gave +inf and NaN deltas, and a wrong forest.
        rng = np.random.default_rng(61)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            root = rng.integers(-3, 4, size=n) / 2
            arc = rng.integers(-3, 4, size=(n, n)) / 2
            root[rng.random(n) < 0.5] = -np.inf
            arc[rng.random((n, n)) < 0.3] = -np.inf
            w = WeightMatrix(Criterion.ML, root, arc)
            _, brute_total = _brute_best(w)
            if brute_total == -math.inf:
                with pytest.raises(InvalidStructureError, match="every forest"):
                    learn_optimal_branching(w)
                continue
            learned, total = learn_optimal_branching(w)
            assert total == brute_total
            assert w.branching_score(learned) == total

    def test_no_finite_forest_raises(self):
        root = np.array([0.0, -np.inf, 0.0])
        arc = np.zeros((3, 3))
        arc[:, 1] = -np.inf
        w = WeightMatrix(Criterion.ML, root, arc)
        with pytest.raises(InvalidStructureError, match="every forest"):
            learn_optimal_branching(w)

    def test_matches_brute_force_on_random_data(self):
        rng = random.Random(17)
        for _ in range(12):
            data = random_dataset(rng, num_vars=rng.randint(2, 5), max_cases=60)
            for criterion in Criterion:
                w = build_weights(criterion, data)
                learned, total = learn_optimal_branching(w)
                _, brute_total = _brute_best(w)
                assert total == pytest.approx(brute_total, abs=1e-9)

    def test_all_negative_deltas_yield_all_roots(self):
        root = np.array([5.0, 5.0, 5.0])
        arc = np.full((3, 3), 0.0)
        w = WeightMatrix(Criterion.ML, root, arc)
        learned, total = learn_optimal_branching(w)
        assert learned.parent == (None, None, None)
        assert total == 15.0

    def test_zero_delta_tie_prefers_roots(self):
        root = np.zeros(3)
        arc = np.zeros((3, 3))
        w = WeightMatrix(Criterion.ML, root, arc)
        learned, total = learn_optimal_branching(w)
        assert learned.parent == (None, None, None)
        assert total == 0.0

    def test_two_cycle_is_contracted(self):
        root = np.array([0.0, 0.0])
        arc = np.array([[0.0, 10.0], [10.0, 0.0]])
        w = WeightMatrix(Criterion.ML, root, arc)
        learned, total = learn_optimal_branching(w)
        assert learned.parent == (None, 0)
        assert total == 10.0

    def test_three_cycle_is_contracted(self):
        root = np.zeros(3)
        arc = np.array(
            [[0.0, 9.0, 1.0], [1.0, 0.0, 9.0], [9.0, 1.0, 0.0]]
        )
        w = WeightMatrix(Criterion.ML, root, arc)
        learned, total = learn_optimal_branching(w)
        _, brute_total = _brute_best(w)
        assert total == pytest.approx(brute_total, abs=1e-12)
        assert total == 18.0

    def test_ml_deltas_are_nonnegative(self):
        rng = random.Random(19)
        for _ in range(10):
            data = random_dataset(rng, num_vars=4, max_cases=80)
            w = build_weights("ml", data)
            deltas = w.arc - w.root[None, :]
            off_diag = deltas[~np.eye(4, dtype=bool)]
            assert np.all(off_diag >= -1e-9)

    def test_deterministic_repeat(self):
        rng = random.Random(23)
        data = random_dataset(rng, num_vars=5, max_cases=60)
        w = build_weights("bayes", data)
        first = learn_optimal_branching(w)
        second = learn_optimal_branching(w)
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestSpanningTreeLearner:
    def test_two_vertices_picks_best_orientation(self):
        root = np.array([4.0, 1.0])
        arc = np.array([[0.0, 2.0], [7.0, 0.0]])
        w = WeightMatrix(Criterion.ML, root, arc)
        learned, total = learn_optimal_spanning_tree(w)
        # candidates: root at 0 scores 4+2=6, root at 1 scores 1+7=8
        assert learned.parent == (1, None)
        assert total == 8.0

    def test_single_vertex(self):
        w = WeightMatrix(Criterion.ML, np.array([3.5]), np.zeros((1, 1)))
        learned, total = learn_optimal_spanning_tree(w)
        assert learned.parent == (None,)
        assert total == 3.5

    @pytest.mark.parametrize("n", [1, 3])
    def test_no_finite_tree_raises(self, n):
        root = np.full(n, -np.inf) if n == 1 else np.zeros(n)
        arc = np.full((n, n), -np.inf)
        w = WeightMatrix(Criterion.ML, root, arc)
        with pytest.raises(InvalidStructureError, match="every spanning tree"):
            learn_optimal_spanning_tree(w)

    def test_matches_brute_force_on_random_weights(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 5)
            w = _random_weights(rng, n)
            learned, total = learn_optimal_spanning_tree(w)
            _, brute_total = _brute_best(w, connected=True)
            assert total == pytest.approx(brute_total, abs=1e-9)
            assert len(learned.roots) == 1

    def test_matches_brute_force_on_random_data(self):
        rng = random.Random(31)
        for _ in range(9):
            data = random_dataset(rng, num_vars=rng.randint(2, 5), max_cases=50)
            for criterion in Criterion:
                w = build_weights(criterion, data)
                _, total = learn_optimal_spanning_tree(w)
                _, brute_total = _brute_best(w, connected=True)
                assert total == pytest.approx(brute_total, abs=1e-9)

    def test_root_tie_prefers_smallest_index(self):
        w = WeightMatrix(Criterion.ML, np.zeros(3), np.zeros((3, 3)))
        learned, total = learn_optimal_spanning_tree(w)
        assert total == 0.0
        assert learned.roots == (0,)

    def test_branching_dominates_tree(self):
        rng = random.Random(37)
        for _ in range(25):
            n = rng.randint(1, 6)
            w = _random_weights(rng, n)
            _, forest_total = learn_optimal_branching(w)
            _, tree_total = learn_optimal_spanning_tree(w)
            assert forest_total >= tree_total - 1e-9


class TestChowLiuCrossCheck:
    def test_ml_tree_matches_mutual_information_mst(self):
        networkx = pytest.importorskip("networkx")
        rng = random.Random(41)
        for _ in range(8):
            data = random_dataset(
                rng, num_vars=rng.randint(3, 6), max_cases=150, min_cases=20
            )
            n = data.num_variables
            cases = data.cases
            num = data.num_cases

            def mutual_information(i, j):
                joint = {}
                for row in cases.tolist():
                    key = (row[i], row[j])
                    joint[key] = joint.get(key, 0) + 1
                left = {}
                right = {}
                for (a, b), c in joint.items():
                    left[a] = left.get(a, 0) + c
                    right[b] = right.get(b, 0) + c
                total = 0.0
                for (a, b), c in joint.items():
                    total += (c / num) * math.log(
                        c * num / (left[a] * right[b])
                    )
                return total

            graph = networkx.Graph()
            graph.add_nodes_from(range(n))
            for i in range(n):
                for j in range(i + 1, n):
                    graph.add_edge(i, j, weight=mutual_information(i, j))
            mst = networkx.maximum_spanning_tree(graph)
            mi_best = sum(d["weight"] for _, _, d in mst.edges(data=True))

            w = build_weights("ml", data)
            learned, total = learn_optimal_spanning_tree(w)
            mi_learned = sum(
                mutual_information(p, v)
                for v, p in enumerate(learned.parent)
                if p is not None
            )
            assert mi_learned == pytest.approx(mi_best, abs=1e-9)
            marginals = math.fsum(float(x) for x in w.root)
            assert total == pytest.approx(
                marginals + num * mi_learned, abs=1e-6
            )
