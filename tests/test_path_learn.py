import itertools
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgm import (
    Criterion,
    InvalidStructureError,
    PathStructure,
    SolverLimitError,
    WeightMatrix,
    build_weights,
    learn_optimal_branching,
    load_dataset,
    path_score,
    score_structure,
    solve_path_exact,
    solve_path_heuristic,
)
from pathgm import path_learn
from conftest import random_dataset, tree_dataset, weight_matrices
from reference import solve_path_brute
from reference import solve_path_exact as reference_exact
from reference import solve_path_heuristic as reference_heuristic


def _random_weights(rng, n, low=-10.0, high=10.0):
    root = np.array([rng.uniform(low, high) for _ in range(n)])
    arc = np.array([[rng.uniform(low, high) for _ in range(n)] for _ in range(n)])
    return WeightMatrix(criterion=Criterion.ML, root=root, arc=arc)


def _forbidden_weights(forbid, n=3):
    """Every arc, or every root, is -inf, so no path scores above -inf."""
    root, arc = np.zeros(n), np.zeros((n, n))
    if forbid == "arcs":
        arc[:] = -np.inf
    else:
        root[:] = -np.inf
    return WeightMatrix(Criterion.ML, root, arc)


def _factorial_best(weights):
    n = weights.num_variables
    return max(
        path_score(weights, order)
        for order in itertools.permutations(range(n))
    )


class TestPathScore:
    def test_matches_structure_score_exactly(self):
        rng = random.Random(3)
        data = random_dataset(rng, num_vars=5, max_cases=60)
        order = (3, 1, 4, 0, 2)
        sets = PathStructure(order).parent_sets()
        for criterion in Criterion:
            w = build_weights(criterion, data)
            assert path_score(w, order) == score_structure(
                criterion, data, sets
            ).value

    def test_single_vertex_is_root_weight(self):
        w = WeightMatrix(Criterion.ML, np.array([2.5]), np.zeros((1, 1)))
        assert path_score(w, (0,)) == 2.5

    def test_symmetric_arcs_reverse_up_to_root_difference(self):
        rng = random.Random(5)
        n = 6
        raw = np.array([[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)])
        arc = (raw + raw.T) / 2.0
        root = np.array([rng.uniform(-5, 5) for _ in range(n)])
        w = WeightMatrix(Criterion.ML, root, arc)
        for _ in range(10):
            order = list(range(n))
            rng.shuffle(order)
            forward = path_score(w, order)
            backward = path_score(w, order[::-1])
            assert forward - backward == pytest.approx(
                root[order[0]] - root[order[-1]], abs=1e-9
            )


class TestExactSolver:
    def test_known_unique_optimum(self):
        root = np.array([0.0, -100.0, -100.0])
        arc = np.full((3, 3), -100.0)
        arc[0, 1] = 5.0
        arc[1, 2] = 5.0
        w = WeightMatrix(Criterion.ML, root, arc)
        result = solve_path_exact(w)
        assert result.best_path.order == (0, 1, 2)
        assert result.best_score == 10.0
        assert result.exact

    def test_single_vertex(self):
        w = WeightMatrix(Criterion.ML, np.array([1.5]), np.zeros((1, 1)))
        result = solve_path_exact(w)
        assert result.best_path.order == (0,)
        assert result.best_score == 1.5
        assert result.gap >= 0.0

    def test_two_vertices_picks_best_orientation(self):
        root = np.array([1.0, 3.0])
        arc = np.array([[0.0, 4.0], [1.0, 0.0]])
        w = WeightMatrix(Criterion.ML, root, arc)
        result = solve_path_exact(w)
        # order (0,1) scores 1+4=5, order (1,0) scores 3+1=4
        assert result.best_path.order == (0, 1)
        assert result.best_score == 5.0

    def test_matches_factorial_enumeration_on_random_weights(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 7)
            w = _random_weights(rng, n)
            result = solve_path_exact(w)
            assert result.best_score == pytest.approx(
                _factorial_best(w), abs=1e-9
            )
            assert result.best_score == path_score(w, result.best_path.order)

    def test_matches_brute_solver_on_random_data(self):
        rng = random.Random(11)
        for _ in range(10):
            data = random_dataset(rng, num_vars=rng.randint(2, 6), max_cases=60)
            for criterion in Criterion:
                w = build_weights(criterion, data)
                exact = solve_path_exact(w)
                brute = solve_path_brute(w)
                assert exact.best_score == pytest.approx(
                    brute.best_score, abs=1e-9
                )

    def test_limit_refusal_mentions_heuristic(self):
        rng = random.Random(13)
        w = _random_weights(rng, 5)
        with pytest.raises(SolverLimitError, match="heuristic"):
            solve_path_exact(w, limit=4)

    @pytest.mark.parametrize("forbid", ["arcs", "roots"])
    def test_no_finite_path_raises(self, forbid):
        w = _forbidden_weights(forbid)
        with pytest.raises(InvalidStructureError, match="every path"):
            solve_path_exact(w)

    def test_upper_bound_is_branching_score(self):
        rng = random.Random(17)
        for _ in range(10):
            w = _random_weights(rng, rng.randint(1, 6))
            result = solve_path_exact(w)
            _, bound = learn_optimal_branching(w)
            assert result.upper_bound == bound
            assert result.gap == max(bound - result.best_score, 0.0)
            assert result.gap >= 0.0


class TestBruteSolver:
    def test_two_vertex_orientations(self):
        root = np.array([0.0, 2.0])
        arc = np.array([[0.0, 1.0], [10.0, 0.0]])
        w = WeightMatrix(Criterion.ML, root, arc)
        result = solve_path_brute(w)
        assert result.best_path.order == (1, 0)
        assert result.best_score == 12.0
        assert result.exact

    def test_limit_enforced(self):
        rng = random.Random(19)
        with pytest.raises(SolverLimitError):
            solve_path_brute(_random_weights(rng, 10))
        with pytest.raises(SolverLimitError):
            solve_path_brute(_random_weights(rng, 4), limit=3)


class TestHeuristic:
    def test_not_marked_exact_and_bounded(self):
        rng = random.Random(23)
        for _ in range(15):
            w = _random_weights(rng, rng.randint(1, 7))
            exact = solve_path_exact(w)
            heur = solve_path_heuristic(w, restarts=4, seed=1)
            assert not heur.exact
            assert heur.best_score <= exact.best_score + 1e-9
            assert heur.best_score <= heur.upper_bound + 1e-9
            assert heur.gap >= 0.0
            assert heur.best_score == path_score(w, heur.best_path.order)

    def test_tiny_instances_reach_the_optimum(self):
        rng = random.Random(29)
        for n in (1, 2, 3):
            for _ in range(10):
                w = _random_weights(rng, n)
                exact = solve_path_exact(w)
                heur = solve_path_heuristic(w, restarts=1, seed=0)
                assert heur.best_score == pytest.approx(
                    exact.best_score, abs=1e-12
                )

    def test_deterministic_for_fixed_seed(self):
        rng = random.Random(31)
        w = _random_weights(rng, 8)
        a = solve_path_heuristic(w, restarts=6, seed=42)
        b = solve_path_heuristic(w, restarts=6, seed=42)
        assert a.best_path.order == b.best_path.order
        assert a.best_score == b.best_score

    @pytest.mark.parametrize("forbid", ["arcs", "roots"])
    def test_no_finite_path_raises(self, forbid):
        w = _forbidden_weights(forbid)
        with pytest.raises(InvalidStructureError, match="every path"):
            solve_path_heuristic(w, restarts=2)

    def test_restarts_must_be_positive(self):
        rng = random.Random(37)
        w = _random_weights(rng, 4)
        with pytest.raises(ValueError, match="positive"):
            solve_path_heuristic(w, restarts=0)

    def test_starts_are_built_lazily(self, monkeypatch):
        # With the local search stubbed, only the starts take memory: built
        # all at once, 20,000 restarts would hold about 2 MB of orders.
        monkeypatch.setattr(
            path_learn, "_local_search", lambda screen, order: (order, 0.0)
        )
        w = _random_weights(random.Random(43), 6)

        def peak(restarts):
            tracemalloc.start()
            solve_path_heuristic(w, restarts=restarts)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak

        assert peak(20000) < peak(10) + 100_000

    def test_on_dataset_weights(self):
        rng = random.Random(41)
        data = random_dataset(rng, num_vars=6, max_cases=80)
        for criterion in Criterion:
            w = build_weights(criterion, data)
            exact = solve_path_exact(w)
            heur = solve_path_heuristic(w, restarts=8, seed=0)
            assert heur.best_score <= exact.best_score + 1e-9


def _assert_matches_reference(w, restarts, seed):
    assert solve_path_heuristic(w, restarts, seed) == (
        reference_heuristic(w, restarts, seed)
    )


def _trials(order):
    n = len(order)
    for i in range(n):
        for j in range(n):
            if j != i:
                trial = list(order)
                trial.insert(j, trial.pop(i))
                yield trial
    for i in range(n - 1):
        for j in range(i + 1, n):
            yield order[:i] + order[i:j + 1][::-1] + order[j + 1:]


def _plain_score(w, order):
    total = float(w.root[order[0]])
    for u, v in zip(order, order[1:]):
        total += float(w.arc[u, v])
    return total


# Offsets from 1e16, where the float spacing is 2: plain sums lose the
# units that fsum keeps, so the screen's slack decides what survives.
NEAR_TIE_ROOT = [2, -3, -2, -2, -2, 2]
NEAR_TIE_ARC = [
    [3, 1, -3, -3, -1, 0],
    [1, 0, -2, -2, 1, 2],
    [-3, -3, 0, -1, 3, 0],
    [-1, 0, 1, 1, -2, 2],
    [2, 3, 2, -2, -1, 1],
    [1, 1, 3, -1, 3, -3],
]


class TestHeuristicMatchesReference:
    """The screened search returns exactly what scoring every move would."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 24])
    def test_tree_data_every_criterion(self, n):
        data = tree_dataset(seed=n, num_vars=n)
        for criterion in Criterion:
            _assert_matches_reference(build_weights(criterion, data), 2, n)

    def test_integer_tie_heavy_weights(self):
        rng = np.random.default_rng(43)
        for n in range(2, 11):
            root = rng.integers(-2, 3, size=n).astype(float)
            arc = rng.integers(-2, 3, size=(n, n)).astype(float)
            w = WeightMatrix(Criterion.ML, root, arc)
            _assert_matches_reference(w, 3, n)

    @pytest.mark.parametrize("value", [0.0, 7.25, -1e300])
    def test_all_equal_weights(self, value):
        for n in range(1, 9):
            w = WeightMatrix(
                Criterion.ML, np.full(n, value), np.full((n, n), value)
            )
            _assert_matches_reference(w, 2, n)

    def test_near_tie_needs_the_slack(self):
        root = 1e16 + np.array(NEAR_TIE_ROOT, dtype=float)
        arc = 1e16 + np.array(NEAR_TIE_ARC, dtype=float)
        w = WeightMatrix(Criterion.ML, root, arc)
        order = list(range(6))
        plain, exact = _plain_score(w, order), path_score(w, order)
        assert any(
            (_plain_score(w, t) > plain) != (path_score(w, t) > exact)
            for t in _trials(order)
        )
        _assert_matches_reference(w, 2, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_deltas_are_kept(self):
        # Some move deltas overflow to -inf although the move improves and
        # no exact path score overflows.
        root = np.array([-1.5e308, -1e308, 1e308])
        arc = np.array([
            [0.0, 0.0, 1.5e308],
            [0.0, 0.0, 1e308],
            [-1e308, -6e307, 0.0],
        ])
        _assert_matches_reference(WeightMatrix(Criterion.ML, root, arc), 1, 0)

    @settings(max_examples=150, deadline=None)
    @given(
        w=weight_matrices(),
        restarts=st.integers(1, 3),
        seed=st.integers(0, 1000),
    )
    def test_drawn_matrices(self, w, restarts, seed):
        _assert_matches_reference(w, restarts, seed)


def _assert_exact_matches_reference(w):
    """Same result as the push-form DP, or a raise where it has no path.

    The push form returns a one-vertex order when no path is finite, and
    ``_finish`` rejects its -inf score when n = 1.
    """
    try:
        expected = reference_exact(w)
    except InvalidStructureError:
        expected = None
    if expected is None or len(expected.best_path.order) != w.num_variables:
        with pytest.raises(InvalidStructureError, match="every path"):
            solve_path_exact(w)
    else:
        assert solve_path_exact(w) == expected


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


class TestExactMatchesReference:
    """The pull recurrence returns exactly what the push form did."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
    def test_tree_data_every_criterion(self, n):
        data = tree_dataset(seed=n, num_vars=n)
        for criterion in Criterion:
            _assert_exact_matches_reference(build_weights(criterion, data))

    @pytest.mark.parametrize(
        "name", ["mixed", "constant", "copies", "house5", "p4", "star4"]
    )
    def test_golden_datasets_every_criterion(self, name):
        data = load_dataset(str(GOLDEN_INPUTS / f"{name}.csv"))
        for criterion in Criterion:
            _assert_exact_matches_reference(build_weights(criterion, data))

    @pytest.mark.parametrize("step", [1.0, 0.1])
    def test_tie_heavy_steps(self, step):
        rng = np.random.default_rng(47)
        for _ in range(60):
            n = int(rng.integers(1, 10))
            root = rng.integers(-2, 3, size=n) * step
            arc = rng.integers(-2, 3, size=(n, n)) * step
            _assert_exact_matches_reference(WeightMatrix(Criterion.ML, root, arc))

    @pytest.mark.parametrize("value", [0.0, 7.25, -1e300])
    def test_all_equal_weights(self, value):
        for n in range(1, 10):
            _assert_exact_matches_reference(WeightMatrix(
                Criterion.ML, np.full(n, value), np.full((n, n), value)
            ))

    def test_gaussian_weights(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            _assert_exact_matches_reference(WeightMatrix(
                Criterion.ML, rng.normal(size=n), rng.normal(size=(n, n))
            ))

    def test_forbidden_roots_and_arcs(self):
        rng = np.random.default_rng(59)
        raised = 0
        for _ in range(300):
            n = int(rng.integers(1, 7))
            root = rng.integers(-2, 3, size=n).astype(float)
            arc = rng.integers(-2, 3, size=(n, n)).astype(float)
            root[rng.random(n) < 0.3] = -np.inf
            arc[rng.random((n, n)) < 0.6] = -np.inf
            w = WeightMatrix(Criterion.ML, root, arc)
            try:
                solve_path_exact(w)
            except InvalidStructureError:
                raised += 1
            _assert_exact_matches_reference(w)
        assert 0 < raised < 300

    @settings(max_examples=150, deadline=None)
    @given(w=weight_matrices())
    def test_drawn_matrices(self, w):
        _assert_exact_matches_reference(w)
