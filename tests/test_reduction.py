import math
import random
from collections import Counter

import numpy as np
import pytest

from pathgm import (
    EDGE_BLOCK,
    NONEDGE_BLOCK,
    Criterion,
    DiscreteDataset,
    HpInstance,
    InstanceTooSmallError,
    InvalidQueryError,
    SolverLimitError,
    build_weights,
    brute_force_hp,
    compute_stats,
    decide_hp,
    expected_pair_table,
    generate_reduction,
    is_hamiltonian_path,
    path_score,
    solve_path_heuristic,
    verify_reduction,
)
from conftest import complete_graph, cycle_graph, path_graph, random_graph, star_graph

# Frozen constants for the 3-vertex instance (24 cases, counts 8/8/8 per
# variable, pair tables with corner 0 and borders 4).
GAMMA_ML_N3 = -26.366694928034633        # 24 * ln(1/3)
BETA_ML_N3 = -21.134213490389154         # 6 ln 3 - 40 ln 2
ALPHA_ML_N3 = -22.18070977791825         # -32 ln 2
K_ML_N3 = -68.63512190881295             # gamma + 2 * beta
SEP_ML_N3 = 1.046496287529095            # 6 ln 3 - 8 ln 2
GAMMA_BAYES_N3 = -28.754745872206307     # ln(2! * 8!^3 / 26!)
SEP_BAYES_N3 = 0.8109302162163288        # 2 ln(3/2)


def _tally_pair(data, i, j):
    """Joint count table of (value_i, value_j) straight from the raw rows."""
    table = np.zeros((data.cardinalities[i], data.cardinalities[j]), dtype=np.int64)
    for row in data.cases:
        table[row[i], row[j]] += 1
    return table


class TestBlocks:
    def test_multisets(self):
        assert Counter(EDGE_BLOCK) == Counter(
            {(1, 1): 3, (2, 2): 3, (1, 2): 1, (2, 1): 1}
        )
        assert Counter(NONEDGE_BLOCK) == Counter(
            {(1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 2}
        )

    def test_shape_and_values(self):
        for block in (EDGE_BLOCK, NONEDGE_BLOCK):
            assert len(block) == 8
            assert all(v in (1, 2) for pair in block for v in pair)


class TestGenerate:
    def test_too_small(self):
        with pytest.raises(InstanceTooSmallError):
            generate_reduction(HpInstance(1, frozenset()))

    def test_shape_names_cards(self):
        g = path_graph(5)
        data = generate_reduction(g)
        assert data.num_cases == 4 * 5 * 4
        assert data.variable_names == ("X1", "X2", "X3", "X4", "X5")
        assert data.cardinalities == (3, 3, 3, 3, 3)

    def test_each_case_touches_exactly_one_pair(self):
        data = generate_reduction(random_graph(random.Random(0), 6))
        assert ((data.cases != 0).sum(axis=1) == 2).all()

    def test_marginal_counts(self):
        for g in (path_graph(4), complete_graph(5), HpInstance(3, frozenset())):
            n = g.vertex_count
            data = generate_reduction(g)
            for v in range(n):
                stats = compute_stats(data, v)
                assert stats.joint_counts[(0, ())] == 4 * (n - 1) * (n - 2)
                assert stats.joint_counts[(1, ())] == 4 * (n - 1)
                assert stats.joint_counts[(2, ())] == 4 * (n - 1)

    def test_pair_tables_match_closed_form(self):
        rng = random.Random(5)
        for n in range(3, 8):
            g = random_graph(rng, n)
            data = generate_reduction(g)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert np.array_equal(
                            _tally_pair(data, i, j), expected_pair_table(g, i, j)
                        )

    def test_edge_vs_nonedge_inner_blocks(self):
        g = HpInstance(4, frozenset({(0, 1)}))
        edge = expected_pair_table(g, 0, 1)
        non = expected_pair_table(g, 2, 3)
        assert np.array_equal(edge[1:, 1:], [[3, 1], [1, 3]])
        assert np.array_equal(non[1:, 1:], [[2, 2], [2, 2]])
        assert edge.sum() == non.sum() == 4 * 4 * 3

    def test_expected_table_rejects_bad_pairs(self):
        g = path_graph(3)
        with pytest.raises(InvalidQueryError):
            expected_pair_table(g, 1, 1)
        with pytest.raises(InvalidQueryError):
            expected_pair_table(g, 0, 3)


class TestFrozenConstants:
    """The 3-vertex path instance has closed-form score constants."""

    @pytest.fixture()
    def reports(self):
        g = path_graph(3)
        data = generate_reduction(g)
        return {c: verify_reduction(data, g, c) for c in Criterion}

    def test_ml_constants(self, reports):
        r = reports[Criterion.ML]
        assert r.gamma == pytest.approx(GAMMA_ML_N3, abs=1e-9)
        assert r.gamma == pytest.approx(24 * math.log(1 / 3), abs=1e-9)
        assert r.beta == pytest.approx(BETA_ML_N3, abs=1e-9)
        assert r.beta == pytest.approx(
            6 * math.log(3) - 40 * math.log(2), abs=1e-9
        )
        assert r.alpha == pytest.approx(ALPHA_ML_N3, abs=1e-9)
        assert r.alpha == pytest.approx(-32 * math.log(2), abs=1e-9)
        assert r.k == r.gamma + 2 * r.beta
        assert r.k == pytest.approx(K_ML_N3, abs=1e-9)
        assert r.separation == pytest.approx(SEP_ML_N3, abs=1e-9)
        assert r.separation == pytest.approx(
            6 * math.log(3) - 8 * math.log(2), abs=1e-9
        )

    def test_mdl_shifts_ml_by_the_penalty(self, reports):
        ml = reports[Criterion.ML]
        mdl = reports[Criterion.MDL]
        # no-parent penalty: 1 * (3 - 1) * ln 24 / 2 = ln 24
        assert mdl.gamma == ml.gamma - math.log(24)
        # single ternary parent: q = 3, so the penalty triples
        assert mdl.beta == ml.beta - 3 * math.log(24)
        assert mdl.alpha == ml.alpha - 3 * math.log(24)
        assert reports[Criterion.MDL].separation == pytest.approx(
            SEP_ML_N3, abs=1e-9
        )

    def test_bayes_constants(self, reports):
        r = reports[Criterion.BAYES]
        assert r.gamma == pytest.approx(GAMMA_BAYES_N3, abs=1e-9)
        assert r.gamma == pytest.approx(
            math.log(2) + 3 * math.lgamma(9) - math.lgamma(27), abs=1e-9
        )
        assert r.separation == pytest.approx(SEP_BAYES_N3, abs=1e-9)
        assert r.separation == pytest.approx(2 * math.log(1.5), abs=1e-9)

    def test_all_reports_clean(self, reports):
        for r in reports.values():
            assert r.all_conditions_passed()
            assert r.count_table_ok
            assert r.separation > 0


class TestVerify:
    def test_generated_instances_pass_everywhere(self):
        rng = random.Random(9)
        graphs = [path_graph(4), star_graph(5), cycle_graph(5)]
        graphs += [random_graph(rng, rng.randint(3, 6), p=0.5) for _ in range(4)]
        for g in graphs:
            n = g.vertex_count
            if not g.edges or len(g.edges) == n * (n - 1) // 2:
                continue
            data = generate_reduction(g)
            for criterion in Criterion:
                report = verify_reduction(data, g, criterion)
                assert report.all_conditions_passed(), report.conditions
                assert report.count_table_ok
                assert report.separation > 0
                assert report.k == pytest.approx(
                    report.gamma + (n - 1) * report.beta
                )

    def test_complete_graph_has_no_alpha(self):
        g = complete_graph(4)
        report = verify_reduction(generate_reduction(g), g, Criterion.ML)
        assert report.alpha is None
        assert report.beta is not None
        assert report.k is not None
        assert report.separation is None
        assert report.all_conditions_passed()
        assert report.count_table_ok

    def test_empty_graph_has_no_beta(self):
        g = HpInstance(4, frozenset())
        report = verify_reduction(generate_reduction(g), g, Criterion.ML)
        assert report.beta is None
        assert report.k is None
        assert report.separation is None
        assert report.all_conditions_passed()

    def test_variable_count_mismatch_raises(self):
        data = generate_reduction(path_graph(3))
        with pytest.raises(InvalidQueryError, match="4 vertices"):
            verify_reduction(data, path_graph(4), Criterion.ML)

    def test_corrupted_cases_fail_without_raising(self):
        g = path_graph(4)
        clean = generate_reduction(g)
        rows = clean.cases.copy()
        rows[0, 3] = 1  # a third variable goes nonzero inside another pair's case
        dirty = DiscreteDataset(
            clean.variable_names, clean.cardinalities, rows
        )
        report = verify_reduction(dirty, g, Criterion.ML)
        assert not report.count_table_ok
        assert not report.all_conditions_passed()

    def test_mixed_cardinalities_fail_condition_i(self):
        data = DiscreteDataset(
            ("A", "B", "C"), (3, 3, 2), np.zeros((4, 3), dtype=np.int64)
        )
        report = verify_reduction(data, path_graph(3), Criterion.ML)
        assert not report.conditions["i"]
        assert not report.count_table_ok

    def test_arbitrary_dataset_reports_failures(self):
        rng = random.Random(13)
        rows = np.array(
            [[rng.randrange(3) for _ in range(4)] for _ in range(50)],
            dtype=np.int64,
        )
        data = DiscreteDataset(("A", "B", "C", "D"), (3, 3, 3, 3), rows)
        report = verify_reduction(data, path_graph(4), Criterion.ML)
        assert not (report.all_conditions_passed() and report.count_table_ok)

    def test_json_dict_shapes(self):
        g = path_graph(3)
        report = verify_reduction(generate_reduction(g), g, Criterion.ML)
        plain = report.to_json_dict()
        assert set(plain) == {
            "criterion", "gamma", "alpha", "beta", "k", "conditions"
        }
        assert plain["criterion"] == "ml"
        assert set(plain["conditions"]) == {"i", "ii", "iii", "iv", "v"}
        assert all(isinstance(v, bool) for v in plain["conditions"].values())


class TestWeightSymmetry:
    """Generated instances give exactly symmetric arc weights, which makes
    path scores exactly reversal-invariant."""

    def test_arc_matrix_symmetric_and_root_uniform(self):
        rng = random.Random(17)
        for _ in range(3):
            g = random_graph(rng, rng.randint(3, 6))
            data = generate_reduction(g)
            for criterion in Criterion:
                w = build_weights(criterion, data)
                assert np.array_equal(w.arc, w.arc.T)
                assert len(set(w.root.tolist())) == 1

    def test_path_score_reversal_invariant(self):
        rng = random.Random(19)
        g = random_graph(rng, 5, p=0.5)
        data = generate_reduction(g)
        for criterion in Criterion:
            w = build_weights(criterion, data)
            for _ in range(10):
                order = list(range(5))
                rng.shuffle(order)
                order = tuple(order)
                assert path_score(w, order) == path_score(w, order[::-1])


class TestHeuristicOnGeneratedData:
    def test_traceable_instance_reports_gap_without_exactness(self):
        # The heuristic promises no optimality even when a scoring path
        # exists, so only the flag and the bound are contractual.
        g = path_graph(11)
        data = generate_reduction(g)
        w = build_weights(Criterion.ML, data)
        result = solve_path_heuristic(w, restarts=3, seed=0)
        assert not result.exact
        assert result.gap >= 0.0
        assert result.best_score <= result.upper_bound + 1e-9


class TestDecideHp:
    def test_yes_families(self):
        for g in (path_graph(4), cycle_graph(5), complete_graph(5), path_graph(2)):
            for criterion in Criterion:
                decision = decide_hp(g, criterion)
                assert decision.has_path
                assert is_hamiltonian_path(g, decision.witness)
                assert decision.witness == decision.search.best_path.order
                assert decision.report.all_conditions_passed()

    def test_no_families(self):
        for g in (star_graph(4), star_graph(5), HpInstance(2, frozenset())):
            for criterion in Criterion:
                decision = decide_hp(g, criterion)
                assert not decision.has_path
                assert decision.witness is None

    def test_edgeless_graph_skips_the_search(self):
        decision = decide_hp(HpInstance(3, frozenset()), Criterion.ML)
        assert not decision.has_path
        assert decision.search is None
        assert decision.report.all_conditions_passed()

    def test_disconnected_graph(self):
        g = HpInstance(4, frozenset({(0, 1), (2, 3)}))
        decision = decide_hp(g, Criterion.BAYES)
        assert not decision.has_path

    def test_score_margins(self):
        yes = decide_hp(path_graph(5), Criterion.ML)
        k = yes.report.k
        tol = 1e-9 * max(1.0, abs(k))
        assert abs(yes.search.best_score - k) <= tol

        no = decide_hp(star_graph(5), Criterion.ML)
        k = no.report.k
        sep = no.report.separation
        assert k - no.search.best_score >= sep - 1e-9 * abs(k)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(12):
            g = random_graph(rng, rng.randint(2, 6))
            expected = brute_force_hp(g) is not None
            for criterion in Criterion:
                assert decide_hp(g, criterion).has_path == expected

    def test_exact_limit_is_enforced(self):
        with pytest.raises(SolverLimitError):
            decide_hp(path_graph(6), Criterion.ML, exact_limit=5)

    def test_single_vertex_rejected(self):
        with pytest.raises(InstanceTooSmallError):
            decide_hp(HpInstance(1, frozenset()), Criterion.ML)
