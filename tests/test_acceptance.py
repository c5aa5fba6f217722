"""End-to-end acceptance checks.

Every test prints exactly one ``[acceptance N] PASS/FAIL`` line (visible
even under output capture) and then asserts, so a full run doubles as the
acceptance report.
"""

import itertools
import math
import random
import time

import numpy as np

from pathgm import (
    Criterion,
    HpInstance,
    brute_force_hp,
    build_weights,
    decide_hp,
    expected_pair_table,
    generate_reduction,
    is_hamiltonian_path,
    learn_optimal_branching,
    learn_optimal_spanning_tree,
    local_score,
    local_score_mdl,
    local_score_ml,
    score_structure,
    solve_path_exact,
    solve_path_heuristic,
    verify_reduction,
)
from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_dataset,
    random_graph,
    star_graph,
)
from reference import solve_path_brute
from test_scoring import bayes_rational_oracle

ALL_CRITERIA = (Criterion.ML, Criterion.MDL, Criterion.BAYES)


def _emit(capsys, index, passed, detail):
    with capsys.disabled():
        print(f"[acceptance {index}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, detail


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield HpInstance(
            n, frozenset(p for k, p in enumerate(pairs) if bits >> k & 1)
        )


def _family_graphs(max_n):
    for n in range(2, max_n + 1):
        yield complete_graph(n)
        yield path_graph(n)
        yield star_graph(n)
        if n >= 3:
            yield cycle_graph(n)


def test_criterion_1_hamiltonian_decision_agreement(capsys):
    started = time.perf_counter()
    graphs = list(_all_graphs(4)) + list(_all_graphs(5))
    graphs += list(_family_graphs(8))
    mismatches = 0
    for g in graphs:
        expected = brute_force_hp(g) is not None
        for criterion in ALL_CRITERIA:
            decision = decide_hp(g, criterion)
            if decision.has_path != expected:
                mismatches += 1
            if decision.has_path:
                assert is_hamiltonian_path(g, decision.witness)
    elapsed = time.perf_counter() - started
    _emit(
        capsys,
        1,
        mismatches == 0 and elapsed < 60.0,
        f"decision agreement: {len(graphs)} graphs x 3 criteria, "
        f"{mismatches} mismatches, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_count_table_identity(capsys):
    rng = random.Random(2)
    checked = 0
    clean = True
    for n in range(3, 13):
        g = random_graph(rng, n, p=0.5)
        data = generate_reduction(g)
        clean &= data.num_cases == 4 * n * (n - 1)
        cases = data.cases
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                observed = np.zeros((3, 3), dtype=np.int64)
                np.add.at(observed, (cases[:, i], cases[:, j]), 1)
                formula = np.zeros((3, 3), dtype=np.int64)
                formula[0, 0] = 4 * (n * n - 5 * n + 6)
                formula[0, 1] = formula[0, 2] = 4 * (n - 2)
                formula[1, 0] = formula[2, 0] = 4 * (n - 2)
                inner = [[3, 1], [1, 3]] if g.has_edge(i, j) else [[2, 2], [2, 2]]
                formula[1:, 1:] = inner
                clean &= np.array_equal(observed, formula)
                clean &= np.array_equal(expected_pair_table(g, i, j), formula)
                checked += 1
    _emit(
        capsys,
        2,
        clean,
        f"count-table identity: n=3..12, {checked} ordered pair tables, "
        "integer-exact",
    )


def _mixed_graphs(rng, max_n):
    """Graphs holding at least one edge and one non-edge."""
    out = []
    for n in range(3, max_n + 1):
        out.append(path_graph(n))
        out.append(star_graph(n))
        if n >= 4:
            out.append(cycle_graph(n))
        for p in (0.3, 0.7):
            g = random_graph(rng, n, p=p)
            full = n * (n - 1) // 2
            if 0 < len(g.edges) < full:
                out.append(g)
    return out


def test_criterion_3_condition_suite(capsys):
    rng = random.Random(3)
    graphs = _mixed_graphs(rng, 8)
    ok = True
    min_separation = math.inf
    for g in graphs:
        data = generate_reduction(g)
        for criterion in ALL_CRITERIA:
            report = verify_reduction(data, g, criterion)
            ok &= report.all_conditions_passed()
            ok &= report.count_table_ok
            ok &= report.constants.alpha < report.constants.beta
            ok &= report.separation > 0
            min_separation = min(min_separation, report.separation)
    _emit(
        capsys,
        3,
        ok,
        f"condition suite: {len(graphs)} mixed graphs x 3 criteria, "
        f"conditions i-v all pass, min separation {min_separation:.6f}",
    )


def test_criterion_4_k_threshold_margins(capsys):
    rng = random.Random(4)
    graphs = [g for g in _family_graphs(7)]
    graphs += [random_graph(rng, rng.randint(4, 6)) for _ in range(30)]
    ok = True
    yes_count = no_count = 0
    worst_yes = 0.0
    for g in graphs:
        if not g.edges:
            continue
        for criterion in ALL_CRITERIA:
            decision = decide_hp(g, criterion)
            k = decision.report.constants.k
            opt = decision.search.best_score
            if decision.has_path:
                yes_count += 1
                deviation = abs(opt - k)
                worst_yes = max(worst_yes, deviation)
                ok &= deviation <= 1e-9 * abs(k)
            else:
                no_count += 1
                separation = decision.report.separation
                ok &= k - opt >= separation - 1e-9 * abs(k)
    _emit(
        capsys,
        4,
        ok,
        f"k-threshold: {yes_count} yes / {no_count} no decisions, "
        f"worst |opt-k| on yes {worst_yes:.2e}, "
        "no-instance margin >= separation",
    )


def _brute_branching_best(weights, grid_cache={}):
    """Vectorized maximum over every in-degree <= 1 acyclic parent map."""
    n = weights.num_variables
    if n not in grid_cache:
        grid_cache[n] = np.array(
            list(itertools.product(range(n + 1), repeat=n)), dtype=np.int64
        )
    choices = grid_cache[n]
    table = np.vstack([weights.arc, weights.root[None, :]])
    scores = table[choices, np.arange(n)].sum(axis=1)
    padded = np.hstack(
        [choices, np.full((choices.shape[0], 1), n, dtype=np.int64)]
    )
    walker = choices.copy()
    for _ in range(n):
        walker = np.take_along_axis(padded, walker, axis=1)
    acyclic = (walker == n).all(axis=1)
    return float(scores[acyclic].max())


def test_criterion_5_solver_cross_validation(capsys):
    rng = random.Random(5)
    ok = True

    path_checks = 0
    for _ in range(100):
        data = random_dataset(rng, num_vars=rng.randint(2, 8), max_cases=200)
        for criterion in ALL_CRITERIA:
            weights = build_weights(criterion, data)
            exact = solve_path_exact(weights)
            brute = solve_path_brute(weights)
            tolerance = 1e-9 * max(1.0, abs(brute.best_score))
            ok &= abs(exact.best_score - brute.best_score) <= tolerance
            path_checks += 1

    branching_checks = 0
    for _ in range(100):
        data = random_dataset(rng, num_vars=rng.randint(2, 6), max_cases=200)
        for criterion in ALL_CRITERIA:
            weights = build_weights(criterion, data)
            _, learned = learn_optimal_branching(weights)
            best = _brute_branching_best(weights)
            ok &= abs(learned - best) <= 1e-9 * max(1.0, abs(best))
            branching_checks += 1

    _emit(
        capsys,
        5,
        ok,
        f"solver cross-validation: {path_checks} exact-vs-brute path checks, "
        f"{branching_checks} branching-vs-enumeration checks",
    )


def test_criterion_6_dominance_chain(capsys):
    rng = random.Random(6)
    ok = True
    instances = 0
    for _ in range(100):
        data = random_dataset(rng, num_vars=rng.randint(2, 7), max_cases=150)
        for criterion in ALL_CRITERIA:
            weights = build_weights(criterion, data)
            _, branching = learn_optimal_branching(weights)
            _, tree = learn_optimal_spanning_tree(weights)
            exact = solve_path_exact(weights).best_score
            heuristic = solve_path_heuristic(
                weights, restarts=2, seed=0
            ).best_score
            slack = 1e-9 * max(1.0, abs(branching))
            ok &= branching >= tree - slack
            ok &= tree >= exact - slack
            ok &= exact >= heuristic - slack
            instances += 1
    _emit(
        capsys,
        6,
        ok,
        f"dominance chain: branching >= tree >= exact path >= heuristic "
        f"on {instances} instances",
    )


def _random_branching_parents(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    parents = [None] * n
    for position in range(1, n):
        if rng.random() < 0.7:
            parents[order[position]] = order[rng.randrange(position)]
    return tuple(parents)


def test_criterion_7_score_identities(capsys):
    rng = random.Random(7)
    ok = True

    mdl_checks = 0
    for _ in range(60):
        data = random_dataset(rng, num_vars=rng.randint(2, 6), max_cases=150)
        n = data.num_variables
        cases = data.num_cases
        parents = _random_branching_parents(rng, n)
        parent_sets = tuple(() if p is None else (p,) for p in parents)
        dimension = 0
        for v in range(n):
            q = 1 if parents[v] is None else data.cardinalities[parents[v]]
            r = data.cardinalities[v]
            dimension += q * (r - 1)
            # per-variable identity must be bit-exact
            ok &= local_score_mdl(data, v, parent_sets[v]) == (
                local_score_ml(data, v, parent_sets[v])
                - q * (r - 1) * math.log(cases) / 2.0
            )
        ml_total = score_structure(Criterion.ML, data, parent_sets).value
        mdl_total = score_structure(Criterion.MDL, data, parent_sets).value
        expected = ml_total - dimension * math.log(cases) / 2.0
        ok &= abs(mdl_total - expected) <= 1e-9 * max(1.0, abs(ml_total))
        mdl_checks += 1

    bayes_checks = 0
    for _ in range(30):
        data = random_dataset(rng, num_vars=rng.randint(2, 4), max_cases=20)
        n = data.num_variables
        for target in range(n):
            candidates = [(), *((p,) for p in range(n) if p != target)]
            for parents in candidates:
                got = local_score(Criterion.BAYES, data, target, parents)
                ok &= abs(got - bayes_rational_oracle(data, target, parents)) <= 1e-9
                bayes_checks += 1

    monotonicity_checks = 0
    datasets = [
        random_dataset(rng, num_vars=rng.randint(3, 6), max_cases=120)
        for _ in range(40)
    ]
    while monotonicity_checks < 1000:
        data = rng.choice(datasets)
        n = data.num_variables
        target = rng.randrange(n)
        pool = [v for v in range(n) if v != target]
        q_size = rng.randint(0, min(3, len(pool)))
        q_set = tuple(sorted(rng.sample(pool, q_size)))
        p_set = tuple(sorted(rng.sample(q_set, rng.randint(0, q_size))))
        smaller = local_score_ml(data, target, p_set)
        larger = local_score_ml(data, target, q_set)
        ok &= smaller <= larger + 1e-9
        monotonicity_checks += 1

    _emit(
        capsys,
        7,
        ok,
        f"score identities: {mdl_checks} MDL=ML-penalty structures, "
        f"{bayes_checks} log-gamma vs rational-oracle locals, "
        f"{monotonicity_checks} ML monotonicity triples",
    )


def test_criterion_8_scale_check(capsys):
    rng = random.Random(8)
    g = random_graph(rng, 15, p=0.5)
    started = time.perf_counter()
    data = generate_reduction(g)
    weights = build_weights(Criterion.ML, data)
    result = solve_path_exact(weights)
    elapsed = time.perf_counter() - started
    ok = data.num_cases == 840 and result.exact and elapsed < 10.0
    _emit(
        capsys,
        8,
        ok,
        f"scale check: n=15, {data.num_cases} cases, "
        f"reduce + exact search in {elapsed:.2f}s (budget 10s)",
    )
