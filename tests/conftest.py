"""Shared helpers: seeded random datasets, random graphs, graph families."""

import numpy as np

from pathgm import DiscreteDataset, HpInstance


def random_dataset(rng, num_vars=None, min_card=2, max_card=4, max_cases=200,
                   min_cases=1):
    """Random complete discrete dataset; cardinalities and rows from rng."""
    n = num_vars if num_vars is not None else rng.randint(2, 6)
    cards = tuple(rng.randint(min_card, max_card) for _ in range(n))
    num_cases = rng.randint(min_cases, max_cases)
    rows = np.array(
        [[rng.randrange(c) for c in cards] for _ in range(num_cases)],
        dtype=np.int64,
    ).reshape(num_cases, n)
    names = tuple(f"V{i}" for i in range(n))
    return DiscreteDataset(names, cards, rows)


def tree_dataset(seed, num_vars, num_cases=300, max_card=3):
    """Rows sampled from a hidden random tree: each variable copies a
    parent placed before it, replaced by uniform noise in 30% of rows."""
    gen = np.random.default_rng(seed)
    cards = gen.integers(2, max_card + 1, size=num_vars)
    rows = np.empty((num_cases, num_vars), dtype=np.int64)
    order = gen.permutation(num_vars)
    rows[:, order[0]] = gen.integers(0, cards[order[0]], size=num_cases)
    for k in range(1, num_vars):
        v, parent = order[k], order[gen.integers(0, k)]
        noise = gen.integers(0, cards[v], size=num_cases)
        rows[:, v] = np.where(gen.random(num_cases) < 0.3, noise,
                              rows[:, parent] % cards[v])
    names = tuple(f"V{i}" for i in range(num_vars))
    return DiscreteDataset(names, tuple(int(c) for c in cards), rows)


def random_graph(rng, n, p=None):
    if p is None:
        p = rng.uniform(0.15, 0.9)
    edges = frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    )
    return HpInstance(n, edges)


def path_graph(n):
    return HpInstance(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n):
    edges = {(i, i + 1) for i in range(n - 1)}
    edges.add((0, n - 1))
    return HpInstance(n, frozenset(edges))


def star_graph(n):
    return HpInstance(n, frozenset((0, i) for i in range(1, n)))


def complete_graph(n):
    return HpInstance(
        n, frozenset((i, j) for i in range(n) for j in range(i + 1, n))
    )
