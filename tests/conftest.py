"""Shared helpers: seeded random datasets, random graphs, graph families,
and the Hypothesis strategy and profile every property test uses."""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from pathgm import Criterion, DiscreteDataset, HpInstance, WeightMatrix

# Every run draws the same examples, so a tier-1 result repeats exactly.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


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


@st.composite
def weight_matrices(draw):
    """ML weight matrices with n <= 7: small integer ties, wide floats and
    -inf arcs, with the chain 0 -> 1 -> ... -> n-1 kept finite."""
    n = draw(st.integers(1, 7))
    value = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    root = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    arc = np.array(draw(st.lists(
        st.one_of(value, st.just(-np.inf)), min_size=n * n, max_size=n * n
    ))).reshape(n, n)
    # Keep one path finite so some local search ends above -inf.
    chain = (np.arange(n - 1), np.arange(1, n))
    arc[chain] = np.nan_to_num(arc[chain], neginf=0.0)
    return WeightMatrix(Criterion.ML, root, arc)
