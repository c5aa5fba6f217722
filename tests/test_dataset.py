import io
import random

import numpy as np
import pytest

from pathgm import (
    DatasetFormatError,
    DiscreteDataset,
    InvalidQueryError,
    compute_stats,
    load_dataset,
    local_score,
    write_dataset,
)
from conftest import random_dataset


def _load_text(text):
    return load_dataset(io.StringIO(text))


def _dump_text(data):
    sink = io.StringIO()
    write_dataset(data, sink)
    return sink.getvalue()


class TestConstruction:
    def test_basic_fields(self):
        data = DiscreteDataset(("A", "B"), (2, 3), [[0, 2], [1, 0]])
        assert data.num_variables == 2
        assert data.num_cases == 2
        assert data.cardinalities == (2, 3)

    def test_cases_are_read_only(self):
        data = DiscreteDataset(("A",), (2,), [[0], [1]])
        with pytest.raises(ValueError):
            data.cases[0, 0] = 1

    def test_value_out_of_cardinality_rejected(self):
        with pytest.raises(ValueError, match="values must lie"):
            DiscreteDataset(("A",), (2,), [[2]])
        with pytest.raises(ValueError, match="values must lie"):
            DiscreteDataset(("A",), (2,), [[-1]])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            DiscreteDataset(("A", "A"), (2, 2), [[0, 0]])

    def test_cardinality_arity_must_match(self):
        with pytest.raises(ValueError, match="one cardinality per variable"):
            DiscreteDataset(("A", "B"), (2,), [[0, 0]])

    def test_zero_case_dataset(self):
        data = DiscreteDataset(("A", "B"), (2, 2), np.empty((0, 2), dtype=int))
        assert data.num_cases == 0
        assert data.cases.shape == (0, 2)

    def test_equality_semantics(self):
        a = DiscreteDataset(("A",), (2,), [[0], [1]])
        b = DiscreteDataset(("A",), (2,), [[0], [1]])
        c = DiscreteDataset(("A",), (3,), [[0], [1]])
        assert a == b
        assert a != c


class TestCsvIo:
    def test_minimal_two_case_file(self):
        data = _load_text("A,B\n0,1\n1,0\n")
        assert data.variable_names == ("A", "B")
        assert data.num_cases == 2
        assert data.cardinalities == (2, 2)

    def test_cardinality_line_overrides_inference(self):
        data = _load_text("A,B\n#card:4,3\n0,1\n1,0\n")
        assert data.cardinalities == (4, 3)

    def test_inference_is_one_plus_max(self):
        data = _load_text("A,B\n0,5\n2,0\n")
        assert data.cardinalities == (3, 6)

    def test_empty_dataset_writes_header_only(self):
        data = DiscreteDataset(("A", "B"), (1, 1), np.empty((0, 2), dtype=int))
        assert _dump_text(data) == "A,B\n"

    def test_declared_cards_survive_round_trip(self):
        data = DiscreteDataset(("A", "B"), (4, 2), [[0, 0], [1, 1]])
        text = _dump_text(data)
        assert "#card:4,2" in text
        assert _load_text(text) == data

    def test_round_trip_identity_random(self):
        rng = random.Random(11)
        for _ in range(25):
            data = random_dataset(rng, max_cases=40)
            assert _load_text(_dump_text(data)) == data

    def test_round_trip_zero_cases_with_declared_cards(self):
        data = DiscreteDataset(("A", "B"), (3, 2), np.empty((0, 2), dtype=int))
        assert _load_text(_dump_text(data)) == data

    def test_crlf_and_blank_lines_accepted(self):
        data = _load_text("A,B\r\n0,1\r\n\r\n1,0\r\n")
        assert data.num_cases == 2

    def test_file_path_round_trip(self, tmp_path):
        data = DiscreteDataset(("A", "B"), (2, 2), [[0, 1], [1, 0]])
        target = tmp_path / "d.csv"
        write_dataset(data, str(target))
        assert load_dataset(str(target)) == data

    def test_empty_file_rejected(self):
        with pytest.raises(DatasetFormatError, match="empty file"):
            _load_text("")

    def test_duplicate_header_rejected(self):
        with pytest.raises(DatasetFormatError, match="duplicate"):
            _load_text("A,A\n0,0\n")

    def test_blank_name_rejected(self):
        with pytest.raises(DatasetFormatError, match="blank variable name"):
            _load_text("A,\n0,0\n")

    def test_non_integer_cell_names_position(self):
        with pytest.raises(DatasetFormatError, match="line 3.*'B'.*2.5"):
            _load_text("A,B\n0,1\n1,2.5\n")

    def test_negative_cell_rejected(self):
        with pytest.raises(DatasetFormatError, match="negative"):
            _load_text("A\n-1\n")

    def test_value_above_declared_cardinality_rejected(self):
        with pytest.raises(DatasetFormatError, match="exceeds declared"):
            _load_text("A,B\n#card:2,2\n0,2\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(DatasetFormatError, match="expected 2 values"):
            _load_text("A,B\n0\n")

    def test_card_line_after_blank_lines_is_the_declaration(self):
        data = _load_text("A,B\n\n\n#card:4,3\n\n0,1\n")
        assert data.cardinalities == (4, 3)
        assert data.cases.tolist() == [[0, 1]]

    @pytest.mark.parametrize(
        "text",
        ["A,B\n0,1\n#card:4,3\n", "A,B\n#card:4,3\n#card:4,3\n0,1\n"],
    )
    def test_only_the_first_row_may_declare(self, text):
        with pytest.raises(DatasetFormatError, match="line 3.*not an integer"):
            _load_text(text)

    def test_cell_past_int64_rejected(self):
        with pytest.raises(DatasetFormatError, match="line 2.*'A'.*64-bit"):
            _load_text("A,B\n100000000000000000000,0\n")
        with pytest.raises(DatasetFormatError, match="line 2.*'B'.*64-bit"):
            _load_text(f"A,B\n0,{1 << 63}\n")
        data = _load_text(f"A\n0\n{(1 << 63) - 1}\n")
        assert data.cardinalities == (1 << 63,)
        assert compute_stats(data, 0).parent_counts == {(): 2}

    def test_bad_cardinality_line_rejected(self):
        with pytest.raises(DatasetFormatError, match="cardinality"):
            _load_text("A,B\n#card:2\n0,0\n")
        with pytest.raises(DatasetFormatError, match="cardinality"):
            _load_text("A,B\n#card:0,2\n0,0\n")


def _oracle_stats(data, target, parents):
    """Reference tally: np.unique over the (target, parents...) rows."""
    joint = {}
    if data.num_cases:
        rows, counts = np.unique(
            data.cases[:, (target,) + tuple(parents)], axis=0, return_counts=True
        )
        for row, count in zip(rows.tolist(), counts.tolist()):
            joint[(row[0], tuple(row[1:]))] = count
    totals = {}
    for (_, config), count in joint.items():
        totals[config] = totals.get(config, 0) + count
    return joint, dict(sorted(totals.items()))


def _assert_matches_oracle(data, target, parents):
    stats = compute_stats(data, target, parents)
    joint, totals = _oracle_stats(data, target, parents)
    assert stats.parents == tuple(parents)
    assert list(stats.joint_counts.items()) == list(joint.items())
    assert list(stats.parent_counts.items()) == list(totals.items())
    assert stats.case_count == data.num_cases


def _wide_dataset(rng, num_vars, card):
    """Repeated random rows, each also present with its last column changed,
    so the tally must tell apart configurations that differ in one digit."""
    patterns = [[rng.randrange(card) for _ in range(num_vars)] for _ in range(40)]
    rows = []
    for row in patterns:
        twin = row[:-1] + [(row[-1] + 1) % card]
        rows.extend([row] * rng.randint(1, 3) + [twin])
    rng.shuffle(rows)
    names = tuple(f"V{i}" for i in range(num_vars))
    return DiscreteDataset(names, (card,) * num_vars, rows)


class TestStatsDifferential:
    def test_random_queries_match_oracle(self):
        rng = random.Random(17)
        for _ in range(60):
            data = random_dataset(rng, max_cases=120)
            n = data.num_variables
            target = rng.randrange(n)
            others = [v for v in range(n) if v != target]
            parents = rng.sample(others, rng.randint(0, min(3, len(others))))
            _assert_matches_oracle(data, target, parents)

    def test_empty_dataset_matches_oracle(self):
        data = DiscreteDataset(
            ("A", "B", "C"), (2, 3, 2), np.empty((0, 3), dtype=int)
        )
        for target, parents in [(0, ()), (1, (2, 0)), (2, (1,))]:
            _assert_matches_oracle(data, target, parents)
        assert compute_stats(data, 1, (2, 0)).parent_counts == {}

    def test_binary_query_wider_than_int64(self):
        # 2**70 configurations: the case key must be re-ranked on the way.
        rng = random.Random(3)
        data = _wide_dataset(rng, 70, 2)
        parents = list(range(1, 70))
        _assert_matches_oracle(data, 0, parents)
        rng.shuffle(parents)
        _assert_matches_oracle(data, 0, parents)

    def test_ternary_query_wider_than_int64(self):
        # 3**46 configurations would wrap a plain int64 key.
        rng = random.Random(4)
        data = _wide_dataset(rng, 46, 3)
        parents = [v for v in range(46) if v != 45]
        _assert_matches_oracle(data, 45, parents)
        rng.shuffle(parents)
        _assert_matches_oracle(data, 45, parents)

    @pytest.mark.parametrize("huge", [1 << 62, 1 << 63, 10**20])
    def test_huge_declared_cardinality_matches_small(self, huge):
        # Re-ranking the key alone leaves span * card past int64 here.
        rng = np.random.default_rng(0)
        rows = np.column_stack([rng.integers(0, 5, 300), rng.integers(0, 4, 300)])
        small = DiscreteDataset(("A", "B"), (5, 4), rows)
        big = DiscreteDataset(("A", "B"), (5, huge), rows)
        expected = compute_stats(small, 0, (1,))
        stats = compute_stats(big, 0, (1,))
        assert list(stats.joint_counts.items()) == list(
            expected.joint_counts.items()
        )
        assert list(stats.parent_counts.items()) == list(
            expected.parent_counts.items()
        )
        assert local_score("ml", big, 0, (1,)) == local_score("ml", small, 0, (1,))
        _assert_matches_oracle(big, 0, (1,))
        _assert_matches_oracle(big, 1, (0,))


class TestStats:
    def test_exact_tallies(self):
        data = DiscreteDataset(
            ("A", "B"), (2, 2), [[0, 0], [0, 1], [1, 1], [0, 1]]
        )
        stats = compute_stats(data, 1, (0,))
        assert stats.joint_counts == {
            (0, (0,)): 1,
            (1, (0,)): 2,
            (1, (1,)): 1,
        }
        assert stats.parent_counts == {(0,): 3, (1,): 1}
        assert stats.case_count == 4

    def test_empty_parents_single_configuration(self):
        data = DiscreteDataset(("A",), (3,), [[0], [2], [2]])
        stats = compute_stats(data, 0)
        assert stats.parent_counts == {(): 3}
        assert stats.joint_counts == {(0, ()): 1, (2, ()): 2}

    def test_marginalization_invariant_random(self):
        rng = random.Random(5)
        for _ in range(20):
            data = random_dataset(rng, max_cases=60)
            n = data.num_variables
            target = rng.randrange(n)
            others = [v for v in range(n) if v != target]
            parents = tuple(
                rng.sample(others, rng.randint(0, min(2, len(others))))
            )
            stats = compute_stats(data, target, parents)
            for config, total in stats.parent_counts.items():
                by_value = sum(
                    count
                    for (_, c), count in stats.joint_counts.items()
                    if c == config
                )
                assert by_value == total
            assert sum(stats.parent_counts.values()) == data.num_cases

    def test_row_permutation_yields_identical_stats(self):
        rng = random.Random(9)
        data = random_dataset(rng, num_vars=4, max_cases=80)
        perm = list(range(data.num_cases))
        rng.shuffle(perm)
        shuffled = DiscreteDataset(
            data.variable_names, data.cardinalities, data.cases[perm]
        )
        a = compute_stats(data, 2, (0, 3))
        b = compute_stats(shuffled, 2, (0, 3))
        assert list(a.joint_counts.items()) == list(b.joint_counts.items())
        assert list(a.parent_counts.items()) == list(b.parent_counts.items())

    def test_parent_order_relabels_configurations(self):
        data = DiscreteDataset(
            ("A", "B", "C"), (2, 2, 2), [[0, 1, 1], [1, 0, 1], [0, 1, 0]]
        )
        ab = compute_stats(data, 2, (0, 1))
        ba = compute_stats(data, 2, (1, 0))
        assert ba.parents == (1, 0)
        flipped = {
            (v, (c[1], c[0])): count
            for (v, c), count in ab.joint_counts.items()
        }
        assert flipped == ba.joint_counts

    def test_self_parent_rejected(self):
        data = DiscreteDataset(("A", "B"), (2, 2), [[0, 1]])
        with pytest.raises(InvalidQueryError, match="own parent"):
            compute_stats(data, 0, (0,))

    def test_duplicate_parent_rejected(self):
        data = DiscreteDataset(("A", "B", "C"), (2, 2, 2), [[0, 1, 0]])
        with pytest.raises(InvalidQueryError, match="duplicate"):
            compute_stats(data, 0, (1, 1))

    def test_out_of_range_indices_rejected(self):
        data = DiscreteDataset(("A", "B"), (2, 2), [[0, 1]])
        with pytest.raises(InvalidQueryError, match="target index"):
            compute_stats(data, 2)
        with pytest.raises(InvalidQueryError, match="parent index"):
            compute_stats(data, 0, (5,))
