"""Discrete complete-data datasets and their sufficient statistics.

A dataset is a fixed roster of categorical variables with declared
cardinalities plus a read-only case matrix of value indices. All scoring
reduces to counts of (target value, parent configuration) pairs, which
``compute_stats`` tallies from the cases on each query.

CSV layout: a header row of variable names, an optional second line
``#card:r1,r2,...`` declaring cardinalities, then one row of integers per
case. Values must be nonnegative and fit a signed 64-bit integer. Without
the declaration, each cardinality is inferred as one plus the largest
observed value (1 for a column with no cases). Blank lines are skipped, so
the declaration is the first nonblank line after the header.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, Iterable, TextIO, Tuple, Union

import numpy as np

from .errors import DatasetFormatError, InvalidQueryError

_CARD_PREFIX = "#card:"


@dataclass(eq=False)
class DiscreteDataset:
    """Complete discrete data: named variables, cardinalities, case matrix.

    ``cases`` is an (N, n) integer array; entry (c, i) is the value index of
    variable i in case c and must lie in ``range(cardinalities[i])``. The
    array is made read-only, so a dataset never changes once built.
    """

    variable_names: Tuple[str, ...]
    cardinalities: Tuple[int, ...]
    cases: np.ndarray

    def __post_init__(self) -> None:
        self.variable_names = tuple(self.variable_names)
        self.cardinalities = tuple(int(c) for c in self.cardinalities)
        if not self.variable_names:
            raise ValueError("dataset needs at least one variable")
        if len(set(self.variable_names)) != len(self.variable_names):
            raise ValueError("variable names must be unique")
        for name in self.variable_names:
            if not isinstance(name, str) or not name:
                raise ValueError("variable names must be nonempty strings")
        if len(self.cardinalities) != len(self.variable_names):
            raise ValueError("one cardinality per variable required")
        for card in self.cardinalities:
            if card < 1:
                raise ValueError("cardinalities must be >= 1")
        cases = np.asarray(self.cases, dtype=np.int64)
        if cases.size == 0:
            cases = cases.reshape(0, len(self.variable_names))
        if cases.ndim != 2 or cases.shape[1] != len(self.variable_names):
            raise ValueError(
                "case matrix must have one column per variable, got shape "
                f"{cases.shape}"
            )
        for i, card in enumerate(self.cardinalities):
            col = cases[:, i]
            if col.size and (col.min() < 0 or col.max() >= card):
                raise ValueError(
                    f"variable {self.variable_names[i]!r}: values must lie in "
                    f"[0, {card})"
                )
        cases = np.ascontiguousarray(cases)
        cases.setflags(write=False)
        self.cases = cases

    @property
    def num_variables(self) -> int:
        return len(self.variable_names)

    @property
    def num_cases(self) -> int:
        return int(self.cases.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteDataset):
            return NotImplemented
        return (
            self.variable_names == other.variable_names
            and self.cardinalities == other.cardinalities
            and self.cases.shape == other.cases.shape
            and bool(np.array_equal(self.cases, other.cases))
        )


@dataclass
class SufficientStats:
    """Count tables for one (target, parents) query.

    ``joint_counts`` maps (target value, parent configuration) to its case
    count; ``parent_counts`` maps each parent configuration to its total.
    Zero-count entries are omitted, so every stored count is positive. With
    no parents the single configuration is the empty tuple. Both dicts are
    built in sorted key order, which keeps every downstream float summation
    independent of case order.
    """

    target: int
    parents: Tuple[int, ...]
    joint_counts: Dict[Tuple[int, Tuple[int, ...]], int]
    parent_counts: Dict[Tuple[int, ...], int]
    case_count: int


def compute_stats(
    data: DiscreteDataset, target: int, parents: Iterable[int] = ()
) -> SufficientStats:
    """Return sufficient statistics for ``target`` given ``parents``.

    Configurations list parent values in the order ``parents`` gives them.
    Each case gets one mixed-radix int64 key over (target, parents...), so
    sorting the keys sorts the (value, configuration) tuples.
    """
    parents = tuple(int(p) for p in parents)
    target = int(target)
    n = data.num_variables
    if not 0 <= target < n:
        raise InvalidQueryError(f"target index {target} out of range [0, {n})")
    for p in parents:
        if not 0 <= p < n:
            raise InvalidQueryError(f"parent index {p} out of range [0, {n})")
    if target in parents:
        raise InvalidQueryError(f"variable {target} cannot be its own parent")
    if len(set(parents)) != len(parents):
        raise InvalidQueryError(f"duplicate parent in {parents}")

    columns = (target,) + parents
    key = np.zeros(data.num_cases, dtype=np.int64)
    span = 1  # every key lies in range(span)
    for col in columns:
        card = data.cardinalities[col]
        values = data.cases[:, col]
        if span * card >= 1 << 63:
            # The next digit could overflow int64: replace the keys and the
            # column's values by their ranks, which keep the same order and
            # are each below the number of cases.
            distinct, key = np.unique(key, return_inverse=True)
            span = len(distinct)
            distinct, values = np.unique(values, return_inverse=True)
            card = len(distinct)
        key = key * card + values
        span *= card
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    rows = data.cases[np.ix_(first, columns)]
    joint: Dict[Tuple[int, Tuple[int, ...]], int] = {
        (row[0], tuple(row[1:])): count
        for row, count in zip(rows.tolist(), counts.tolist())
    }
    accum: Dict[Tuple[int, ...], int] = {}
    for (_, config), count in joint.items():
        accum[config] = accum.get(config, 0) + count
    parent_counts = {config: accum[config] for config in sorted(accum)}
    return SufficientStats(
        target=target,
        parents=parents,
        joint_counts=joint,
        parent_counts=parent_counts,
        case_count=data.num_cases,
    )


def load_dataset(source: Union[str, TextIO]) -> DiscreteDataset:
    """Parse a dataset from a CSV file path or open text stream."""
    if hasattr(source, "read"):
        return _parse_csv(source, getattr(source, "name", "<stream>"))
    with open(source, "r", encoding="utf-8", newline="") as handle:
        return _parse_csv(handle, str(source))


def _parse_csv(handle: TextIO, origin: str) -> DiscreteDataset:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError(f"{origin}: empty file, expected a header row")
    names = [cell.strip() for cell in header]
    if any(not name for name in names):
        raise DatasetFormatError(f"{origin}: line 1: blank variable name")
    if len(set(names)) != len(names):
        raise DatasetFormatError(f"{origin}: line 1: duplicate variable name")
    n = len(names)

    declared: Union[Tuple[int, ...], None] = None
    rows = []
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if not rows and declared is None and row[0].startswith(_CARD_PREFIX):
            cells = [row[0][len(_CARD_PREFIX):]] + row[1:]
            if len(cells) != n:
                raise DatasetFormatError(
                    f"{origin}: line {line}: cardinality line has "
                    f"{len(cells)} entries, expected {n}"
                )
            cards = []
            for i, cell in enumerate(cells):
                try:
                    card = int(cell.strip())
                except ValueError:
                    raise DatasetFormatError(
                        f"{origin}: line {line}: column "
                        f"{names[i]!r}: bad cardinality {cell.strip()!r}"
                    )
                if card < 1:
                    raise DatasetFormatError(
                        f"{origin}: line {line}: column "
                        f"{names[i]!r}: cardinality must be >= 1"
                    )
                cards.append(card)
            declared = tuple(cards)
            continue
        if len(row) != n:
            raise DatasetFormatError(
                f"{origin}: line {line}: expected {n} values, got {len(row)}"
            )
        parsed = []
        for i, cell in enumerate(row):
            try:
                value = int(cell.strip())
            except ValueError:
                raise DatasetFormatError(
                    f"{origin}: line {line}: column {names[i]!r}: "
                    f"not an integer: {cell.strip()!r}"
                )
            if value < 0:
                raise DatasetFormatError(
                    f"{origin}: line {line}: column {names[i]!r}: "
                    f"negative value {value}"
                )
            if value >= 1 << 63:
                raise DatasetFormatError(
                    f"{origin}: line {line}: column {names[i]!r}: value "
                    f"{value} does not fit a signed 64-bit integer"
                )
            if declared is not None and value >= declared[i]:
                raise DatasetFormatError(
                    f"{origin}: line {line}: column {names[i]!r}: value "
                    f"{value} exceeds declared cardinality {declared[i]}"
                )
            parsed.append(value)
        rows.append(parsed)

    matrix = np.asarray(rows, dtype=np.int64).reshape(len(rows), n)
    if declared is None:
        declared = _observed_cards(matrix)
    return DiscreteDataset(tuple(names), declared, matrix)


def _observed_cards(cases: np.ndarray) -> Tuple[int, ...]:
    """One plus the largest value per column; 1 for a column with no cases."""
    if cases.shape[0] == 0:
        return (1,) * cases.shape[1]
    return tuple(int(top) + 1 for top in cases.max(axis=0))


def write_dataset(data: DiscreteDataset, dest: Union[str, TextIO]) -> None:
    """Write ``data`` as CSV; ``load_dataset`` on the output reproduces it.

    The ``#card:`` line is emitted only when the declared cardinalities
    differ from what a reader would infer from the rows alone.
    """
    if hasattr(dest, "write"):
        _emit_csv(data, dest)
        return
    with open(dest, "w", encoding="utf-8", newline="") as handle:
        _emit_csv(data, handle)


def _emit_csv(data: DiscreteDataset, handle: TextIO) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(data.variable_names)
    if data.cardinalities != _observed_cards(data.cases):
        first = f"{_CARD_PREFIX}{data.cardinalities[0]}"
        writer.writerow([first] + [str(c) for c in data.cardinalities[1:]])
    for row in data.cases.tolist():
        writer.writerow(row)
