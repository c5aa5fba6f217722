"""Outside-in tracing of pathgm's layers.

``Tracer`` replaces functions at the module attributes where their callers
look them up, records one span per call (name, start, end, parent span,
job id), and puts the originals back on exit. Spans stay in memory until
the run writes them out. Nothing under ``src/`` knows about it.

A span's self time is its duration minus the durations of its direct
children; calls in one process nest, so children never overlap and the
self times of a job's spans add up to its outermost span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# Span record fields, kept in a list per span for a cheap wrapper.
JOB, ID, PARENT, NAME, START, END, META = range(7)

# Where each layer's functions are looked up by their callers, as
# (module under pathgm, attribute, span name).
PATHGM_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("cli", "main", "cli.main"),
    ("cli", "load_dataset", "dataset.load"),
    ("scoring", "compute_stats", "dataset.stats"),
    ("reduction", "compute_stats", "dataset.stats"),
    ("cli", "local_score", "scoring.local"),
    ("scoring", "local_score", "scoring.local"),
    ("tree_learn", "local_score", "scoring.local"),
    ("reduction", "local_score", "scoring.local"),
    ("cli", "score_structure", "scoring.structure"),
    ("cli", "build_weights", "tree_learn.weights"),
    ("reduction", "build_weights", "tree_learn.weights"),
    ("cli", "learn_optimal_spanning_tree", "tree_learn.spanning"),
    ("cli", "learn_optimal_branching", "tree_learn.branching"),
    ("path_learn", "learn_optimal_branching", "tree_learn.branching"),
    ("cli", "solve_path_exact", "path_learn.exact"),
    ("reduction", "solve_path_exact", "path_learn.exact"),
    ("cli", "solve_path_heuristic", "path_learn.heuristic"),
    ("cli", "generate_reduction", "reduction.generate"),
    ("reduction", "generate_reduction", "reduction.generate"),
    ("cli", "verify_reduction", "reduction.verify"),
    ("reduction", "verify_reduction", "reduction.verify"),
    ("cli", "decide_hp", "reduction.decide"),
)

# Called too often to span: only counted.
PATHGM_COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("path_learn", "path_score", "path_learn.path_score"),
)


def _load_meta(tracer, args, kwargs, result):
    return int(result.cases.size)


def _stats_meta(tracer, args, kwargs, result):
    data = args[0]
    parents = args[2] if len(args) > 2 else kwargs.get("parents", ())
    tracer.keep.append(data)  # pins id(data) for the rest of the job
    return (id(data), int(args[1]), tuple(sorted(parents)), data.num_cases)


def _exact_meta(tracer, args, kwargs, result):
    n = (args[0] if args else kwargs["weights"]).num_variables
    return (1 << n) * n


PATHGM_META: Dict[str, Callable] = {
    "dataset.load": _load_meta,
    "dataset.stats": _stats_meta,
    "path_learn.exact": _exact_meta,
}


class Tracer:
    """Span recorder for a list of (object, attribute, span name) targets.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original attributes. ``job`` tags every span recorded
    until it is changed; ``keep`` holds objects a meta function needs kept
    alive until ``end_job``.
    """

    def __init__(
        self,
        spans: Sequence[Tuple[object, str, str]],
        counts: Sequence[Tuple[object, str, str]] = (),
        meta: Optional[Dict[str, Callable]] = None,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.targets = list(spans)
        self.counted = list(counts)
        self.meta = meta or {}
        self.clock = clock
        self.records: List[list] = []
        self.stack: List[int] = []
        self.counters: Counter = Counter()
        self.job_counts: Dict[int, Counter] = {}
        self.keep: list = []
        self.job: Optional[int] = None
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in self.targets:
            self._replace(owner, attr, self._span(name, getattr(owner, attr)))
        for owner, attr, name in self.counted:
            self._replace(owner, attr, self._count(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, fn: Callable) -> Callable:
        records, stack, clock = self.records, self.stack, self.clock
        meta = self.meta.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [self.job, len(records), stack[-1] if stack else None,
                      name, 0, 0, None]
            records.append(record)
            stack.append(record[ID])
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if meta is not None:
                record[META] = meta(self, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def begin_job(self, job: int) -> None:
        self.job = job

    def end_job(self) -> None:
        self.job_counts[self.job] = Counter(self.counters)
        self.counters.clear()
        self.keep.clear()
        self.job = None

    def spans_json(self) -> List[dict]:
        keys = ("job", "id", "parent", "name", "start_ns", "end_ns", "meta")
        return [dict(zip(keys, record)) for record in self.records]


def pathgm_tracer() -> Tracer:
    """A tracer over the layer boundaries of the imported pathgm package.

    A boundary missing from the package (renamed or removed) is skipped,
    which leaves its layer metrics at zero.
    """

    def resolve(table):
        found = []
        for module, attr, name in table:
            owner = importlib.import_module(f"pathgm.{module}")
            if hasattr(owner, attr):
                found.append((owner, attr, name))
        return found

    return Tracer(resolve(PATHGM_SPANS), resolve(PATHGM_COUNTS), PATHGM_META)


def self_times(records: Iterable[list]) -> Dict[int, int]:
    """Span id -> duration minus the durations of its direct children."""
    records = list(records)
    own = {r[ID]: r[END] - r[START] for r in records}
    for r in records:
        if r[PARENT] is not None:
            own[r[PARENT]] -= r[END] - r[START]
    return own


def nesting_errors(records: Sequence[list]) -> List[str]:
    """Spans that leave their parent's interval or job."""
    by_id = {r[ID]: r for r in records}
    errors = []
    for r in records:
        if r[PARENT] is None:
            continue
        p = by_id[r[PARENT]]
        if r[JOB] != p[JOB] or r[START] < p[START] or r[END] > p[END]:
            errors.append(f"span {r[ID]} {r[NAME]} escapes parent {p[ID]}")
    return errors


def layer_metrics(
    records: Sequence[list],
    job_counts: Dict[int, Counter],
    jobs: int,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, per traced job, from spans and counters."""
    own = self_times(records)
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    metas: Dict[str, list] = {}
    for r in records:
        self_ns[r[NAME]] += own[r[ID]]
        calls[r[NAME]] += 1
        if r[META] is not None:
            metas.setdefault(r[NAME], []).append((r[JOB], r[META]))

    def per_job_s(name):
        return self_ns[name] / 1e9 / jobs

    def per_unit_ns(name, units):
        return self_ns[name] / units if units else 0.0

    cells = sum(m for _, m in metas.get("dataset.load", []))
    # (job, dataset, target, sorted parents) -> rows tallied for that key
    keys = {(job,) + m[:3]: m[3] for job, m in metas.get("dataset.stats", [])}
    states = sum(m for _, m in metas.get("path_learn.exact", []))
    stats_calls = calls["dataset.stats"]
    path_scores = sum(c["path_learn.path_score"] for c in job_counts.values())
    return {
        "dataset.load_s": (per_job_s("dataset.load"), "s"),
        "dataset.load_ns_per_cell": (per_unit_ns("dataset.load", cells), "ns/cell"),
        "dataset.stats_calls": (stats_calls / jobs, "count"),
        "dataset.stats_distinct": (len(keys) / jobs, "count"),
        "dataset.stats_hit_ratio": (
            1.0 - len(keys) / stats_calls if stats_calls else 0.0, "ratio"),
        "dataset.stats_s": (per_job_s("dataset.stats"), "s"),
        "dataset.tally_ns_per_row": (
            per_unit_ns("dataset.stats", sum(keys.values())), "ns/row"),
        "scoring.local_calls": (calls["scoring.local"] / jobs, "count"),
        "scoring.local_s": (per_job_s("scoring.local"), "s"),
        "scoring.structure_s": (per_job_s("scoring.structure"), "s"),
        "tree_learn.weights_s": (per_job_s("tree_learn.weights"), "s"),
        "tree_learn.spanning_s": (per_job_s("tree_learn.spanning"), "s"),
        "tree_learn.branching_calls": (
            calls["tree_learn.branching"] / jobs, "count"),
        "tree_learn.branching_s": (per_job_s("tree_learn.branching"), "s"),
        "path_learn.exact_s": (per_job_s("path_learn.exact"), "s"),
        "path_learn.exact_ns_per_state": (
            per_unit_ns("path_learn.exact", states), "ns/state"),
        "path_learn.heuristic_s": (per_job_s("path_learn.heuristic"), "s"),
        "path_learn.path_score_calls": (path_scores / jobs, "count"),
        "reduction.generate_s": (per_job_s("reduction.generate"), "s"),
        "reduction.verify_s": (per_job_s("reduction.verify"), "s"),
        "reduction.decide_s": (per_job_s("reduction.decide"), "s"),
        "cli.self_s": (per_job_s("cli.main"), "s"),
    }


def job_self_sums(records: Iterable[list]) -> Dict[int, int]:
    """Job id -> the sum of its spans' self times, in nanoseconds."""
    records = list(records)
    own = self_times(records)
    sums: Counter = Counter()
    for r in records:
        sums[r[JOB]] += own[r[ID]]
    return dict(sums)
