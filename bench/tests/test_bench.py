"""Tests for the benchmark's own code: generator, checker, tracer.

Run with ``python3 -m pytest bench/tests``.
"""

import filecmp
import json
import math
import os
import types

import numpy as np
import pytest

import pathgm.cli
import run
import tracer
import workloads
from check import Digests, check_report, digest, read_csv
from pathgm import HpInstance, brute_force_hp


def _pool_files(root):
    return sorted(os.listdir(os.path.join(root, "in")))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_pool(tmp_path, name):
    a, b, c = (str(tmp_path / x) for x in "abc")
    jobs = workloads.generate(name, 7, a)
    assert workloads.generate(name, 7, b) == jobs
    workloads.generate(name, 8, c)
    files = _pool_files(a)
    assert len(files) == workloads.WORKLOADS[name].pool == len(jobs)
    match, mismatch, errors = filecmp.cmpfiles(
        os.path.join(a, "in"), os.path.join(b, "in"), files, shallow=False)
    assert match == files and not mismatch and not errors
    # Input 0 is shared by every seed; the others follow the seed.
    same = filecmp.cmpfiles(os.path.join(a, "in"), os.path.join(c, "in"),
                            files, shallow=False)[0]
    assert same == files[:1]


def test_hp_pool_answers_agree_with_brute_force(tmp_path):
    jobs = workloads.generate("hp-decide", 3, str(tmp_path))
    assert [job["planted"] for job in jobs] == [True, False] * 4
    for job in jobs:
        path = os.path.join(str(tmp_path), job["argv"][2])
        with open(path) as handle:
            n, _ = map(int, handle.readline().split())
            edges = frozenset(tuple(map(int, line.split())) for line in handle)
        found = brute_force_hp(HpInstance(n, edges), max_vertices=n)
        assert (found is not None) == job["planted"]


def _run(tmp_path, argv):
    out = str(tmp_path / "report.json")
    assert pathgm.cli.main(argv + ["--output", out]) == 0
    with open(out, "rb") as handle:
        return handle.read()


@pytest.fixture
def small_pool(tmp_path, monkeypatch):
    """Small inputs of every command the workloads use, run in tmp_path."""
    monkeypatch.chdir(tmp_path)
    os.makedirs("in")
    rng = np.random.default_rng(5)
    workloads.write_csv("in/d.csv", *workloads.tree_data(rng, 6, 300, 2, 3))
    with open("in/g.txt", "w") as handle:
        handle.write("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    return {
        "tree": {"argv": ["learn-tree", "--data", "in/d.csv", "--connected",
                          "--criterion", "all"]},
        "path": {"argv": ["learn-path", "--data", "in/d.csv", "--method",
                          "heuristic", "--criterion", "bayes", "--seed", "1"]},
        "score": {"argv": ["score", "--data", "in/d.csv", "--structure",
                           "path:3,1,0,5,2,4", "--criterion", "all"]},
        "hp": {"argv": ["decide-hp", "--graph", "in/g.txt", "--criterion",
                        "all"], "planted": True},
    }


def _corrupt(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc, indent=2).encode() + b"\n"


def _nudge(value):
    return math.nextafter(value, math.inf)


CORRUPTIONS = {
    "tree": lambda d: d["reports"][1].update(score=_nudge(d["reports"][1]["score"])),
    "path": lambda d: d["reports"][0].update(gap=_nudge(d["reports"][0]["gap"])),
    "score": lambda d: d["reports"][2].update(score=_nudge(d["reports"][2]["score"])),
    "hp": lambda d: d["reports"][0].update(decision="no", witness=None),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_checker_accepts_reports_and_rejects_corrupted_ones(small_pool, tmp_path, kind):
    job = small_pool[kind]
    text = _run(tmp_path, job["argv"])
    assert check_report(job, text, str(tmp_path)) == []
    assert check_report(job, _corrupt(text, lambda d: None), str(tmp_path)) == []
    assert check_report(job, _corrupt(text, CORRUPTIONS[kind]), str(tmp_path))


def test_checker_rejects_a_second_root(small_pool, tmp_path):
    job = small_pool["tree"]
    text = _run(tmp_path, job["argv"])

    def add_root(doc):
        r = doc["reports"][0]
        child = next(v for v, p in enumerate(r["parent"]) if p is not None)
        r["parent"][child] = None
        r["roots"] = sorted(r["roots"] + [child])

    problems = check_report(job, _corrupt(text, add_root), str(tmp_path))
    assert any("roots" in p for p in problems)


def test_digests_reject_any_changed_byte():
    expected = Digests(None)
    assert expected.matches(0, digest(b"report"))
    assert expected.matches(0, digest(b"report"))
    assert not expected.matches(0, digest(b"report "))
    recorded = Digests([digest(b"seed report")])
    assert not recorded.matches(0, digest(b"report"))


def test_read_csv_matches_the_program_parser(small_pool):
    assert read_csv("in/d.csv") == pathgm.load_dataset("in/d.csv")


def _synthetic_tree(clock):
    """outer -> inner -> leaf, twice, with calls through the module object."""
    mod = types.SimpleNamespace()
    mod.outer = lambda: [mod.inner(), mod.inner()]
    mod.inner = lambda: mod.leaf()
    mod.leaf = lambda: None
    targets = [(mod, "outer", "outer"), (mod, "inner", "inner"),
               (mod, "leaf", "leaf")]
    return mod, tracer.Tracer(targets, clock=clock)


def test_spans_nest_and_self_times_add_up():
    ticks = iter(range(100))
    mod, t = _synthetic_tree(lambda: next(ticks))
    original = mod.outer
    t.begin_job(0)
    with t:
        mod.outer()
    t.end_job()
    assert mod.outer is original  # restored on exit
    names = [(r[tracer.NAME], r[tracer.PARENT]) for r in t.records]
    assert names == [("outer", None), ("inner", 0), ("leaf", 1),
                     ("inner", 0), ("leaf", 3)]
    # Clock reads: outer 0..9, inner 1..4 and 5..8, leaf 2..3 and 6..7.
    assert tracer.self_times(t.records) == {0: 3, 1: 2, 2: 1, 3: 2, 4: 1}
    assert tracer.job_self_sums(t.records) == {0: 9}
    assert tracer.nesting_errors(t.records) == []


def test_nesting_errors_flag_a_child_outside_its_parent():
    records = [[0, 0, None, "a", 0, 10, None], [0, 1, 0, "b", 5, 12, None]]
    assert tracer.nesting_errors(records)


def test_traced_job_layers_and_counters(small_pool, tmp_path):
    t = tracer.pathgm_tracer()
    t.begin_job(0)
    with t:
        _run(tmp_path, small_pool["tree"]["argv"])
    t.end_job()
    assert pathgm.cli.main.__name__ == "main"
    assert not hasattr(pathgm.cli.main, "__wrapped__")
    metrics = tracer.layer_metrics(t.records, t.job_counts, 1)
    n = 6
    assert metrics["dataset.stats_calls"][0] == 3 * n * n
    assert metrics["dataset.stats_distinct"][0] == n * n
    assert metrics["dataset.stats_hit_ratio"][0] == pytest.approx(2 / 3)
    assert metrics["tree_learn.spanning_s"][0] > 0
    assert metrics["path_learn.exact_s"][0] == 0
    assert tracer.nesting_errors(t.records) == []


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(x) for x in range(20, 0, -1)]
    value, pct = run.tail_percentile(samples)
    assert (value, pct) == (10.0, 50.0)
    assert sum(s > value for s in samples) == run.TAIL_BEYOND


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["paths"] == [os.path.basename(run.BENCH_DIR)]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    traced = set(tracer.layer_metrics([], {}, 1)) | {
        "cli.report_bytes", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
