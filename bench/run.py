"""The pathgm benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload tree-wide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Load model: one closed-loop client. This process runs the jobs one after
another, in-process, through ``pathgm.cli.main(argv)``, with the BLAS and
OpenMP thread pools capped at the CPU count. The input pool is generated
from the seed beforehand, in a separate process (``bench/workloads.py``),
so neither its time nor its memory is measured. Jobs read and write paths
relative to ``.bench_work/<workload>/``, so reports do not depend on where
the checkout lives. A run covers the pool a whole number of times.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps the
layer boundaries (``bench/tracer.py``), runs every input untraced and then
traced, writes the spans to ``.bench_work/<workload>/spans.json`` and
reports the per-layer metrics. Both check every report (``bench/check.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs each workload in its own process and ends with a table instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
WORKLOAD_NAMES = ("tree-wide", "path-heuristic", "hp-decide", "score-long")
SETUP_STARTS = 7
FIRST_JOB_STARTS = 3  # the benchmark process itself is one of them
FIRST_JOB_PROBE = """import sys, time, pathgm.cli
start = time.perf_counter()
code = pathgm.cli.main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)"""
TAIL_BEYOND = 10  # samples a reported tail percentile must have above it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def capped_env() -> Dict[str, str]:
    """Environment for every process: checkout sources, capped thread pools."""
    env = dict(os.environ)
    env.update({var: str(len(os.sched_getaffinity(0))) for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class JobResult:
    index: int
    seconds: float
    report: Optional[bytes]  # None when the job did not exit 0 with a report
    traced: bool = False


def run_job(cli, jobs: List[dict], index: int) -> JobResult:
    """Run pool input ``index`` through ``cli.main``; the cwd is the pool."""
    out = f"out/{index:02d}.json"
    if os.path.exists(out):
        os.remove(out)
    argv = jobs[index]["argv"] + ["--output", out]
    start = time.perf_counter()
    try:
        code = cli.main(argv)  # looked up per call, so a tracer's wrapper runs
    except Exception:
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - start
    report = None
    if code == 0 and os.path.exists(out):
        with open(out, "rb") as handle:
            report = handle.read()
    return JobResult(index, seconds, report)


def timed_passes(
    pool: int, seconds: float, run_index, min_jobs: int
) -> Tuple[int, float]:
    """Run the pool in whole passes until ``seconds`` are used.

    Stops when the time left is under half a pass, once at least
    ``min_jobs`` have run. Returns (passes, elapsed seconds).
    """
    start = time.perf_counter()
    passes = 0
    while True:
        for index in range(pool):
            run_index(index)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes * pool >= min_jobs and elapsed + elapsed / passes / 2 >= seconds:
            return passes, elapsed


def tail_percentile(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples above it.

    Returns (value, percentile); needs more than ``TAIL_BEYOND`` samples.
    """
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def generate_pool(
    workload: str, seed: int, env: Dict[str, str]
) -> Tuple[str, List[dict]]:
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
         "--workload", workload, "--seed", str(seed), "--out", workdir],
        env=env, check=True, timeout=170)
    os.makedirs(os.path.join(workdir, "out"))
    with open(os.path.join(workdir, "manifest.json"), "r", encoding="utf-8") as f:
        return workdir, json.load(f)["jobs"]


def measure_setup(env: Dict[str, str]) -> float:
    """Median wall time of a fresh interpreter importing ``pathgm.cli``."""
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        # No timeout: waiting with one polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", "import pathgm.cli"],
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe_first_job(
    jobs: List[dict], env: Dict[str, str], workdir: str
) -> List[JobResult]:
    """Pool input 0 as the first job of fresh processes, timed inside each."""
    results = []
    for k in range(FIRST_JOB_STARTS - 1):
        out = os.path.join(workdir, f"out/first{k}.json")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", FIRST_JOB_PROBE, *jobs[0]["argv"], "--output", out],
            env=env, cwd=workdir, stdout=subprocess.PIPE, text=True, timeout=170)
        if proc.returncode != 0 or not os.path.exists(out):
            results.append(JobResult(0, time.perf_counter() - start, None))
            continue
        with open(out, "rb") as handle:
            results.append(JobResult(0, float(proc.stdout), handle.read()))
    return results


def count_failures(jobs: List[dict], results: List[JobResult], workload: str,
                   seed: int, workdir: str) -> int:
    """Failed jobs: no report, a report off its expected digest, or a report
    that fails ``check_report``. Problems go to stderr."""
    from check import Digests, check_report, digest

    expected = Digests.load(DIGESTS, workload, seed)
    verdicts: Dict[Tuple[int, str], List[str]] = {}
    failed = 0
    for r in results:
        if r.report is None:
            problems = ["no report"]
        else:
            value = digest(r.report)
            if not expected.matches(r.index, value):
                problems = [f"digest {value[:12]} differs from the expected "
                            f"{expected.expected[r.index][:12]}"]
            else:
                if (r.index, value) not in verdicts:
                    try:
                        verdicts[r.index, value] = check_report(
                            jobs[r.index], r.report, workdir)
                    except (KeyError, TypeError, ValueError, IndexError) as exc:
                        verdicts[r.index, value] = [f"malformed report: {exc!r}"]
                problems = verdicts[r.index, value]
        if problems:
            failed += 1
            print(f"job {r.index}{' traced' if r.traced else ''}: "
                  + "; ".join(problems[:3]), file=sys.stderr)
    source = "recorded" if expected.recorded else "first report of each input"
    print(f"  reports checked; expected digests: {source}")
    return failed


def run_untraced(cli, jobs, seconds, probes) -> Tuple[List[JobResult], dict]:
    first = [run_job(cli, jobs, 0)] + probes
    timed: List[JobResult] = []
    passes, elapsed = timed_passes(
        len(jobs), seconds, lambda i: timed.append(run_job(cli, jobs, i)),
        TAIL_BEYOND + 1)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = [r.seconds for r in timed]
    tail, pct = tail_percentile(times)
    print(f"  {passes} pass(es) of {len(jobs)} inputs, {len(timed)} timed jobs "
          f"in {elapsed:.2f} s; tail is p{pct:.1f} of {len(times)} samples "
          f"({TAIL_BEYOND} beyond)")
    metrics = {
        "jobs_per_s": (len(timed) / elapsed, "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail, "s"),
        "first_job_s": (statistics.median(r.seconds for r in first), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return first + timed, metrics


def run_traced(cli, jobs, seconds, workdir) -> Tuple[List[JobResult], dict, List[str]]:
    from tracer import job_self_sums, layer_metrics, nesting_errors, pathgm_tracer

    tracer = pathgm_tracer()
    untraced: List[JobResult] = []
    traced: List[JobResult] = []

    def pair(index: int) -> None:
        untraced.append(run_job(cli, jobs, index))
        tracer.begin_job(len(traced))
        with tracer:
            result = run_job(cli, jobs, index)
        tracer.end_job()
        result.traced = True
        traced.append(result)

    passes, elapsed = timed_passes(len(jobs), seconds, pair, 1)
    with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as f:
        json.dump(tracer.spans_json(), f, separators=(",", ":"))
    print(f"  {passes} pass(es) of {len(jobs)} inputs, each untraced then "
          f"traced, in {elapsed:.2f} s; {len(tracer.records)} spans")

    problems = nesting_errors(tracer.records)
    for job, self_ns in job_self_sums(tracer.records).items():
        if self_ns > traced[job].seconds * 1e9:
            problems.append(f"traced job {job}: layer self times sum to "
                            f"{self_ns} ns, above its wall time")
    metrics = layer_metrics(tracer.records, tracer.job_counts, len(traced))
    reports = [r.report for r in traced if r.report is not None]
    metrics["cli.report_bytes"] = (
        sum(map(len, reports)) / len(reports) if reports else 0.0, "B")
    metrics["trace.overhead_ratio"] = (
        sum(r.seconds for r in traced) / sum(r.seconds for r in untraced) - 1.0,
        "ratio")
    return untraced + traced, metrics, problems


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    env = capped_env()
    os.environ.update({var: env[var] for var in THREAD_VARS})
    print(f"{workload} seed={seed} seconds={seconds} trace={int(trace)}")
    workdir, jobs = generate_pool(workload, seed, env)
    if not trace:
        setup_s = measure_setup(env)
        probes = probe_first_job(jobs, env, workdir)

    sys.path[:0] = [SRC, BENCH_DIR]
    import pathgm.cli as cli

    os.chdir(workdir)
    if trace:
        results, metrics, problems = run_traced(cli, jobs, seconds, workdir)
    else:
        results, metrics = run_untraced(cli, jobs, seconds, probes)
        metrics["setup_s"] = (setup_s, "s")
        problems = []
    failed = count_failures(jobs, results, workload, seed, workdir)
    for problem in problems[:5]:
        print(f"trace self-check: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':30s} {failed / len(results):14.6g} ratio "
          f"({failed}/{len(results)})")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in a fresh process, then one table of all metrics."""
    results = {}
    status = 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if lines:
            results[workload] = json.loads(lines[-1])
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"\n{'metric':30s}" + "".join(f"{w:>16s}" for w in results))
    for name in names + ["fail_ratio"]:
        cells = []
        for r in results.values():
            if name == "fail_ratio":
                cells.append(f"{r['failed'] / r['attempted']:>12.4g} ratio")
            else:
                m = r["metrics"][name]
                cells.append(f"{m['value']:>12.4g} {m['unit']:<3s}")
        print(f"{name:30s}" + "".join(cells))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "pathgm", "cli.py")):
        print(f"error: no pathgm sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
