"""Record the report digests the benchmark expects, for a range of seeds.

    python3 bench/record_digests.py FIRST_SEED LAST_SEED

Generates each workload's pool for every seed in the range, runs each input
once, checks its report with ``check_report``, and writes the sha256 of
every report to ``bench/digests.json``. A benchmark run on a recorded seed
then fails any job whose report differs by a byte. Record on the program
whose reports are the reference, and only when a change to the reports is
intended.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, last = int(argv[0]), int(argv[1])
    env = run.capped_env()
    sys.path[:0] = [run.SRC, run.BENCH_DIR]
    import pathgm.cli as cli
    from check import check_report, digest

    table = {}
    for workload in run.WORKLOAD_NAMES:
        for seed in range(first, last + 1):
            workdir, jobs = run.generate_pool(workload, seed, env)
            os.chdir(workdir)
            digests = []
            for index, job in enumerate(jobs):
                result = run.run_job(cli, jobs, index)
                problems = (["no report"] if result.report is None
                            else check_report(job, result.report, workdir))
                if problems:
                    print(f"{workload} seed {seed} input {index}: {problems}",
                          file=sys.stderr)
                    return 1
                digests.append(digest(result.report))
            table.setdefault(workload, {})[str(seed)] = digests
            print(f"{workload} seed {seed}: {len(digests)} reports", flush=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
