#!/usr/bin/env python3
"""Freeze the benchmark's expected outputs into perfbench/expected.json.

    python3 perfbench/freeze.py

Runs every distinct job of every workload once for each seed in SEEDS and
for the held-out seed, untimed, and
stores its observation (exit code, output digests, report fields) under
the job's key, plus the op counts of `profile --input`.  A job must pass
the structural checks before it is frozen, and a job with a known defect
is frozen at its documented exit code, so freezing never records a wrong
result as the expectation.  Re-freeze only when a change to the program's
output is intended, and say so in the change.
"""

import json
import os
import sys

import expect
import run


# The seeds the benchmark ships expectations for, and one held-out seed
# that no tuning used.  Freezing always covers all of them, so a re-freeze
# cannot drop the expectations of a seed.
SEEDS = list(range(32))
HELD_OUT = 9001


def main() -> int:
    frozen = {"frozen_from": {"commit": run.git_commit(),
                              "src_sha256": run.src_digest()},
              "seeds": SEEDS, "held_out_seeds": [HELD_OUT],
              "op_counts": {}, "jobs": {}}
    modules = run.import_program()
    cli = modules["cli"]
    cwd = os.getcwd()
    for seed in SEEDS + [HELD_OUT]:
        for workload in run.WORKLOADS:
            work = run.WORK_DIR / "freeze" / workload
            work.mkdir(parents=True, exist_ok=True)
            jobs = run.make_jobs(workload, seed, work, modules)
            os.chdir(work)
            try:
                for job in jobs:
                    key = job.key(work)
                    if key in frozen["jobs"]:
                        continue
                    code, stdout, stderr, _ = run.execute(cli, job.argv)
                    obs = expect.observe(job, work, code, stdout, stderr)
                    reason = expect.compare(job, obs, None, stdout, work)
                    if job.known_defect:
                        obs = {"exit": job.expect_exit}
                    elif reason:
                        print(f"seed {seed} {workload} {job.name}: {reason}",
                              file=sys.stderr)
                        return 1
                    frozen["jobs"][key] = obs
                if workload == "convert" and not frozen["op_counts"]:
                    clip_ops, errors = run.op_count_checks(cli, jobs[:1], frozen)
                    if errors:
                        print("; ".join(errors), file=sys.stderr)
                        return 1
                    counts = next(iter(clip_ops.values()))[0]
                    frozen["op_counts"][str(run.inputs.CLIP_SAMPLES)] = counts
            finally:
                os.chdir(cwd)
        print(f"seed {seed}: {len(frozen['jobs'])} jobs frozen", flush=True)
    expect.EXPECTED_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
