"""Record the digest table, bench/digests.json, from the current code.

Usage: python3 bench/record_digests.py

Runs every task of every workload once at the default seed and stores
the digest of its stdout, and of its stdout without input-digest lines.
Every other output check must pass first, and the tasks marked invariant
must print the same output, less input digests, at a second seed.
Re-record only when an output change is intended.
"""

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def outputs(workload, seed):
    """stdout of every task of a workload at a seed, checks applied."""
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=run.WORK_ROOT)
    try:
        files, tasks = workloads.build(workload, seed)
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        runner = run.Runner(workdir, seed, None)
        out = {}
        for task in tasks:
            outcome = runner.execute(task, False)
            if outcome["errors"]:
                raise SystemExit("%s %s: %s" % (workload, task.name,
                                                outcome["errors"]))
            out[task.name] = (task, outcome["stdout"])
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(run.WORK_ROOT):
            os.rmdir(run.WORK_ROOT)


def main():
    table = {}
    for workload in workloads.WORKLOADS:
        base = outputs(workload, workloads.DEFAULT_SEED)
        other = outputs(workload, workloads.DEFAULT_SEED + 1)
        table[workload] = {}
        for name, (task, stdout) in base.items():
            stable = workloads.stable_digest(stdout)
            if task.invariant and workloads.stable_digest(other[name][1]) != stable:
                raise SystemExit("%s %s: output depends on the seed"
                                 % (workload, name))
            table[workload][name] = {"stdout": workloads.digest(stdout),
                                     "stable": stable}
        print("%s: %d tasks" % (workload, len(base)))
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
