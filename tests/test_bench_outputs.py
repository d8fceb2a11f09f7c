"""Every benchmark task at the default seed, run in-process, against the
digests recorded in bench/digests.json.

The benchmark's own runs check the same digests from fresh worker
processes; replaying the tasks here makes byte-stability of stdout a
tier-1 result.  The test reads bench/ and writes its inputs to a
temporary directory.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qbichromate import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.append(str(BENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tasks_match_recorded_digests(workload, tmp_path, monkeypatch):
    digests = json.loads((BENCH / "digests.json").read_text())[workload]
    files, tasks = workloads.build(workload, workloads.DEFAULT_SEED)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    for task in tasks:
        out = io.StringIO()
        with redirect_stdout(out):
            code, report = cli.run(list(task.argv))
        verdicts = [[n, ok] for n, ok, _, _ in report.verdicts]
        assert workloads.output_errors(
            task, code, out.getvalue(), verdicts, workloads.DEFAULT_SEED,
            digests) == [], task.name
