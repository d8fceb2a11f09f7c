"""Run one benchmark task in a fresh interpreter.

Usage: worker.py REQUEST.json RESULT.json

The request names the package source directory, the CLI argv and
whether to trace.  The worker times the import of ``qbichromate.cli``
(the set-up every CLI call pays) and then one ``cli.run(argv)`` with
stdout and stderr captured, and writes the outcome, its peak RSS and,
when traced, the per-function trace to RESULT.json.  Interpreter
start-up is outside both timers.  Each timed span also reports the
machine speed measured during it (``speed.py``); traced spans are not
sampled, so the trace holds only the package's own calls.
"""

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import speed


def main(request_path, result_path):
    with open(request_path, encoding="utf-8") as handle:
        request = json.load(handle)
    src = request["src"]
    probe = speed.Probe()
    probe.start()
    started = time.perf_counter_ns()
    sys.path.insert(0, src)
    from qbichromate import cli
    setup_ns = time.perf_counter_ns() - started - probe.stop()
    setup_scale = probe.scale()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("imported %s, not the package under %s"
                         % (cli.__file__, src))
    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    code, verdicts, error = None, [], None
    probe.start(sample=tracer is None)
    start = time.perf_counter_ns()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                code, report = cli.run(request["argv"])
            else:
                code, report = tracer.run(cli.run, request["argv"])
        verdicts = [[name, ok] for name, ok, _, _ in report.verdicts]
    except SystemExit as exc:
        code = exc.code
    except Exception:
        error = traceback.format_exc()
    elapsed_ns = time.perf_counter_ns() - start - probe.stop()
    result = {
        "setup_ns": setup_ns,
        "setup_scale": setup_scale,
        "task_ns": elapsed_ns,
        "task_scale": probe.scale(),
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "verdicts": verdicts,
        "error": error,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": None if tracer is None else tracer.snapshot(),
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
