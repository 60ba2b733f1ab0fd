"""Traced socket worker: installs the benchmark's wrappers, then runs
``qflsim.worker.main``.

    python3 perfbench/launcher.py TRACE_OUT RUN_ID NAME -- <worker flags>

At exit it writes the worker's spans, totals, counters and peak RSS to
TRACE_OUT as JSON.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv):
    trace_out, run_id, name, sep, *worker_argv = argv
    if sep != "--":
        raise SystemExit("usage: launcher.py TRACE_OUT RUN_ID NAME -- <worker flags>")
    from qflsim import worker

    tracer = tracing.Tracer(run_id, name)
    tracer.phase = "worker"
    tracing.install(tracer)
    try:
        return worker.main(worker_argv)
    finally:
        Path(trace_out).write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
