"""The benchmark's program side at its quick size: perfbench/run.py runs
each workload end to end on a copy of this checkout's benchmark and
sources, and every training run and every architecture probe must
succeed. perfbench's own self-test
(perfbench/test_perfbench.py) is not part of this suite, so a fault in
the program that breaks a benchmark run shows here."""

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
WORKLOADS = BENCH / "workloads.py"


def _load_workloads():
    """perfbench/workloads.py as a module, read without writing a bytecode
    cache next to it."""
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


QUICK = _load_workloads().QUICK


@pytest.mark.parametrize("name", list(QUICK))
def test_quick_run_succeeds(name, tmp_path):
    # run.py writes its results and work directory under its own root, so
    # the run is of a copy. src/ is copied, not linked: perfbench/trial.py
    # checks that qflsim is imported from the resolved <root>/src/qflsim.
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--quick",
         "--seconds", "0", "--workload", name, "--seed", "5"],
        cwd=tmp_path, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=100)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    wl = QUICK[name]
    # Each training run attempts round 0 and its rounds; a socket run
    # also probes a two-stage architecture on its workers.
    per_run = wl.rounds + (2 if wl.kind == "socket" else 1)
    assert result["attempted"] == wl.runs * per_run
