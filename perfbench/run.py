"""qflsim benchmark: federated training workloads, timed end to end.

    python3 perfbench/run.py                         # every workload
    python3 perfbench/run.py --workload socket-2w --seed 3 --seconds 10
    python3 perfbench/run.py --workload fedavg-default --trace 1
    python3 perfbench/run.py --quick                 # tiny sizes, seconds

Each training run happens in a fresh process (perfbench/trial.py), so
its peak RSS is its own. A run of one workload repeats whole training
runs until it has made the workload's number of them and they have
measured --seconds. The first training run is followed by the output
checks in perfbench/checks.py.

With --trace 0 the result reports the end-to-end metrics of
BENCHMARK.json: setup_s, round_s and peak_rss_mib as medians over the
run's set-ups, rounds and training runs, run_s as the median training
run. With --trace 1 the untraced training runs are followed by one
traced run, and the result reports the per-layer metrics, with
trace.overhead_s = traced run_s - median untraced run_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The whole result, per training
run, goes to .perfbench/results/ at the repository root.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

clock = time.monotonic
RUN_BUDGET_S = 170.0        # a benchmark run of one workload ends within 180 s


class BenchError(Exception):
    pass


def load_metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def trial(name, seed, mode, quick, work, deadline):
    """Run perfbench/trial.py in its own process group; return its result."""
    out = work / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH / "trial.py"), "--workload", name,
           "--seed", str(seed), "--mode", mode, "--work", str(work / "run"),
           "--out", str(out)] + (["--quick"] if quick else [])
    started = clock()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{name} {mode} run did not end within the time budget")
    if code != 0:
        raise BenchError(f"{name} {mode} run exited with code {code}")
    result = json.loads(out.read_text())
    result["process_s"] = clock() - started
    return result


def run_workload(wl, seed, seconds, trace, quick, work, deadline):
    runs = []
    measured = 0.0
    while len(runs) < wl.runs or measured < seconds:
        runs.append(trial(wl.name, seed, "train" if runs else "check", quick, work,
                          deadline))
        measured += runs[-1].get("run_s", runs[-1]["process_s"])
    traced = trial(wl.name, seed, "trace", quick, work, deadline) if trace else None

    done = [r for r in runs if "error" not in r]
    everything = runs + ([traced] if traced else [])
    result = {
        "workload": wl.name, "seed": seed, "trace": int(trace), "quick": quick,
        "correct": any(r["checks"] for r in everything) and all(
            ok for r in everything for _n, ok, _d in r["checks"]),
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "errors": [r["error"] for r in everything if "error" in r],
        "probes": [r["probe"] for r in everything if "probe" in r],
        "checks": [c for r in everything for c in r["checks"]],
        "runs": [{k: v for k, v in r.items() if k != "checks"} for r in runs],
    }
    if not done:
        return result
    setups = [r["setup_s"] for r in done]
    rounds = [s for r in done for s in r["round_s"]]
    run_s = statistics.median(r["run_s"] for r in done)
    result["samples"] = {"setup_s": len(setups), "round_s": len(rounds),
                         "run_s": len(done), "peak_rss_mib": len(done)}
    result["values"] = {
        "setup_s": statistics.median(setups),
        "round_s": statistics.median(rounds),
        "run_s": run_s,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in done),
    }
    if traced:
        spans = traced.pop("spans", [])
        traced_run_s = traced.get("run_s", float("nan"))
        result["values"] = dict(traced.get("layers", {}),
                                **{"trace.run_s": traced_run_s,
                                   "trace.overhead_s": traced_run_s - run_s})
        result["traced_run"] = traced
        trace_file = ROOT / ".perfbench" / "results" / (
            f"TRACE_{wl.name}_seed{seed}.json")
        trace_file.write_text(json.dumps({"run_id": f"{wl.name}:{seed}",
                                          "spans": spans}))
    return result


def report(result, units):
    """Print the figures with their sample counts; return the result line."""
    values = result.get("values", {})
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}"
          f"{' quick' if result['quick'] else ''}: attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for name, unit in units.items():
        n = result.get("samples", {}).get(name)
        count = f"  (n={n})" if n else ""
        print(f"  {name:34s} {values.get(name, float('nan')):>14.6g} {unit}{count}")
    for name, ok, detail in result["checks"]:
        if not ok:
            print(f"  CHECK FAILED {name}: {detail}")
    for text in result["errors"] + result["probes"][:1]:
        print(f"  {text}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.FULL) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for the self-test (perfbench/test_perfbench.py)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qflsim" / "__init__.py").is_file():
        print(f"perfbench: no qflsim sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_metric_units()
    units = per_layer if args.trace else end_to_end
    names = sorted(workloads.FULL) if args.workload == "all" else [args.workload]
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    lines = []
    try:
        for name in names:
            deadline = clock() + RUN_BUDGET_S
            result = run_workload(workloads.get(name, args.quick), args.seed,
                                  args.seconds, args.trace, args.quick, work, deadline)
            (results_dir / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
             ).write_text(json.dumps(result, indent=1))
            line = report(result, units)
            if set(line["metrics"]) != set(units):
                missing = sorted(set(units) - set(line["metrics"]))
                raise BenchError(f"{name}: no value for {missing}")
            lines.append((name, line))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for _n, line in lines),
            "attempted": sum(line["attempted"] for _n, line in lines),
            "failed": sum(line["failed"] for _n, line in lines),
            "metrics": {f"{n}.{k}": v for n, line in lines
                        for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
