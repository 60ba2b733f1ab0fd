"""One training run of one workload, in a fresh process.

    python3 perfbench/trial.py --workload NAME --seed N --mode MODE \
        --work DIR --out RESULT.json [--quick]

MODE is ``train`` (set-up and every round), ``check`` (``train``, then
the output checks) or ``trace`` (``train`` with every layer wrapped by
perfbench/tracing.py).
The result file holds the timings, the operation counts, the check
results and, when traced, the per-layer figures and spans. run.py starts
this script; each process measures one run, so its peak RSS is that
run's alone.
"""

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import qflsim  # noqa: E402
import qflsim.datagen as datagen  # noqa: E402
import qflsim.federated as federated  # noqa: E402
import qflsim.metrics as metrics  # noqa: E402
import qflsim.store as store  # noqa: E402
from qflsim.errors import QflError  # noqa: E402
from qflsim.model import (  # noqa: E402
    ModelEvaluator,
    build_architecture,
    build_model,
    default_architecture,
    init_params,
    parameter_names,
)
from qflsim.transport import SocketFedServer  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if Path(qflsim.__file__).resolve().parent != ROOT / "src" / "qflsim":
    raise SystemExit(f"imported qflsim from {qflsim.__file__}, not from {ROOT / 'src'}")

clock = time.perf_counter
READY_DEADLINE_S = 60.0
WORKER_EXIT_S = 30.0
PROBE_SEED = 0


class WorkerExited(Exception):
    """A worker process ended before it said HELLO."""


def train_config(wl, ids, seed, rounds):
    return federated.TrainConfig(
        rounds=rounds, train_clients=ids[:wl.n_train],
        test_clients=ids[len(ids) - wl.n_test:], epochs=workloads.EPOCHS,
        batch_size=workloads.BATCH_SIZE,
        opt=federated.OptimizerConfig(workloads.OPTIMIZER, workloads.LEARNING_RATE),
        seed=seed)


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn_worker(work, port, dataset_path, client_id, seed, extra=(), trace=None):
    """Start ``python -m qflsim.worker``, or the tracing launcher when
    ``trace`` is (trace file, run id)."""
    cmd = [sys.executable]
    if trace:
        cmd += [str(BENCH / "launcher.py"), str(trace[0]), trace[1], client_id, "--"]
    else:
        cmd += ["-m", "qflsim.worker"]
    cmd += ["--host", "127.0.0.1", "--port", str(port), "--dataset", str(dataset_path),
            "--client-id", client_id, "--seed", str(seed),
            "--epochs", str(workloads.EPOCHS), "--batch-size", str(workloads.BATCH_SIZE),
            "--optimizer", workloads.OPTIMIZER, "--lr", str(workloads.LEARNING_RATE),
            *extra]
    with open(work / f"{client_id}.stderr", "w") as err:
        return subprocess.Popen(cmd, env=worker_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)


def wait_ready(server, procs):
    """Wait until every worker said HELLO; fail at once if one exits first.

    SocketFedServer.wait_for_clients keeps accepted clients between calls,
    so a short accept timeout lets this loop look at the processes."""
    deadline = clock() + READY_DEADLINE_S
    while True:
        try:
            server.wait_for_clients(timeout=0.05)
            return
        except TimeoutError:
            dead = [p for p in procs if p.poll() is not None]
            if dead:
                raise WorkerExited(
                    f"worker exited with code {dead[0].returncode} before HELLO")
            if clock() > deadline:
                raise


def stop_workers(procs, timeout=WORKER_EXIT_S):
    codes = []
    for p in procs:
        try:
            codes.append(p.wait(timeout=timeout))
        except subprocess.TimeoutExpired:
            p.kill()
            codes.append(p.wait())
    return codes


def probe_architecture_fault(wl, work):
    """Short socket run with one stage fewer than the default architecture.

    Its worker gets the same --stages flag as ``qflsim train``. Its inputs
    do not depend on the run's seed. Returns (ok, detail)."""
    stages = int(math.log2(wl.n_qubits)) - 1
    arch = build_architecture(wl.n_qubits, stages)
    ds = datagen.generate_federated_dataset(datagen.GenConfig(
        n_clients=2, n_qubits=wl.n_qubits, samples_per_client=2 * wl.n_qubits,
        seed=PROBE_SEED))
    path = work / "probe.qfd"
    store.write_dataset(ds, path)
    ids = ds.client_ids()
    cfg = federated.TrainConfig(
        rounds=1, train_clients=ids[:1], test_clients=ids[1:],
        epochs=workloads.EPOCHS, batch_size=workloads.BATCH_SIZE,
        seed=PROBE_SEED, arch=arch)
    procs = []
    try:
        with SocketFedServer(1, parameter_names(arch)) as server:
            procs.append(spawn_worker(work, server.address[1], path, ids[0], PROBE_SEED,
                                      ["--stages", str(stages)]))
            wait_ready(server, procs)
            federated.run_training(ds, cfg, transport=server)
        return True, f"{stages}-stage socket run completed"
    except (WorkerExited, QflError, OSError) as exc:
        return False, f"{stages}-stage socket run failed: {type(exc).__name__}: {exc}"
    finally:
        stop_workers(procs, timeout=5.0)


class Capture:
    """Per-round client vectors, for the FedAvg check: wraps
    federated_average, which runs once per round."""

    def __init__(self):
        self.vectors = []
        self.original = federated.federated_average

        def federated_average(updates, weights):
            self.vectors.append([u.params.values for u in updates])
            return self.original(updates, weights)

        federated.federated_average = federated_average

    def restore(self):
        federated.federated_average = self.original


def run(wl, seed, mode, work):
    """The timed training run; then the architecture probe on socket-2w
    and, in ``check`` mode, the output checks."""
    rounds = wl.rounds
    socket_mode = wl.kind == "socket"
    run_id = f"{wl.name}:{seed}"
    tracer = restore = None
    capture = Capture() if mode == "check" else None
    if mode == "trace":
        tracer = tracing.Tracer(run_id, "server")
        restore = tracing.install(tracer)
    metrics_path = work / "metrics.jsonl"
    dataset_path = work / "data.qfd"
    marks, servers, procs = [], [], []
    server = None
    out = {"attempted": rounds + 1, "failed": 0, "checks": []}

    def on_round(record, state):
        marks.append(clock())
        if tracer:
            tracer.phase = "round"
        servers.append((state.params.values, state.client_weights))
        metrics.append_rows(metrics_path, [{
            "kind": "round", "experiment": f"perfbench-{wl.name}", "seed": seed,
            "round": record.round, "test_accuracy": record.test_accuracy,
            "test_mse": record.test_mse, "wall_time": marks[-1] - t0}])

    t0 = clock()
    written = datagen.generate_federated_dataset(datagen.GenConfig(
        n_clients=wl.n_clients, n_qubits=wl.n_qubits,
        samples_per_client=wl.samples, seed=seed))
    store.write_dataset(written, dataset_path)
    ids = written.client_ids()
    cfg = train_config(wl, ids, seed, rounds)
    try:
        if socket_mode:
            server = SocketFedServer(wl.n_train, parameter_names(
                default_architecture(wl.n_qubits)))
            t_spawn = clock()
            for cid in cfg.train_clients:
                trace = (work / f"trace-{cid}.json", run_id) if tracer else None
                procs.append(spawn_worker(work, server.address[1], dataset_path,
                                          cid, seed, trace=trace))
        dataset = store.read_dataset(dataset_path)
        if socket_mode:
            wait_ready(server, procs)
            out["worker_ready_s"] = clock() - t_spawn
            records = federated.run_training(dataset, cfg, on_round, transport=server)
            if tracer:
                tracer.phase = "teardown"
            server.shutdown()
            out["worker_codes"] = stop_workers(procs)
        else:
            records = federated.run_training(dataset, cfg, on_round)
    except QflError as exc:
        out["failed"] = out["attempted"] - max(0, len(marks) - 1)
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    finally:
        if server is not None:
            server.shutdown()
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
    t_end = clock()
    if restore:
        restore()
    if capture:
        capture.restore()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if socket_mode:
        peak_kib = max(peak_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    out["setup_s"] = marks[0] - t0
    out["round_s"] = [float(x) for x in np.diff(marks)]
    out["run_s"] = t_end - t0
    out["peak_rss_mib"] = peak_kib / 1024.0

    if tracer:
        workers = [json.loads((work / f"trace-{cid}.json").read_text())
                   for cid in cfg.train_clients] if socket_mode else []
        summary = tracer.summary()
        out["layers"] = tracing.layer_metrics(summary, workers, marks, t0,
                                              out.get("worker_ready_s", 0.0))
        out["spans"] = summary["spans"] + [s for w in workers for s in w["spans"]]
    if socket_mode:
        out["attempted"] += 1
        ok, detail = probe_architecture_fault(wl, work)
        out["failed"] += not ok
        out["probe"] = detail
    if mode != "check":
        return out
    t_checks = clock()
    out["checks"] = run_checks(wl, written, dataset, cfg, records, servers,
                               capture.vectors, out.get("worker_codes"), work)
    out["checks_s"] = clock() - t_checks
    return out


def run_checks(wl, written, dataset, cfg, records, servers, client_vectors,
               worker_codes, work):
    arch = default_architecture(wl.n_qubits)
    model = build_model(arch)
    names = parameter_names(arch)
    evaluator = ModelEvaluator(model, names)
    by_id = {c.client_id: c for c in dataset.clients}
    final = np.array(servers[-1][0])
    found = [
        checks.dataset_round_trip(written, dataset),
        checks.labels_follow_rule(dataset),
        checks.mse_decreases(records),
        checks.fedavg_matches_fsum([
            (values, weights, vectors)
            for (values, weights), vectors in zip(servers[1:], client_vectors)]),
    ]
    batch = by_id[cfg.train_clients[0]].samples[:cfg.batch_size]
    prep = evaluator.prep_states(batch)
    labels = np.array([s.label for s in batch], dtype=float)
    initial = np.array(init_params(arch, cfg.seed).values)
    found.append(checks.gradient_matches_fd(evaluator, prep, labels, initial, "initial"))
    found.append(checks.gradient_matches_fd(evaluator, prep, labels, final, "final"))
    dense = checks.DenseSim(wl.n_qubits)
    unitary = dense.unitary(model.circuit.ops, dict(zip(names, final.tolist())))
    last = records[-1]
    found.append(checks.predictions_match_oracle(
        dense, unitary, evaluator, [by_id[c] for c in cfg.test_clients], final,
        last.test_accuracy, last.test_mse, "test"))
    if wl.kind == "socket":
        found.append(checks.workers_exited_cleanly(worker_codes))
        found.append(checks.records_equal(records, federated.run_training(dataset, cfg)))
    return [[name, bool(ok), detail] for name, ok, detail in found]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("train", "check", "trace"))
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    result = run(workloads.get(args.workload, args.quick), args.seed, args.mode, work)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
