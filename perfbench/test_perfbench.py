"""Self-test of the benchmark in its quick configuration.

    python3 -m pytest perfbench -q

Runs every workload, every output check and the traced run at tiny
sizes, and checks that the output checks can fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           "--quick", "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.FULL)
    assert list(workloads.QUICK) == list(workloads.FULL)


@pytest.mark.parametrize("name", list(workloads.FULL))
def test_quick_untraced(name):
    result = last_json(bench("--workload", name, "--seed", "5"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    wl = workloads.QUICK[name]
    if name == "socket-2w":
        # Each training run, its rounds, and the architecture probe, which
        # fails until the worker honours --stages.
        assert (result["attempted"], result["failed"]) == (wl.runs * (wl.rounds + 2),
                                                           wl.runs)
    else:
        assert (result["attempted"], result["failed"]) == (wl.runs * (wl.rounds + 1), 0)


@pytest.mark.parametrize("name", list(workloads.FULL))
def test_quick_traced(name):
    result = last_json(bench("--workload", name, "--seed", "6", "--trace", "1"))
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["sim.apply_matrix.calls"]["value"] > 0
    assert metrics["model.fwdgrad.batches"]["value"] > 0
    assert metrics["trace.round_coverage"]["value"] > 50
    if name == "socket-2w":
        assert metrics["transport.messages"]["value"] > 0
        assert metrics["worker.local_train.s"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "fedavg-default", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- the checks reject wrong outputs --------------------------------------

def _tiny():
    from qflsim.datagen import GenConfig, generate_federated_dataset
    from qflsim.model import ModelEvaluator, build_model, default_architecture, \
        init_params, parameter_names
    ds = generate_federated_dataset(GenConfig(n_clients=2, n_qubits=4,
                                              samples_per_client=8, seed=3))
    arch = default_architecture(4)
    model = build_model(arch)
    names = parameter_names(arch)
    return ds, model, names, ModelEvaluator(model, names), init_params(arch, 3).values


def test_fedavg_check_rejects_wrong_average():
    vectors = [np.array([0.1, 0.2]), np.array([0.3, 0.5])]
    good = (np.array([0.2, 0.35]), np.array([0.5, 0.5]), vectors)
    assert checks.fedavg_matches_fsum([good])[1]
    bad = (good[0] + 1e-12, good[1], vectors)
    assert not checks.fedavg_matches_fsum([bad])[1]


def test_label_check_rejects_flipped_label():
    from qflsim.datagen import ClientDataset, FederatedDataset
    from qflsim.model import Sample
    ds = _tiny()[0]
    first = ds.clients[0]
    flipped = Sample(first.samples[0].prep_circuit, 1 - first.samples[0].label)
    broken = FederatedDataset(
        (ClientDataset(first.client_id, (flipped,) + first.samples[1:],
                       first.distribution_tag),) + ds.clients[1:], ds.gen_config)
    assert checks.labels_follow_rule(ds)[1]
    assert not checks.labels_follow_rule(broken)[1]


def test_oracle_agrees_and_rejects_wrong_mse():
    ds, model, names, evaluator, values = _tiny()
    dense = checks.DenseSim(4)
    unitary = dense.unitary(model.circuit.ops, dict(zip(names, values.tolist())))
    samples = [s for s in ds.clients[1].samples]
    preds = evaluator.predictions(evaluator.prep_states(samples), values)
    labels = np.array([s.label for s in samples], dtype=float)
    mse = float(np.sum((labels - preds) ** 2) / (2 * len(samples)))
    acc = float(np.mean((preds > 0.5) == (labels == 1)))
    args = (dense, unitary, evaluator, [ds.clients[1]], values)
    assert checks.predictions_match_oracle(*args, acc, mse, "t")[1]
    assert not checks.predictions_match_oracle(*args, acc, mse + 1e-6, "t")[1]


def test_gradient_check_rejects_wrong_gradient():
    ds, model, names, evaluator, values = _tiny()
    samples = ds.clients[0].samples
    prep = evaluator.prep_states(samples)
    labels = np.array([s.label for s in samples], dtype=float)
    assert checks.gradient_matches_fd(evaluator, prep, labels, values, "t")[1]

    class Skewed:
        loss = evaluator.loss

        def loss_and_gradient(self, *args):
            loss, grad = evaluator.loss_and_gradient(*args)
            return loss, grad + 1e-6

    assert not checks.gradient_matches_fd(Skewed(), prep, labels, values, "t")[1]
