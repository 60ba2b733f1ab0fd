"""The benchmark's tracer against the program: perfbench/tracing.py patches
qflsim functions by name and counts from their arguments, so a renamed
function or a changed signature breaks traced benchmark runs. This runs
a small traced run and checks the counters the benchmark reports."""

import types
from pathlib import Path

import qflsim.federated as federated
import qflsim.model as model
from qflsim.datagen import GenConfig, generate_federated_dataset
from qflsim.federated import TrainConfig, run_training

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    """perfbench/tracing.py as a module, read without writing a bytecode
    cache next to it."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_run_counts_what_the_benchmark_reports():
    tracing = _load_tracing()
    ds = generate_federated_dataset(GenConfig(n_clients=2, n_qubits=4,
                                              samples_per_client=8, seed=1))
    train, test = ds.client_ids()
    cfg = TrainConfig(rounds=1, train_clients=(train,), test_clients=(test,),
                      batch_size=4, seed=1)
    originals = (model.ModelEvaluator.prep_states, federated.evaluate,
                 federated.build_run)
    tracer = tracing.Tracer("contract", "server")
    restore = tracing.install(tracer)
    try:
        run_training(ds, cfg)
        arch = model.default_architecture(4)
        evaluator = model.ModelEvaluator(model.build_model(arch), model.parameter_names(arch))
        evaluator.prep_states(ds.clients[0].samples)
    finally:
        restore()
    assert (model.ModelEvaluator.prep_states, federated.evaluate,
            federated.build_run) == originals
    assert tracer.totals["model.fwdgrad"][0] == 2  # 8 samples in batches of 4
    assert tracer.counters["federated.evaluate.samples"] == 2 * 8  # rounds 0 and 1
    # Evaluation sweeps each round's 9-state basis through readout_z.
    assert tracer.counters["model.forward.samples"] == 2 * 9
    assert tracer.counters["model.prep_states.samples"] == 8
    assert tracer.totals["federated.build_run"][0] == 1
