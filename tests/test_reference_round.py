"""A whole federated run recomputed from the dense oracles alone: the
optimizer state carried across rounds, the batch means, FedAvg's weights
and the evaluation of the averaged parameters."""

import numpy as np
import pytest

import oracles
from qflsim.datagen import GenConfig, generate_federated_dataset
from qflsim.federated import OptimizerConfig, TrainConfig, run_training
from qflsim.model import build_model, default_architecture

# Largest difference allowed between the run and its recomputation, set
# before the first comparison was made.
TOLERANCE = 1e-10
LEARNING_RATE = 0.02


def _sgd(state, theta, grad):
    return theta - LEARNING_RATE * grad


def _adam(state, theta, grad, beta1=0.9, beta2=0.999, eps=1e-7):
    """Kingma and Ba (arXiv:1412.6980), Algorithm 1; ``eps`` is the
    package's denominator guard."""
    state["t"] += 1
    state["m"] = beta1 * state["m"] + (1 - beta1) * grad
    state["v"] = beta2 * state["v"] + (1 - beta2) * grad**2
    m_hat = state["m"] / (1 - beta1 ** state["t"])
    v_hat = state["v"] / (1 - beta2 ** state["t"])
    return theta - LEARNING_RATE * m_hat / (np.sqrt(v_hat) + eps)


def _rmsprop(state, theta, grad, decay=0.9, eps=1e-7):
    """RMSprop with the guard inside the root, as the package has it."""
    state["v"] = decay * state["v"] + (1 - decay) * grad**2
    return theta - LEARNING_RATE * grad / np.sqrt(state["v"] + eps)


class _Oracle:
    """Dense-unitary predictions and literal shift-rule batch gradients of
    one model."""

    def __init__(self, n_qubits):
        self.model = build_model(default_architecture(n_qubits))
        self.n_qubits = n_qubits

    def predictions(self, samples, names, theta):
        unitary = oracles.circuit_unitary(self.model.circuit, dict(zip(names, theta)))
        states = np.stack([oracles.run_circuit(s.prep_circuit) for s in samples], axis=1)
        return 0.5 * (1.0 + oracles.z_expectation(unitary @ states,
                                                  self.model.readout_qubit))

    def loss_and_gradient(self, samples, names, theta):
        """The batch's sum((y - p)^2) / 2m and its gradient."""
        labels = np.array([s.label for s in samples], dtype=float)
        p = self.predictions(samples, names, theta)
        dz = oracles.shift_rule_gradients(
            [s.prep_circuit for s in samples], self.model.circuit.ops,
            dict(zip(names, theta)), names, self.model.readout_qubit, self.n_qubits)
        m = len(samples)
        return np.sum((labels - p) ** 2) / (2 * m), dz @ (p - labels) / (2 * m)

    def evaluate(self, samples, names, theta):
        labels = np.array([s.label for s in samples], dtype=float)
        p = self.predictions(samples, names, theta)
        return np.mean((p > 0.5) == (labels == 1)), np.sum((labels - p) ** 2) / (2 * len(p))


@pytest.mark.parametrize("kind, step, n_qubits", [
    ("adam", _adam, 4),
    ("sgd", _sgd, 2),
    ("rmsprop", _rmsprop, 2),
])
def test_run_matches_its_oracle_recomputation(kind, step, n_qubits):
    # One batch of the whole client and one epoch: one step per client
    # and round, whatever the shuffle.
    ds = generate_federated_dataset(GenConfig(
        n_clients=3, n_qubits=n_qubits, samples_per_client=8, seed=4))
    ids = ds.client_ids()
    cfg = TrainConfig(rounds=2, train_clients=ids[:2], test_clients=ids[2:],
                      batch_size=8, seed=2,
                      opt=OptimizerConfig(kind=kind, learning_rate=LEARNING_RATE))
    servers = []
    records = run_training(ds, cfg, on_round=lambda _record, server: servers.append(server))
    assert len(records) == len(servers) == 3

    oracle = _Oracle(n_qubits)
    samples = {c.client_id: c.samples for c in ds.clients}
    names, theta = servers[0].params.names, servers[0].params.values
    states = {cid: {"m": 0.0, "v": 0.0, "t": 0} for cid in cfg.train_clients}
    for r, (record, server) in enumerate(zip(records, servers)):
        if r > 0:
            local, losses = [], {}
            for cid in cfg.train_clients:
                losses[cid], grad = oracle.loss_and_gradient(samples[cid], names, theta)
                local.append(step(states[cid], theta, grad))
            theta = server.client_weights @ np.stack(local)
            assert record.client_losses.keys() == losses.keys()
            for cid, loss in losses.items():
                assert abs(record.client_losses[cid] - loss) <= TOLERANCE
        assert np.max(np.abs(server.params.values - theta)) <= TOLERANCE
        accuracy, mse = oracle.evaluate(samples[ids[2]], names, theta)
        assert abs(record.test_accuracy - accuracy) <= TOLERANCE
        assert abs(record.test_mse - mse) <= TOLERANCE
