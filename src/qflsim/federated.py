"""Federated training loop: broadcast, local optimization, averaging.

Each round the server broadcasts its parameters, every client resets to
them and runs seeded mini-batch gradient steps on its own data, and the
server replaces its parameters with the mean of the returned vectors,
each client weighing 1/K (a unit-step move toward that mean is the mean
itself, so no separate server optimizer exists). Client optimizer
moments persist across rounds, which makes single-client federated
training coincide exactly with plain centralized training.

A run compiles one ModelEvaluator and prepares every client it trains
in process or evaluates once, in one ModelEvaluator.prepare call: each
client's data is a model.Mixture (samples, labels, and the samples over
one basis shared by every client of the run: 1 + 2n states for
generated clients on n qubits, in place of one state per sample). Local
training materialises each batch's states from the mixture, and
evaluation sweeps each distinct basis once and reads every sample's <Z>
off it.
build_clients turns those into ClientStates, each carrying the run's
TrainConfig, so local_train needs only the client and the broadcast
parameters, in process and in a socket worker alike. Evaluation reads
the test clients' mixtures and, with ``eval_train``, the same training
mixtures.

The clients run behind one server, whose ``round_trip`` (see
qflsim.transport) is shared by a LocalTransport for in-process clients,
whose forked helpers train shares of them on the other usable cores, and
a SocketFedServer for clients in worker processes. One connection serves
each helper or worker process and answers the round's broadcast with one
line per client it holds. The server returns one ClientUpdate (the
client's id, its trained parameters and its mean local loss) per client
of the round's order, which names each training client once, and
run_round averages them, each weighing 1/K, and evaluates the result.
"""

import contextlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .datagen import ClientDataset, FederatedDataset
from .errors import ConfigError, TrainingError
from .model import (
    ArchitectureSpec,
    Mixture,
    ModelEvaluator,
    ParamVector,
    build_model,
    default_architecture,
    init_params,
    mse,
    stream_rng,
)
from .store import params_checksum

OPTIMIZER_KINDS = ("sgd", "adam", "rmsprop")
# Moment decay rates and the denominator guard, the same for every run.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
RMSPROP_DECAY = 0.9
EPSILON = 1e-7

# Random-stream namespace of the batch shuffles (see stream_rng).
_SHUFFLE_STREAM = 1

@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    learning_rate: float = 0.02

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown optimizer {self.kind!r}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be positive and finite")


@dataclass
class OptimizerState:
    """Per-parameter moment accumulators plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int

    @classmethod
    def zeros(cls, n_params: int) -> "OptimizerState":
        return cls(np.zeros(n_params), np.zeros(n_params), 0)


def optimizer_step(state: OptimizerState, params: np.ndarray, grads: np.ndarray,
                   config: OptimizerConfig) -> tuple[np.ndarray, OptimizerState]:
    """One update step; returns the new parameter values and moments."""
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ConfigError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, "
            f"moments {state.m.shape}"
        )
    lr = config.learning_rate
    t = state.step + 1
    # A diverging step overflows; the caller checks for non-finite values.
    with np.errstate(over="ignore", invalid="ignore"):
        if config.kind == "sgd":
            new = params - lr * grads
            return new, OptimizerState(state.m, state.v, t)
        if config.kind == "adam":
            m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grads
            v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grads**2
            m_hat = m / (1 - ADAM_BETA1**t)
            v_hat = v / (1 - ADAM_BETA2**t)
            new = params - lr * m_hat / (np.sqrt(v_hat) + EPSILON)
            return new, OptimizerState(m, v, t)
        v = RMSPROP_DECAY * state.v + (1 - RMSPROP_DECAY) * grads**2
        new = params - lr * grads / np.sqrt(v + EPSILON)
        return new, OptimizerState(state.m, v, t)


def prepare_clients(clients: Sequence[ClientDataset],
                    evaluator: ModelEvaluator) -> tuple[Mixture, ...]:
    """Each client's samples and labels as a Mixture: its slice of one
    ModelEvaluator.prepare call over every client's samples, so all of
    them share one basis."""
    whole = evaluator.prepare([s for c in clients for s in c.samples])
    ends = np.cumsum([0] + [len(c.samples) for c in clients])
    return tuple(whole[a:b] for a, b in zip(ends[:-1], ends[1:]))


@dataclass(frozen=True)
class ClientUpdate:
    client_id: str
    params: ParamVector
    local_loss: float


@dataclass(frozen=True)
class ServerState:
    params: ParamVector
    round: int
    client_weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.client_weights, dtype=float)
        object.__setattr__(self, "client_weights", weights)
        if np.any(weights < 0):
            raise ConfigError("client weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ConfigError("client weights must sum to 1")


@dataclass(frozen=True)
class RoundRecord:
    round: int
    server_params_checksum: str
    client_losses: dict[str, float]
    test_accuracy: float
    test_mse: float
    train_accuracy: float | None = None
    train_mse: float | None = None


@dataclass(frozen=True)
class TrainConfig:
    rounds: int
    train_clients: tuple[str, ...]
    test_clients: tuple[str, ...]
    epochs: int = 1
    batch_size: int = 16
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0
    eval_train: bool = False
    arch: ArchitectureSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "train_clients", tuple(self.train_clients))
        object.__setattr__(self, "test_clients", tuple(self.test_clients))
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")


@dataclass
class ClientState:
    """One client of a run, as build_clients makes it: its identity,
    prepared data, the run's evaluator and TrainConfig, and the optimizer
    moments and epoch count that local_train carries across rounds.

    ``seed_key`` is the client's stable ordinal in the dataset; together
    with ``cfg.seed`` and the cumulative epoch counter it determines every
    batch shuffle, so runs are reproducible regardless of transport.
    """

    client_id: str
    seed_key: int
    data: Mixture
    evaluator: ModelEvaluator
    cfg: TrainConfig
    opt_state: OptimizerState
    epochs_done: int = 0


def local_train(client: ClientState, global_params: ParamVector) -> ClientUpdate:
    """Reset to the broadcast parameters, then run the seeded mini-batch
    steps of ``client.cfg`` (epochs, batch size, optimizer, seed).

    Mutates the client's moments and epoch counter; returns the final
    parameters with the mean per-batch loss, or raises TrainingError at
    the first step whose parameters are not finite (the optimizer
    diverged); a loss of finite parameters is finite, so the mean is too.
    """
    cfg = client.cfg
    n_samples = len(client.data.samples)
    if n_samples == 0:
        raise ConfigError(f"client {client.client_id} has no data")
    values = np.array(global_params.values, dtype=float)
    opt_state = client.opt_state
    losses = []
    for _ in range(cfg.epochs):
        order = stream_rng(
            cfg.seed, _SHUFFLE_STREAM, client.seed_key, client.epochs_done
        ).permutation(n_samples)
        for start in range(0, n_samples, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grad = client.evaluator.loss_and_gradient(
                client.data.materialise(idx), client.data.labels[idx], values
            )
            values, opt_state = optimizer_step(opt_state, values, grad, cfg.opt)
            losses.append(loss)
            if not np.all(np.isfinite(values)):
                raise TrainingError(
                    f"local training diverged: the parameters after step "
                    f"{len(losses)} are not finite; try a lower learning rate")
        client.epochs_done += 1
    client.opt_state = opt_state
    return ClientUpdate(client.client_id, global_params.with_values(values),
                        float(np.mean(losses)))


def federated_average(updates: Sequence[ClientUpdate], weights) -> ParamVector:
    """Coordinate-wise weighted mean of the clients' parameter vectors."""
    if len(updates) == 0:
        raise ConfigError("cannot average zero updates")
    vectors = [u.params for u in updates]
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(vectors),):
        raise ConfigError(
            f"{len(vectors)} updates but {weights.shape} weights"
        )
    if abs(float(weights.sum()) - 1.0) > 1e-9:
        raise ConfigError(f"weights sum to {weights.sum()}, expected 1")
    names = vectors[0].names  # a ParamVector has one value per name
    for vec in vectors:
        if vec.names != names:
            raise ConfigError("updates carry inconsistent parameter vectors")
    stacked = np.stack([vec.values for vec in vectors])
    return ParamVector(names, weights @ stacked)


def evaluate(params: ParamVector, test_clients: Sequence[Mixture],
             evaluator: ModelEvaluator) -> tuple[float, float]:
    """(binary accuracy at threshold 0.5, mean squared error) over the
    pooled samples of the given clients' mixtures (see prepare_clients).
    Ties at p = 0.5 count as label 0. Each distinct basis among the
    mixtures is swept once, by one readout_z call, and every sample is
    read off the <Z> of its basis states."""
    if params.names != evaluator.param_names:
        raise ConfigError("parameter names differ from the evaluator's")
    clients = [c for c in test_clients if len(c.samples)]
    if not clients:
        raise ConfigError("evaluation needs at least one sample")
    bases = {id(c.states): c.states for c in clients}
    z_states = {key: evaluator.readout_z(states, params.values)
                for key, states in bases.items()}
    labels = np.concatenate([c.labels for c in clients])
    z = np.concatenate([c.readout(z_states[id(c.states)]) for c in clients])
    preds = 0.5 * (1.0 + z)
    return float(np.mean((preds > 0.5) == (labels == 1))), mse(labels, preds)


@dataclass
class EvalContext:
    """The run's evaluator and the clients' mixtures every round of one
    training run is evaluated on (see build_run)."""

    evaluator: ModelEvaluator
    test_clients: tuple[Mixture, ...]
    train_clients: tuple[Mixture, ...] | None = None

    def record(self, round_index: int, params: ParamVector,
               client_losses: dict[str, float]) -> RoundRecord:
        test_acc, test_mse = evaluate(params, self.test_clients, self.evaluator)
        train_acc = train_mse = None
        if self.train_clients is not None:
            train_acc, train_mse = evaluate(params, self.train_clients, self.evaluator)
        return RoundRecord(
            round=round_index,
            server_params_checksum=params_checksum(params.values),
            client_losses=client_losses,
            test_accuracy=test_acc,
            test_mse=test_mse,
            train_accuracy=train_acc,
            train_mse=train_mse,
        )


def run_round(server: ServerState, transport, cfg: TrainConfig,
              ctx: EvalContext) -> tuple[ServerState, RoundRecord]:
    """One broadcast -> local train -> aggregate -> evaluate cycle; the
    transport (qflsim.transport.LocalTransport or SocketFedServer) runs
    the clients."""
    round_index = server.round + 1
    updates = transport.round_trip(round_index, server.params,
                                   list(cfg.train_clients))
    new_params = federated_average(updates, server.client_weights)
    new_server = ServerState(new_params, round_index, server.client_weights)
    record = ctx.record(
        round_index, new_params, {u.client_id: u.local_loss for u in updates}
    )
    return new_server, record


def _check_split(dataset: FederatedDataset, cfg: TrainConfig):
    known = set(dataset.client_ids())
    for cid in cfg.train_clients + cfg.test_clients:
        if cid not in known:
            raise ConfigError(f"unknown client {cid!r}")
    for role, ids in (("train", cfg.train_clients), ("test", cfg.test_clients)):
        repeated = sorted(cid for cid, n in Counter(ids).items() if n > 1)
        if repeated:
            raise ConfigError(f"{role} clients repeated: {repeated}")
    overlap = set(cfg.train_clients) & set(cfg.test_clients)
    if overlap:
        raise ConfigError(f"train/test clients overlap: {sorted(overlap)}")
    if not cfg.train_clients or not cfg.test_clients:
        raise ConfigError("train and test client sets must both be nonempty")


def build_clients(dataset: FederatedDataset, cfg: TrainConfig,
                  client_ids: Sequence[str]):
    """The run's evaluator, initial parameters and one ClientState per
    client of ``client_ids``, all derived from the dataset and ``cfg``
    alone, so a socket worker builds the same ones as an in-process run."""
    ordinals = {c.client_id: i for i, c in enumerate(dataset.clients)}
    for cid in client_ids:
        if cid not in ordinals:
            raise ConfigError(f"unknown client {cid!r}")
    arch = cfg.arch or default_architecture(dataset.gen_config.n_qubits)
    model = build_model(arch)
    evaluator = ModelEvaluator(model, model.circuit.symbols())
    params0 = init_params(arch, cfg.seed)
    prepared = prepare_clients(
        [dataset.clients[ordinals[cid]] for cid in client_ids], evaluator)
    clients = [
        ClientState(client_id=cid, seed_key=ordinals[cid], data=data,
                    evaluator=evaluator, cfg=cfg,
                    opt_state=OptimizerState.zeros(len(params0)))
        for cid, data in zip(client_ids, prepared)
    ]
    return evaluator, params0, clients


def build_run(dataset: FederatedDataset, cfg: TrainConfig, in_process: bool = True):
    """Initial server state, training client states and evaluation context.

    One build_clients call prepares every client the run evaluates and,
    in process, trains, so all of them share one basis and every sample
    is prepared once per run. With ``in_process`` false the training
    clients run elsewhere and none is returned; with ``cfg.eval_train``
    their mixtures are evaluated too."""
    _check_split(dataset, cfg)
    train = cfg.train_clients if in_process or cfg.eval_train else ()
    evaluator, params0, clients = build_clients(dataset, cfg, train + cfg.test_clients)
    data = tuple(c.data for c in clients)
    n_train = len(cfg.train_clients)
    server = ServerState(params0, 0, np.full(n_train, 1.0 / n_train))
    ctx = EvalContext(evaluator, data[len(train):],
                      data[:len(train)] if cfg.eval_train else None)
    return server, clients[:len(train)] if in_process else [], ctx


def run_training(dataset: FederatedDataset, cfg: TrainConfig,
                 on_round: Callable[[RoundRecord, ServerState], None] | None = None,
                 transport=None) -> list[RoundRecord]:
    """Full federated run; returns one record per round plus the round-0
    evaluation of the initial parameters.

    Without a ``transport`` the training clients run in process behind a
    LocalTransport; otherwise the transport (see qflsim.transport) runs them.
    """
    from .transport import LocalTransport  # transport imports this module

    server, clients, ctx = build_run(dataset, cfg, transport is None)
    local = (LocalTransport(clients) if transport is None
             else contextlib.nullcontext(transport))
    with local as transport:
        records = [ctx.record(0, server.params, {})]
        if on_round:
            on_round(records[0], server)
        for _ in range(cfg.rounds):
            server, record = run_round(server, transport, cfg, ctx)
            records.append(record)
            if on_round:
                on_round(record, server)
    return records
