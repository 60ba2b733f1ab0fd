"""Federated training loop: broadcast, local optimization, averaging.

Each round the server broadcasts its parameters, every client resets to
them and runs seeded mini-batch gradient steps on its own data, and the
server replaces its parameters with the mean of the returned vectors,
each client weighing 1/K (a unit-step move toward that mean is the mean
itself, so no separate server optimizer exists). Client optimizer
moments persist across rounds, which makes single-client federated
training coincide exactly with plain centralized training.

A run compiles one ModelEvaluator and prepares each client's input
states once, into a PreparedClient (samples, labels, prepared states).
build_clients turns those into ClientStates, each carrying the run's
TrainConfig, so local_train needs only the client and the broadcast
parameters, in process and in a socket worker alike. Evaluation reads
the test clients' records and, with ``eval_train``, the same training
records.

In process, LocalTransport trains the clients on every usable core: it
forks one helper process per further core (at most one per client, and
none for rounds too small to gain), each owning a fixed share of the
clients, while the parent trains the rest. The parent sends each helper
the broadcast and its clients' small carried state every round and
keeps the authoritative ClientStates, so records are bit-identical
whatever the core count; ``taskset`` or any other affinity mask
restricts the cores used, and each process runs pinned to one of them
while the transport is open.
"""

import contextlib
import math
import multiprocessing
import os
import signal
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .datagen import ClientDataset, FederatedDataset
from .errors import ConfigError, TrainingError
from .model import (
    ArchitectureSpec,
    ModelEvaluator,
    ParamVector,
    Sample,
    build_model,
    default_architecture,
    init_params,
    stream_rng,
)
from .store import params_checksum

OPTIMIZER_KINDS = ("sgd", "adam", "rmsprop")
# Moment decay rates and the denominator guard, the same for every run.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
RMSPROP_DECAY = 0.9
EPSILON = 1e-7

# Samples per forward pass in evaluate; bounds its temporary states.
EVAL_BATCH = 64

# Random-stream namespace of the batch shuffles (see stream_rng).
_SHUFFLE_STREAM = 1

# Fewest samples a round trains per process (parent or helper) for a
# helper to pay off: a helper costs a fork and its first round's
# copy-on-write faults (about 10 ms together) and a pipe round trip each
# round, while a sample costs 20-90 us to train (2 to 8 qubits).
MIN_SAMPLES_PER_PROCESS = 500


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
    step: int = 0

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


@dataclass(frozen=True, eq=False)
class PreparedClient:
    """One client's samples with their labels and prepared input states,
    simulated once per run and used by its local training and evaluation."""

    samples: tuple[Sample, ...]
    labels: np.ndarray = field(repr=False)
    prep_states: np.ndarray = field(repr=False)


def prepare_clients(clients: Sequence[ClientDataset],
                    evaluator: ModelEvaluator) -> tuple[PreparedClient, ...]:
    """Each client's labels and preparation states."""
    return tuple(
        PreparedClient(c.samples, np.array([s.label for s in c.samples], dtype=float),
                       evaluator.prep_states(c.samples))
        for c in clients
    )


@dataclass(frozen=True)
class ClientUpdate:
    client_id: str
    round: int
    params: ParamVector
    num_samples: int
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
    data: PreparedClient
    evaluator: ModelEvaluator
    cfg: TrainConfig
    opt_state: OptimizerState
    epochs_done: int = 0


def _shuffle_rng(base_seed: int, seed_key: int, epoch: int) -> np.random.Generator:
    return stream_rng(base_seed, _SHUFFLE_STREAM, seed_key, epoch)


def local_train(client: ClientState, global_params: ParamVector,
                round_index: int = 0) -> ClientUpdate:
    """Reset to the broadcast parameters, then run the seeded mini-batch
    steps of ``client.cfg`` (epochs, batch size, optimizer, seed).

    Mutates the client's moments and epoch counter; returns the final
    parameters with the mean per-batch loss, or raises TrainingError if
    either is not finite (the optimizer diverged).
    """
    cfg = client.cfg
    n_samples = len(client.data.samples)
    if n_samples == 0:
        raise ConfigError(f"client {client.client_id} has no data")
    values = np.array(global_params.values, dtype=float)
    opt_state = client.opt_state
    losses = []
    for _ in range(cfg.epochs):
        order = _shuffle_rng(
            cfg.seed, client.seed_key, client.epochs_done
        ).permutation(n_samples)
        for start in range(0, n_samples, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grad = client.evaluator.loss_and_gradient(
                client.data.prep_states[idx], client.data.labels[idx], values
            )
            values, opt_state = optimizer_step(opt_state, values, grad, cfg.opt)
            losses.append(loss)
        client.epochs_done += 1
    client.opt_state = opt_state
    mean_loss = float(np.mean(losses))
    if not (math.isfinite(mean_loss) and np.all(np.isfinite(values))):
        raise TrainingError(
            f"local training diverged: the parameters or the mean loss "
            f"({mean_loss}) are not finite; try a lower learning rate")
    return ClientUpdate(
        client_id=client.client_id,
        round=round_index,
        params=global_params.with_values(values),
        num_samples=n_samples,
        local_loss=mean_loss,
    )


def federated_average(updates: Sequence, weights) -> ParamVector:
    """Coordinate-wise weighted mean of the clients' parameter vectors."""
    if len(updates) == 0:
        raise ConfigError("cannot average zero updates")
    vectors = [u.params if isinstance(u, ClientUpdate) else u for u in updates]
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(vectors),):
        raise ConfigError(
            f"{len(vectors)} updates but {weights.shape} weights"
        )
    if abs(float(weights.sum()) - 1.0) > 1e-9:
        raise ConfigError(f"weights sum to {weights.sum()}, expected 1")
    names = vectors[0].names
    n = len(vectors[0])
    for vec in vectors:
        if vec.names != names or len(vec) != n:
            raise ConfigError("updates carry inconsistent parameter vectors")
    stacked = np.stack([vec.values for vec in vectors])
    return ParamVector(names, weights @ stacked)


def evaluate(params: ParamVector, test_clients: Sequence[PreparedClient],
             evaluator: ModelEvaluator) -> tuple[float, float]:
    """(binary accuracy at threshold 0.5, mean squared error) over the
    pooled samples of the given prepared clients (see prepare_clients).
    Ties at p = 0.5 count as label 0."""
    if params.names != evaluator.param_names:
        raise ConfigError("parameter names differ from the evaluator's")
    if not any(len(c.samples) for c in test_clients):
        raise ConfigError("evaluation needs at least one sample")
    labels = np.concatenate([c.labels for c in test_clients])
    preds = np.concatenate([
        evaluator.predictions(c.prep_states[start:start + EVAL_BATCH], params.values)
        for c in test_clients for start in range(0, len(c.samples), EVAL_BATCH)
    ])
    accuracy = float(np.mean((preds > 0.5) == (labels == 1)))
    mse = float(np.sum((labels - preds) ** 2) / (2 * len(labels)))
    return accuracy, mse


@dataclass
class EvalContext:
    """The run's evaluator and the prepared clients every round of one
    training run is evaluated on (see build_run)."""

    evaluator: ModelEvaluator
    test_clients: tuple[PreparedClient, ...]
    train_clients: tuple[PreparedClient, ...] | None = None

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


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the platform
    has one, so ``taskset`` restricts it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pin_to(core: int | None) -> None:
    """Run this process on ``core`` alone. Placement only: where the mask
    refuses it, the process stays where it was."""
    if core is not None:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {core})


def _fork_context():
    """The fork start method, or None on platforms without it."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _serve_share(conn, clients: dict[str, ClientState], inherited,
                 core: int | None) -> None:
    """Body of a LocalTransport helper process: pin itself to ``core``,
    then train the requested clients of its share each round until the
    parent closes the pipe.

    A request is (round, broadcast parameters, [(client id, optimizer
    state, epochs done)]); the reply lists, per client in that order,
    (id, values, samples, loss, optimizer state, epochs done), or ends
    with (id, error text) at the first client that fails.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops helpers
    for other in inherited:  # parent ends, so that EOF comes if it dies
        other.close()
    _pin_to(core)
    while True:
        try:
            round_index, params, states = conn.recv()
        except EOFError:
            return
        reply = []
        for cid, opt_state, epochs_done in states:
            client = clients[cid]
            client.opt_state, client.epochs_done = opt_state, epochs_done
            try:
                update = local_train(client, params, round_index)
            except Exception as exc:
                reply.append((cid, str(exc)))
                break
            reply.append((cid, update.params.values, update.num_samples,
                          update.local_loss, client.opt_state, client.epochs_done))
        conn.send(reply)


@dataclass(eq=False)
class _Helper:
    process: multiprocessing.process.BaseProcess
    conn: "multiprocessing.connection.Connection"  # imported by ctx.Pipe()
    client_ids: tuple[str, ...]


class LocalTransport:
    """In-process clients behind the same ``round_trip`` as SocketFedServer.

    On a machine with several usable cores the transport forks
    ``min(cores, clients, samples per round // MIN_SAMPLES_PER_PROCESS) - 1``
    helper processes when it is built, so none for a round too small to
    gain from them. Each inherits the prepared clients and the evaluator
    copy-on-write and owns a fixed round-robin share of the clients; the
    parent trains the last, smallest share itself. Where the platform can
    pin processes, each helper and then the parent run on one core of the
    parent's affinity mask, dealt round-robin, so no two share a core while
    cores last (the kernel need not move a forked helper off its parent's
    core); ``close`` restores the parent's mask. Every round the parent
    sends a helper the broadcast and its clients' optimizer states and
    epoch counts and writes the trained ones back, so the parent's
    ClientStates stay authoritative and results do not depend on the
    number of helpers. Use it as a context manager (or call ``close``)
    to stop the helpers.
    """

    def __init__(self, clients: Sequence[ClientState]):
        self.clients = {c.client_id: c for c in clients}
        self._helpers: list[_Helper] = []
        self._owner: dict[str, _Helper] = {}
        self._parent_mask: set[int] | None = None
        ctx = _fork_context()
        work = sum(len(c.data.samples) * c.cfg.epochs for c in clients)
        n_processes = min(_usable_cores(), len(self.clients),
                          work // MIN_SAMPLES_PER_PROCESS) if ctx else 1
        if n_processes < 2 or not hasattr(os, "sched_setaffinity"):
            cores = [None]  # no helper, or no pinning on this platform
        else:
            cores = sorted(os.sched_getaffinity(0))
        ids = list(self.clients)
        try:
            for h in range(n_processes - 1):
                share = tuple(ids[h::n_processes])
                conn, child_conn = ctx.Pipe()
                inherited = [other.conn for other in self._helpers] + [conn]
                process = ctx.Process(
                    target=_serve_share, name=f"qflsim-helper-{h}", daemon=True,
                    args=(child_conn, {cid: self.clients[cid] for cid in share},
                          inherited, cores[h % len(cores)]))
                process.start()
                child_conn.close()
                helper = _Helper(process, conn, share)
                self._helpers.append(helper)
                self._owner.update(dict.fromkeys(share, helper))
            if cores[0] is not None:
                self._parent_mask = os.sched_getaffinity(0)
                _pin_to(cores[(n_processes - 1) % len(cores)])
        except BaseException:
            self.close()
            raise

    def round_trip(self, round_index: int, params: ParamVector,
                   order: list[str]) -> list[ClientUpdate]:
        """Train every client of ``order``, the helpers' shares in their
        processes while the parent trains its own. A client that fails
        raises TrainingError; with several failures, the first in
        ``order``, as if the clients had trained one after another."""
        shares: dict[_Helper, list[str]] = {}
        for cid in order:
            if cid in self._owner:
                shares.setdefault(self._owner[cid], []).append(cid)
        dead = []
        for helper, ids in shares.items():
            states = [(cid, self.clients[cid].opt_state, self.clients[cid].epochs_done)
                      for cid in ids]
            try:
                helper.conn.send((round_index, params, states))
            except OSError:
                dead.append(helper)
        results = {}  # client id -> ClientUpdate, or why it failed
        for cid in order:
            if cid not in self._owner:
                try:
                    results[cid] = local_train(self.clients[cid], params, round_index)
                except Exception as exc:
                    results[cid] = exc
                    break
        for helper in shares:
            if helper in dead:
                continue
            try:
                reply = helper.conn.recv()
            except (EOFError, OSError):
                dead.append(helper)
                continue
            for cid, *result in reply:
                if len(result) == 1:
                    results[cid] = result[0]
                    continue
                values, n_samples, loss, opt_state, epochs_done = result
                client = self.clients[cid]
                client.opt_state, client.epochs_done = opt_state, epochs_done
                results[cid] = ClientUpdate(cid, round_index, params.with_values(values),
                                            n_samples, loss)
        if dead:
            helper = dead[0]
            helper.process.join()  # its end of the pipe closed as it exited
            raise TrainingError(
                f"helper process for clients {list(helper.client_ids)} died in "
                f"round {round_index} (exit code {helper.process.exitcode})")
        for cid in order:
            result = results.get(cid)
            if not isinstance(result, ClientUpdate):
                raise TrainingError(
                    f"client {cid} failed in round {round_index}: {result}"
                ) from (result if isinstance(result, Exception) else None)
        return [results[cid] for cid in order]

    def close(self):
        """Stop every helper at once, mid-round too: the parent holds every
        client's state, so a helper has nothing to finish. Then give the
        parent back the affinity mask it had before it was pinned."""
        if self._parent_mask is not None:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, self._parent_mask)
            self._parent_mask = None
        for helper in self._helpers:
            helper.conn.close()
            helper.process.kill()
        for helper in self._helpers:
            helper.process.join()
            helper.process.close()
        self._helpers.clear()
        self._owner.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_round(server: ServerState, transport, cfg: TrainConfig,
              ctx: EvalContext) -> tuple[ServerState, RoundRecord]:
    """One broadcast -> local train -> aggregate -> evaluate cycle; the
    transport (LocalTransport or qflsim.transport.SocketFedServer) runs
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


def _split_datasets(dataset: FederatedDataset, cfg: TrainConfig):
    by_id = {c.client_id: c for c in dataset.clients}
    for cid in cfg.train_clients + cfg.test_clients:
        if cid not in by_id:
            raise ConfigError(f"unknown client {cid!r}")
    overlap = set(cfg.train_clients) & set(cfg.test_clients)
    if overlap:
        raise ConfigError(f"train/test clients overlap: {sorted(overlap)}")
    if not cfg.train_clients or not cfg.test_clients:
        raise ConfigError("train and test client sets must both be nonempty")
    train = tuple(by_id[cid] for cid in cfg.train_clients)
    test = tuple(by_id[cid] for cid in cfg.test_clients)
    return train, test


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
    """Initial server state, client states and evaluation context.

    With ``in_process`` false the clients run elsewhere and no client
    state is built here. With ``cfg.eval_train`` in process, the training
    clients' own prepared data is evaluated, so every sample is prepared
    once per run."""
    train_data, test_data = _split_datasets(dataset, cfg)
    evaluator, params0, clients = build_clients(
        dataset, cfg, cfg.train_clients if in_process else ())
    server = ServerState(params0, 0, np.full(len(train_data), 1.0 / len(train_data)))
    train_eval = None
    if cfg.eval_train:
        train_eval = (tuple(c.data for c in clients) if in_process
                      else prepare_clients(train_data, evaluator))
    ctx = EvalContext(evaluator, prepare_clients(test_data, evaluator), train_eval)
    return server, clients, ctx


def run_training(dataset: FederatedDataset, cfg: TrainConfig,
                 on_round: Callable[[RoundRecord, ServerState], None] | None = None,
                 transport=None) -> list[RoundRecord]:
    """Full federated run; returns one record per round plus the round-0
    evaluation of the initial parameters.

    Without a ``transport`` the training clients run in process behind a
    LocalTransport; otherwise the transport (see qflsim.transport) runs them.
    """
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
