"""Quantum convolutional classifier: architecture, forward pass, loss, gradients.

The network is a stack of stages. Each stage sweeps one shared
15-parameter two-qubit convolution unit over adjacent pairs of the
active qubits, then pools every pair with a 6-parameter controlled unit
that halves the active set. A single-qubit Z readout, optionally after a
3-parameter rotation triple, is mapped to a prediction
p = (1 + <Z>)/2 in [0, 1]. ArchitectureSpec holds the four settings
(qubits, stages, readout qubit, fc unit); build_model_circuit is the one
walk over the stages, and the parameter names are its circuit's symbols.

ModelEvaluator compiles the model circuit once into blocks: maximal runs
of consecutive gates whose targets together span at most two qubits
(gate fusion as in qsim). The default 8-qubit model's 265 gates become
19 blocks of 4x4; a block on one qubit stays 2x2. Each evaluation builds
every gate matrix of every block from the angles in one vectorised
cos/sin step and multiplies them into the block matrices, so the forward
pass applies one matrix per block.

Gradients are exact. Every gate has the form exp(-i*theta/2*G) with
G^2 = I, so each occurrence of a parameter contributes the shift-rule
value ( <Z>(theta + pi/2) - <Z>(theta - pi/2) ) / 2, and shared symbols
sum their occurrences. The engine gets the same values from one adjoint
sweep taken at block level: it keeps the input state of each block,
contracts it with the adjoint state over the qubits the block does not
touch, and differentiates each block matrix through the products of the
gates before and after the occurrence.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, UnresolvedParameterError
from .sim import (
    Circuit,
    GateOp,
    PARAMETRIZED_GATES,
    PAULI_GENERATORS,
    apply_circuit,
    apply_matrix,
    bit_axes_first,
    cnot,
    expectation_z_many,
    gate_matrix,
    new_zero_state,
    rx,
    ry,
    rz,
    xx,
    yy,
    zz,
)

CONV_PARAMS = 15
POOL_PARAMS = 6
FC_PARAMS = 3


@dataclass(frozen=True)
class ArchitectureSpec:
    """The QCNN's shape: ``n_stages`` conv/pool stages on ``n_qubits``,
    a Z readout on ``readout_qubit`` and, with ``include_fc``, a final
    rotation triple on it. Zero stages leave every qubit active, for
    models whose circuit is built by hand."""

    n_qubits: int
    n_stages: int
    readout_qubit: int
    include_fc: bool = False

    def __post_init__(self):
        if self.n_stages < 0:
            raise ConfigError(f"n_stages must be >= 0, got {self.n_stages}")
        if self.n_qubits % (1 << self.n_stages) != 0:
            raise ConfigError(
                f"{self.n_qubits} qubits do not halve evenly over "
                f"{self.n_stages} stages"
            )
        if self.readout_qubit not in stage_qubits(self)[-1]:
            raise ConfigError(
                f"readout qubit {self.readout_qubit} does not survive pooling"
            )


def stage_qubits(arch: ArchitectureSpec) -> list[tuple[int, ...]]:
    """The active qubits of each stage, then the survivors: every pool
    unit retires the first qubit of its pair, so each stage keeps every
    second active qubit."""
    active = [tuple(range(arch.n_qubits))]
    for _ in range(arch.n_stages):
        active.append(active[-1][1::2])
    return active


def parameter_names(arch: ArchitectureSpec) -> tuple[str, ...]:
    """Symbol names in stage-major order: c0_*, p0_*, c1_*, ..., f_*."""
    return build_model_circuit(arch).symbols()


def param_count(arch: ArchitectureSpec) -> int:
    return len(parameter_names(arch))


def build_architecture(n_qubits: int, n_stages: int | None = None,
                       readout_qubit: int | None = None,
                       include_fc: bool = False) -> ArchitectureSpec:
    """Alternating conv/pool stages that halve the active qubit set.

    ``n_qubits`` must be a power of two in [2, 16]. The default stage
    count halves all the way down to one surviving qubit; with fewer
    stages the readout may be any surviving qubit (default: the last,
    which survives every stage).
    """
    if n_qubits < 2 or n_qubits > 16 or (n_qubits & (n_qubits - 1)) != 0:
        raise ConfigError(
            f"n_qubits must be a power of two in [2, 16], got {n_qubits}"
        )
    max_stages = n_qubits.bit_length() - 1
    if n_stages is None:
        n_stages = max_stages
    if not 1 <= n_stages <= max_stages:
        raise ConfigError(
            f"n_stages must be in [1, {max_stages}] for {n_qubits} qubits"
        )
    if readout_qubit is None:
        readout_qubit = n_qubits - 1
    return ArchitectureSpec(n_qubits, n_stages, readout_qubit, include_fc)


def default_architecture(n_qubits: int) -> ArchitectureSpec:
    return build_architecture(n_qubits)


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Ordered learnable angles with stable, unique symbol names."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(set(names)) != len(names):
            raise ConfigError("parameter names must be unique")
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.shape[0] != len(names):
            raise ConfigError(
                f"expected {len(names)} values, got shape {values.shape}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.names)

    def bindings(self) -> dict[str, float]:
        return dict(zip(self.names, self.values.tolist()))

    def with_values(self, values) -> "ParamVector":
        return ParamVector(self.names, values)


@dataclass(frozen=True)
class Sample:
    """One labeled input: its state-preparation circuit and a binary label."""

    prep_circuit: Circuit
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ConfigError(f"label must be 0 or 1, got {self.label}")


def conv_unit(q_a: int, q_b: int, symbols: Sequence[str]) -> tuple[GateOp, ...]:
    """15-parameter two-qubit convolution unit.

    Rotation triples on each qubit, ZZ/YY/XX couplers, then rotation
    triples on each qubit again.
    """
    sy = tuple(symbols)
    if len(sy) != CONV_PARAMS or len(set(sy)) != CONV_PARAMS:
        raise ConfigError(f"conv unit needs {CONV_PARAMS} distinct symbols")
    return (
        rx(q_a, symbol=sy[0]), ry(q_a, symbol=sy[1]), rz(q_a, symbol=sy[2]),
        rx(q_b, symbol=sy[3]), ry(q_b, symbol=sy[4]), rz(q_b, symbol=sy[5]),
        zz(q_a, q_b, symbol=sy[6]),
        yy(q_a, q_b, symbol=sy[7]),
        xx(q_a, q_b, symbol=sy[8]),
        rx(q_a, symbol=sy[9]), ry(q_a, symbol=sy[10]), rz(q_a, symbol=sy[11]),
        rx(q_b, symbol=sy[12]), ry(q_b, symbol=sy[13]), rz(q_b, symbol=sy[14]),
    )


def pool_unit(source: int, sink: int, symbols: Sequence[str]) -> tuple[GateOp, ...]:
    """6-parameter pooling unit retiring ``source`` into ``sink``.

    Rotation triple on the sink, triple on the source, CNOT(source, sink),
    then the exact inverse of the sink triple (negated angles, reversed
    order). Later stages must never address the source again.
    """
    sy = tuple(symbols)
    if len(sy) != POOL_PARAMS or len(set(sy)) != POOL_PARAMS:
        raise ConfigError(f"pool unit needs {POOL_PARAMS} distinct symbols")
    return (
        rx(sink, symbol=sy[0]), ry(sink, symbol=sy[1]), rz(sink, symbol=sy[2]),
        rx(source, symbol=sy[3]), ry(source, symbol=sy[4]), rz(source, symbol=sy[5]),
        cnot(source, sink),
        rz(sink, symbol=sy[2], sign=-1),
        ry(sink, symbol=sy[1], sign=-1),
        rx(sink, symbol=sy[0], sign=-1),
    )


def fc_unit(q: int, symbols: Sequence[str]) -> tuple[GateOp, ...]:
    """3-parameter rotation triple on the readout qubit."""
    sy = tuple(symbols)
    if len(sy) != FC_PARAMS or len(set(sy)) != FC_PARAMS:
        raise ConfigError(f"fc unit needs {FC_PARAMS} distinct symbols")
    return (rx(q, symbol=sy[0]), ry(q, symbol=sy[1]), rz(q, symbol=sy[2]))


def build_model_circuit(arch: ArchitectureSpec) -> Circuit:
    """Symbolic model circuit with translational weight sharing.

    Stage i sweeps one conv unit with the symbols c{i}_0..14 over the
    even-offset pairs of its active qubits, then over the odd-offset
    pairs with cyclic wrap (on two qubits the wrap pair would repeat the
    first), and pools each even-offset pair (first into second) with the
    symbols p{i}_0..5; the fc unit's are f_0..2. The circuit's symbols
    in first-use order are parameter_names(arch).
    """
    ops: list[GateOp] = []
    for i, active in enumerate(stage_qubits(arch)[:-1]):
        conv = [f"c{i}_{j}" for j in range(CONV_PARAMS)]
        pool = [f"p{i}_{j}" for j in range(POOL_PARAMS)]
        pairs = list(zip(active[0::2], active[1::2]))
        wrapped = list(zip(active[1::2], active[2::2] + active[:1]))
        for a, b in pairs + (wrapped if len(active) > 2 else []):
            ops += conv_unit(a, b, conv)
        for source, sink in pairs:
            ops += pool_unit(source, sink, pool)
    if arch.include_fc:
        ops += fc_unit(arch.readout_qubit, [f"f_{j}" for j in range(FC_PARAMS)])
    return Circuit(arch.n_qubits, tuple(ops))


@dataclass(frozen=True)
class Model:
    """Architecture plus its built symbolic circuit."""

    arch: ArchitectureSpec
    circuit: Circuit

    @property
    def readout_qubit(self) -> int:
        return self.arch.readout_qubit

    @property
    def n_qubits(self) -> int:
        return self.arch.n_qubits


def build_model(arch: ArchitectureSpec) -> Model:
    return Model(arch, build_model_circuit(arch))


INIT_ANGLE_SCALE = 0.5
_INIT_STREAM = 0  # stream_rng namespace; batch shuffles use 1


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator of the random stream ``key`` of a run seed. The key is the
    SeedSequence spawn key, which the dataset generators (entropy [seed,
    client index]) never set, so the two cannot coincide for equal seeds."""
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=tuple(map(int, key))))


def init_params(arch: ArchitectureSpec, seed: int) -> ParamVector:
    """Seeded uniform initial angles on [-INIT_ANGLE_SCALE, INIT_ANGLE_SCALE).

    The half-radian spread matters: near-identity starts (0.1 rad
    or less) leave training stuck on an accuracy plateau around 0.85 on
    the excitation task, while 0.5 rad trains to ~0.99 under the same
    optimizer budget.
    """
    names = parameter_names(arch)
    values = stream_rng(seed, _INIT_STREAM).uniform(
        -INIT_ANGLE_SCALE, INIT_ANGLE_SCALE, size=len(names))
    return ParamVector(names, values)


def _fuse_blocks(ops: Sequence[GateOp]) -> list[tuple[tuple[int, ...], list[GateOp]]]:
    """Split a gate sequence into maximal runs whose targets span at most
    two qubits; each run's qubits are listed high to low."""
    blocks: list[tuple[set[int], list[GateOp]]] = []
    for op in ops:
        if blocks and len(blocks[-1][0] | set(op.targets)) <= 2:
            blocks[-1][0].update(op.targets)
            blocks[-1][1].append(op)
        else:
            blocks.append((set(op.targets), [op]))
    return [(tuple(sorted(qubits, reverse=True)), run) for qubits, run in blocks]


def _embed(mat: np.ndarray, targets: tuple[int, ...],
           qubits: tuple[int, ...]) -> np.ndarray:
    """A gate's matrix in its block's basis, padded to 4x4 (the block's
    first qubit is the high bit; one-qubit blocks use the top-left 2x2)."""
    out = np.zeros((4, 4), dtype=complex)
    if len(qubits) == 1:
        out[:2, :2] = mat
    elif len(targets) == 2:
        out[:] = mat if targets == qubits else \
            mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    elif targets[0] == qubits[0]:
        out[:] = np.kron(mat, np.eye(2))
    else:
        out[:] = np.kron(np.eye(2), mat)
    return out


def _check_batch(prep_states: np.ndarray):
    if len(prep_states) == 0:
        raise ConfigError("batch must be nonempty")


def _local_overlap(psi: np.ndarray, lam: np.ndarray, qubits: tuple[int, ...],
                   n_qubits: int) -> np.ndarray:
    """R[b, x, y]: psi[b] times conj(lam[b]) summed over every qubit outside
    ``qubits``, with x and y their local basis indices."""
    d, batch = 1 << len(qubits), psi.shape[0]
    p = bit_axes_first(psi, qubits, n_qubits).reshape(d, batch, -1)
    q = bit_axes_first(lam, qubits, n_qubits).reshape(d, batch, -1)
    return p.transpose(1, 0, 2) @ q.conj().transpose(1, 2, 0)


class ModelEvaluator:
    """Batched forward and gradient evaluation of one model.

    Compiles the model circuit once against a fixed parameter-name order
    into blocks of at most two qubits (see the module docstring); sample
    preparation states are parameter-independent and can be cached by
    the caller across optimization steps.
    """

    def __init__(self, model: Model, param_names: Sequence[str]):
        self.model = model
        self.n_qubits = model.n_qubits
        self.readout = model.readout_qubit
        self.param_names = tuple(param_names)
        name_to_idx = {name: i for i, name in enumerate(self.param_names)}
        self.n_params = len(name_to_idx)
        if len(name_to_idx) != len(self.param_names):
            raise ConfigError("parameter names must be unique")
        blocks = _fuse_blocks(model.circuit.ops)
        self.block_qubits = [qubits for qubits, _run in blocks]
        depth = max((len(run) for _qubits, run in blocks), default=1)
        shape = (len(blocks), depth)
        # Slot (block, j) holds cos(a/2) * cos_part + sin(a/2) * sin_part
        # with a = angle + sign * values[param]; empty slots are identities.
        self._cos_part = np.broadcast_to(np.eye(4, dtype=complex), shape + (4, 4)).copy()
        self._sin_part = np.zeros(shape + (4, 4), dtype=complex)
        self._angle = np.zeros(shape)
        self._sign = np.zeros(shape)
        self._param = np.full(shape, -1, dtype=np.int64)
        for b, (qubits, run) in enumerate(blocks):
            for j, op in enumerate(run):
                if op.kind not in PARAMETRIZED_GATES:
                    self._cos_part[b, j] = _embed(gate_matrix(op), op.targets, qubits)
                    continue
                gen = _embed(PAULI_GENERATORS[op.kind], op.targets, qubits)
                self._sin_part[b, j] = -1j * gen
                if op.symbol is None:
                    self._angle[b, j] = op.angle
                    continue
                if op.symbol not in name_to_idx:
                    raise ConfigError(f"model symbol {op.symbol!r} not in parameters")
                self._param[b, j] = name_to_idx[op.symbol]
                self._sign[b, j] = op.sign
        # d(slot)/d(value) = sign * (-i/2) G * slot; dz sums slots per parameter.
        self._dgen = 0.5 * self._sign[..., None, None] * self._sin_part
        self._scatter = np.zeros((self.n_params, self._param.size))
        slots = np.flatnonzero(self._param.ravel() >= 0)
        self._scatter[self._param.ravel()[slots], slots] = 1.0

    def _block_products(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slot matrices and their prefix products, both (blocks, depth, 4, 4):
        prefix entry j is slot j times every earlier slot of its block, so
        prefix entry -1 is the block matrix."""
        bound = np.append(np.asarray(values, dtype=float), 0.0)[self._param]
        half = 0.5 * (self._angle + self._sign * bound)
        slots = (np.cos(half)[..., None, None] * self._cos_part
                 + np.sin(half)[..., None, None] * self._sin_part)
        prefix = slots.copy()
        for j in range(1, slots.shape[1]):
            prefix[:, j] = slots[:, j] @ prefix[:, j - 1]
        return slots, prefix

    def _block_matrix(self, prefix: np.ndarray, b: int) -> np.ndarray:
        d = 1 << len(self.block_qubits[b])
        return prefix[b, -1, :d, :d]

    def prep_states(self, samples: Sequence[Sample]) -> np.ndarray:
        """(n_samples, 2^n) array of each sample's prepared input state.

        Samples whose circuits have the same gate kinds and targets are
        prepared together: their common leading gates are simulated once,
        and every later gate is applied to the whole group, a rotation
        with per-sample angles a as cos(a/2) psi - i sin(a/2) G psi.
        """
        n = self.n_qubits
        groups: dict[tuple, list[int]] = {}
        for i, sample in enumerate(samples):
            circuit = sample.prep_circuit
            if circuit.n_qubits != n:
                raise ConfigError(
                    f"sample on {circuit.n_qubits} qubits, model expects {n}"
                )
            for op in circuit.ops:
                if op.symbol is not None:
                    raise UnresolvedParameterError(
                        f"sample circuit has unbound symbol {op.symbol!r}"
                    )
            key = tuple((op.kind, op.targets) for op in circuit.ops)
            groups.setdefault(key, []).append(i)
        out = np.empty((len(samples), 1 << n), dtype=complex)
        for rows in groups.values():
            out[rows] = self._prepare_group([samples[i].prep_circuit.ops for i in rows])
        return out

    def _prepare_group(self, op_lists: list[tuple[GateOp, ...]]) -> np.ndarray:
        n = self.n_qubits
        columns = list(zip(*op_lists))  # the t-th gate of every sample
        shared = 0
        while shared < len(columns) and len(set(columns[shared])) == 1:
            shared += 1
        psi = apply_circuit(new_zero_state(n), Circuit(n, op_lists[0][:shared]))
        psi = np.repeat(psi[None, :], len(op_lists), axis=0)
        for ops in columns[shared:]:
            op = ops[0]
            if len(set(ops)) == 1:
                psi = apply_matrix(psi, gate_matrix(op), op.targets, n)
                continue
            half = 0.5 * np.array([o.angle for o in ops])
            flipped = apply_matrix(psi, PAULI_GENERATORS[op.kind], op.targets, n)
            psi = np.cos(half)[:, None] * psi - 1j * np.sin(half)[:, None] * flipped
        return psi

    def readout_z(self, prep_states: np.ndarray, values: np.ndarray) -> np.ndarray:
        _check_batch(prep_states)
        _slots, prefix = self._block_products(values)
        psi = prep_states
        for b, qubits in enumerate(self.block_qubits):
            psi = apply_matrix(psi, self._block_matrix(prefix, b), qubits, self.n_qubits)
        return expectation_z_many(psi, self.readout, self.n_qubits)

    def predictions(self, prep_states: np.ndarray, values: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 + self.readout_z(prep_states, values))

    def loss(self, prep_states: np.ndarray, labels: np.ndarray,
             values: np.ndarray) -> float:
        p = self.predictions(prep_states, values)
        return float(np.sum((labels - p) ** 2) / (2 * len(labels)))

    def readout_z_and_gradient(self, prep_states: np.ndarray,
                               values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample <Z> and its exact derivative for every parameter.

        Returns (z, dz) with z of shape (batch,) and dz of shape
        (n_params, batch). Block inputs are recorded on the forward
        sweep; an adjoint state lam, the Z observable pulled back through
        the later blocks, is swept backwards. Per block, psi_in and lam
        contracted over the untouched qubits give R (batch, 4, 4), and
        slot j adds 2 Re tr(dU_j R) to its parameter, where dU_j is the
        block matrix with slot j differentiated. This equals the
        shift-rule value (E(+pi/2) - E(-pi/2)) / 2 of every occurrence.
        """
        _check_batch(prep_states)
        n = self.n_qubits
        batch, dim = prep_states.shape
        slots, prefix = self._block_products(values)
        n_blocks = len(self.block_qubits)
        fwd = np.empty((n_blocks + 1, batch, dim), dtype=complex)
        fwd[0] = prep_states
        for b, qubits in enumerate(self.block_qubits):
            fwd[b + 1] = apply_matrix(fwd[b], self._block_matrix(prefix, b), qubits, n)

        bits = (np.arange(dim) >> self.readout) & 1
        z_signs = 1.0 - 2.0 * bits
        z = (np.abs(fwd[n_blocks]) ** 2) @ z_signs

        lam = fwd[n_blocks] * z_signs
        overlaps = np.zeros((n_blocks, batch, 4, 4), dtype=complex)
        for b in range(n_blocks - 1, -1, -1):
            qubits = self.block_qubits[b]
            d = 1 << len(qubits)
            overlaps[b, :, :d, :d] = _local_overlap(fwd[b], lam, qubits, n)
            if b:
                lam = apply_matrix(lam, self._block_matrix(prefix, b).conj().T, qubits, n)

        # suffix[:, j] is the product of the slots after j in its block.
        suffix = np.empty_like(prefix)
        suffix[:, -1] = np.eye(4)
        for j in range(prefix.shape[1] - 2, -1, -1):
            suffix[:, j] = suffix[:, j + 1] @ slots[:, j + 1]
        d_block = suffix @ self._dgen @ prefix
        # tr(dU R) for every slot and sample, as one product per block.
        traces = d_block.reshape(n_blocks, prefix.shape[1], 16) @ \
            overlaps.transpose(0, 3, 2, 1).reshape(n_blocks, 16, batch)
        dz = self._scatter @ (2.0 * traces.real).reshape(-1, batch)
        return z, dz

    def loss_and_gradient(self, prep_states: np.ndarray, labels: np.ndarray,
                          values: np.ndarray) -> tuple[float, np.ndarray]:
        z, dz = self.readout_z_and_gradient(prep_states, values)
        p = 0.5 * (1.0 + z)
        m = len(labels)
        loss = float(np.sum((labels - p) ** 2) / (2 * m))
        grad = dz @ (p - labels) / (2 * m)
        return loss, grad

