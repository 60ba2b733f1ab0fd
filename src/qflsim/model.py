"""Quantum convolutional classifier: architecture, forward pass, loss, gradients.

The network is a stack of stages. Each stage sweeps one shared
15-parameter two-qubit convolution unit over adjacent pairs of the
active qubits, then pools every pair with a 6-parameter controlled unit
that halves the active set. A single-qubit Z readout, optionally after a
3-parameter rotation triple, is mapped to a prediction
p = (1 + <Z>)/2 in [0, 1]. ArchitectureSpec holds the four settings
(qubits, stages, readout qubit, fc unit); build_model_circuit is the one
walk over the stages, and the parameter names are its circuit's symbols.

ModelEvaluator compiles the model circuit once into a block program.
Blocks are maximal runs of consecutive gates whose targets together
span at most two qubits (gate fusion as in qsim), and a run on one qubit
q spans q and (q + 1) mod n, so every block is 4x4: the default 8-qubit
model's 265 gates become 19 blocks. Blocks whose gates agree slot for
slot (gate, local target order, symbol, sign, angle) share a kind;
weight sharing makes the default model's 19 blocks 7 kinds. Per
evaluation, every slot matrix of every kind is built from the angles in
one vectorised cos/sin step and multiplied into the kinds' block
matrices, in real 8x8 form [[Re, -Im], [Im, Re]] with the slots stored
depth-major.

States are real float64 arrays. A state lives in the layout of the
block that last wrote it: re/im, that block's qubits, the other qubits
high to low, then the batch. So a block step is one real 8x8 matmul
of the block matrix by an (8, rest) view, then one copy into the next
block's layout whose innermost runs are whole batches; the permutations
are fixed at compile time. For each batch size and sweep (forward only,
or taped for the gradient) the evaluator builds once a plan that owns
its work buffers (two spare states and, for a taped plan, the tape and
the per-sample overlaps) and holds every view its sweep uses (each
block's (8, rest) input and output, each regather's permuted source and
its destination, each block's per-sample overlap operands), so a block
step costs one matmul and one copy.

Gradients are exact. Every gate has the form exp(-i*theta/2*G) with
G^2 = I, so each occurrence of a parameter contributes the shift-rule
value ( <Z>(theta + pi/2) - <Z>(theta - pi/2) ) / 2, and shared symbols
sum their occurrences. The engine gets the same values from one adjoint
sweep taken at block level (Jones & Gacon, arXiv:2009.02823): the tape
keeps each block's gathered input, and the adjoint state goes back
through each block by the transpose of its real form. Per block and
sample, the two summed over the qubits the block does not touch give a
real 8x8 Gram matrix G. Gram matrices are summed per kind, and each
kind's block matrix U is differentiated slot by slot. U is orthogonal
(the real form of a unitary), so the slots after slot j multiply to
U P_j^T, with P_j the product of the slots up to j: the derivative in
slot j is U P_j^T dgen_j P_j, and its product with G is that of
P_j^T dgen_j P_j with U^T G. That is two batched matmuls over the slots
and one U^T per kind and sample, with no suffix products.

ModelEvaluator.prepare holds samples and their labels as a Mixture: a
sample that ends in a rotation with a bound angle combines two states
that every sample of the call with the same earlier gates and rotation
shares, and its <Z> follows from the <Z> of three states. Generated
samples on n qubits take 1 + 2n states, however many samples and
clients one call holds. The evaluator keeps no sample state between
calls. readout_z sweeps at most EVAL_BATCH states at a time, which
bounds the plans it builds.
"""

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, UnresolvedParameterError
from .sim import (
    Circuit,
    GateOp,
    MAX_QUBITS,
    PAULI_GENERATORS,
    apply_circuit,
    apply_matrix,
    cnot,
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

# States per forward sweep of readout_z; bounds the width of its plans.
EVAL_BATCH = 64


@dataclass(frozen=True)
class ArchitectureSpec:
    """The QCNN's shape: ``n_stages`` conv/pool stages on ``n_qubits``,
    a Z readout on ``readout_qubit`` and, with ``include_fc``, a final
    rotation triple on it. Zero stages leave every qubit active, for
    models whose circuit is built by hand; such a circuit still needs a
    gate and a parameter (see ModelEvaluator)."""

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


def build_architecture(n_qubits: int, n_stages: int | None = None,
                       readout_qubit: int | None = None,
                       include_fc: bool = False) -> ArchitectureSpec:
    """Alternating conv/pool stages that halve the active qubit set.

    ``n_qubits`` must be a power of two in [2, MAX_QUBITS]. The default
    stage count halves all the way down to one surviving qubit; with fewer
    stages the readout may be any surviving qubit (default: the last,
    which survives every stage).
    """
    if n_qubits < 2 or n_qubits > MAX_QUBITS or (n_qubits & (n_qubits - 1)) != 0:
        raise ConfigError(
            f"n_qubits must be a power of two in [2, {MAX_QUBITS}], got {n_qubits}"
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

    def with_values(self, values) -> "ParamVector":
        return ParamVector(self.names, values)


@dataclass(frozen=True, slots=True, init=False)
class Sample:
    """One labeled input: its state-preparation circuit and a binary label."""

    prep_circuit: Circuit
    label: int

    def __init__(self, prep_circuit: Circuit, label: int):
        # A dataset holds one per sample: the slots' own setters skip a frozen
        # dataclass's name lookups. The label is the int a file reads back.
        if label != 0 and label != 1:
            raise ConfigError(f"label must be 0 or 1, got {label}")
        _SET_PREP_CIRCUIT(self, prep_circuit)
        _SET_LABEL(self, 1 if label else 0)


_SET_PREP_CIRCUIT, _SET_LABEL = (vars(Sample)[name].__set__ for name in Sample.__slots__)


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


def _fuse_blocks(ops: Sequence[GateOp],
                 n_qubits: int) -> list[tuple[tuple[int, int], list[GateOp]]]:
    """Split a gate sequence into maximal runs whose targets span at most
    two qubits, then give a run on one qubit q the qubit (q + 1) mod n as
    its second; each run's two qubits are listed high to low."""
    blocks: list[tuple[set[int], list[GateOp]]] = []
    for op in ops:
        if blocks and len(blocks[-1][0] | set(op.targets)) <= 2:
            blocks[-1][0].update(op.targets)
            blocks[-1][1].append(op)
        else:
            blocks.append((set(op.targets), [op]))
    for qubits, _run in blocks:
        if len(qubits) == 1:
            qubits.add((min(qubits) + 1) % n_qubits)
    return [(tuple(sorted(qubits, reverse=True)), run) for qubits, run in blocks]


def _embed(mat: np.ndarray, local: tuple[int, ...]) -> np.ndarray:
    """A gate's 4x4 matrix in its block's basis, given the places of its
    targets among the block's two qubits, the first qubit the high bit."""
    if len(local) == 2:
        return mat if local == (0, 1) else \
            mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    if local == (0,):
        return np.kron(mat, np.eye(2))
    return np.kron(np.eye(2), mat)


def _check_batch(prep_states: np.ndarray):
    if len(prep_states) == 0:
        raise ConfigError("batch must be nonempty")


def mse(labels: np.ndarray, p: np.ndarray) -> float:
    """sum((y - p)^2) / 2m: the training loss and the evaluation MSE."""
    return float(np.sum((labels - p) ** 2) / (2 * len(labels)))


def _real_form(mats: np.ndarray) -> np.ndarray:
    """Complex (slot, kind, 4, 4) matrices as real (slot, kind, 8, 8)
    [[Re, -Im], [Im, Re]], which act on a state stored as [Re; Im].
    Products carry over, and the real form of a conjugate transpose is the
    transpose of the real form."""
    re, im = mats.real, mats.imag
    return np.block([[re, -im], [im, re]])


_BATCH, _REIM = -1, -2  # the batch and re/im axes among a layout's labels


def _layout(qubits: tuple[int, ...], n_qubits: int) -> tuple[int, ...]:
    """Axis order of the real state block ``qubits`` reads and writes:
    re/im, its qubits, the other qubits high to low, then the batch."""
    rest = tuple(q for q in range(n_qubits - 1, -1, -1) if q not in qubits)
    return (_REIM,) + qubits + rest + (_BATCH,)


def _move(src: tuple[int, ...], dst: tuple[int, ...]) -> tuple[tuple, tuple]:
    """(shape, axes): a state in layout ``src`` viewed with one axis per
    label, and the transpose that orders those axes as ``dst``."""
    shape = tuple(-1 if label == _BATCH else 2 for label in src)
    return shape, tuple(src.index(label) for label in dst)


class _Plan(NamedTuple):
    """The sweep of one batch size: views of buffers of its own, built
    once. A step (mat, x, y, moved, dst) is ``y = mat @ x``, then, given
    a ``dst``, the copy of ``moved`` (y's buffer in the next layout's
    axis order) into it."""

    first: np.ndarray          # the prepared states' destination
    forward: list[tuple]       # one step per block
    final: np.ndarray          # (2 * 2^n, batch): the last block's output
    square: np.ndarray         # readout scratch of final's shape
    # The taped sweep's adjoint: (lam, psi, gram) per block and one step
    # per block but the first, both the last block first; and the grams
    # as (block, batch * 64) rows.
    overlaps: list[tuple] = []
    backward: list[tuple] = []
    overlap_rows: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class Mixture:
    """Prepared samples (ModelEvaluator.prepare) with their labels, as
    mixtures over a few states: what a run trains on and evaluates.

    A sample whose circuit is a prefix and then one rotation
    exp(-i a/2 G) is cos(a/2) C - i sin(a/2) G C, with C the prefix's
    state: rows[0] and rows[1] index C and G C in ``states``, and
    ``cos`` and ``sin`` hold cos(a/2) and sin(a/2). Any other sample is
    a state of its own with coefficients (1, 0). For each pair (C, G C)
    ``states`` also holds the polarisation state phi = (C + D)/sqrt(2),
    D = -i G C, indexed by rows[2], so every sample's <Z> follows from
    those of the states: with c = cos(a/2) and s = sin(a/2) it is
    (c^2 - cs) z_C + (s^2 - cs) z_D + 2cs z_phi, which is z_C for a
    state of its own. ``mixture[a:b]`` is the samples a to b over the
    same ``states``, with views of the other arrays.
    """

    states: np.ndarray  # (n_states, 2^n) complex, read-only
    rows: np.ndarray    # (3, n_samples): the rows of C, G C and phi
    cos: np.ndarray     # (n_samples,)
    sin: np.ndarray
    samples: tuple[Sample, ...] = field(repr=False)
    labels: np.ndarray = field(repr=False)  # (n_samples,) float

    def __getitem__(self, part: slice) -> "Mixture":
        return Mixture(self.states, self.rows[:, part], self.cos[part], self.sin[part],
                       self.samples[part], self.labels[part])

    def materialise(self, idx) -> np.ndarray:
        """(len(idx), 2^n) prepared states of the samples ``idx`` (an index
        array or slice), with the arithmetic of the rotation's batched
        application: cos * C - 1j * sin * (G C)."""
        return (self.cos[idx, None] * self.states[self.rows[0, idx]]
                - 1j * self.sin[idx, None] * self.states[self.rows[1, idx]])

    def readout(self, z_states: np.ndarray) -> np.ndarray:
        """Each sample's <Z>, given the <Z> of every row of ``states``."""
        c, s = self.cos, self.sin
        z_c, z_d, z_phi = z_states[self.rows]
        return c * (c - s) * z_c + s * (s - c) * z_d + 2 * c * s * z_phi


class ModelEvaluator:
    """Batched forward and gradient evaluation of one model.

    Compiles the model circuit once against a fixed parameter-name order
    into a block program (see the module docstring). The circuit needs a
    gate and the order a name, and a hand-built zero-stage model is no
    exception: the evaluator refuses a model without either, so a run
    fails here, before any round, whatever its transport. Prepared samples
    (prepare) are parameter-independent and can be kept by the caller
    across optimization steps. The evaluator owns the work buffers of
    its sweeps, so it serves one thread at a time; the arrays it returns
    are never reused.
    """

    def __init__(self, model: Model, param_names: Sequence[str]):
        self.model = model
        n = self.n_qubits = model.n_qubits
        if n < 2:
            raise ConfigError(f"a model needs at least 2 qubits, got {n}")
        self.readout = model.readout_qubit
        self.param_names = tuple(param_names)
        if not model.circuit.ops or not self.param_names:
            missing = "gate" if not model.circuit.ops else "parameter"
            raise ConfigError(f"a model needs at least one {missing}")
        name_to_idx = {name: i for i, name in enumerate(self.param_names)}
        self.n_params = len(name_to_idx)
        if len(name_to_idx) != len(self.param_names):
            raise ConfigError("parameter names must be unique")
        blocks = _fuse_blocks(model.circuit.ops, n)
        self.block_qubits = [qubits for qubits, _run in blocks]
        # Blocks whose slots agree gate for gate (kind, local targets,
        # symbol, sign, angle) share one kind and its matrices.
        kinds: dict[tuple, int] = {}
        kind_runs: list[tuple[tuple[int, int], list[GateOp]]] = []
        self.block_kinds = []
        for qubits, run in blocks:
            key = tuple((op.kind, tuple(map(qubits.index, op.targets)), op.symbol,
                         op.sign, op.angle) for op in run)
            if key not in kinds:
                kinds[key] = len(kind_runs)
                kind_runs.append((qubits, run))
            self.block_kinds.append(kinds[key])
        depth = max(len(run) for _qubits, run in kind_runs)
        shape = (depth, len(kind_runs))
        # Slot (j, kind) holds cos(a/2) * cos_part + sin(a/2) * sin_part
        # with a = sign * values[param]; a gate without a symbol is a fixed
        # cos_part (sign 0), and empty slots are identities.
        cos_part = np.broadcast_to(np.eye(4, dtype=complex), shape + (4, 4)).copy()
        sin_part = np.zeros(shape + (4, 4), dtype=complex)
        self._sign = np.zeros(shape)
        self._param = np.full(shape, -1, dtype=np.int64)
        # A fixed gate's matrix or a symbol's generator, embedded once per
        # kind and local targets; a bound angle's rotation on its own.
        embedded: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}
        for k, (qubits, run) in enumerate(kind_runs):
            for j, op in enumerate(run):
                local = tuple(map(qubits.index, op.targets))
                if op.angle is not None:
                    cos_part[j, k] = _embed(gate_matrix(op), local)
                    continue
                mat = embedded.get((op.kind, local))
                if mat is None:
                    mat = embedded[op.kind, local] = _embed(
                        gate_matrix(op) if op.symbol is None else PAULI_GENERATORS[op.kind],
                        local)
                if op.symbol is None:
                    cos_part[j, k] = mat
                    continue
                if op.symbol not in name_to_idx:
                    raise ConfigError(f"model symbol {op.symbol!r} not in parameters")
                sin_part[j, k] = -1j * mat
                self._param[j, k] = name_to_idx[op.symbol]
                self._sign[j, k] = op.sign
        self._cos_part = _real_form(cos_part)
        self._sin_part = _real_form(sin_part)
        # d(slot)/d(value) = sign * (-i/2) G * slot; dz sums slots per
        # parameter, over the (kind, slot) order of the traces.
        self._dgen = 0.5 * self._sign[..., None, None] * self._sin_part
        param = self._param.T.ravel()
        self._scatter = np.zeros((self.n_params, param.size))
        used = np.flatnonzero(param >= 0)
        self._scatter[param[used], used] = 1.0
        self._kind_sum = np.zeros((len(kind_runs), len(blocks)))
        self._kind_sum[self.block_kinds, np.arange(len(blocks))] = 1.0
        # Slots, prefix products, scratch and derivative matrices, with
        # fixed views of them: each block's matrix, every kind's transposed
        # block matrix, the transposed prefixes and the derivative rows.
        self._algebra = np.empty((4,) + shape + (8, 8))
        _slots, prefix, _scratch, deriv = self._algebra
        self._mats = [prefix[-1, k] for k in self.block_kinds]
        self._kind_mats_t = prefix[-1].transpose(0, 2, 1)[:, None]
        self._prefix_t = prefix.swapaxes(-1, -2)
        self._deriv_rows = deriv.reshape(shape + (64,)).transpose(1, 0, 2)

        # The prepared states are complex (batch, qubits high to low), read
        # as real with re/im last.
        layouts = [(_BATCH,) + tuple(range(n - 1, -1, -1)) + (_REIM,)]
        layouts += [_layout(q, n) for q in self.block_qubits]
        # _into[b] regathers block b-1's output (or the prepared states)
        # for block b; _back[b] takes block b's layout back to b-1's.
        self._into = [_move(a, b) for a, b in zip(layouts, layouts[1:])]
        self._back = [None] + [_move(layouts[b + 1], layouts[b])
                               for b in range(1, len(blocks))]
        last = [label for label in layouts[-1] if label != _BATCH]
        bits = (np.arange(2 << n) >> (n - last.index(self.readout))) & 1
        self._z_signs = 1.0 - 2.0 * bits

        # One plan per batch size and sweep (taped or not), never dropped.
        self._plans: dict[tuple[int, bool], _Plan] = {}

    def _plan(self, batch: int, taped: bool) -> _Plan:
        plan = self._plans.get((batch, taped))
        if plan is None:
            plan = self._plans[batch, taped] = self._build_plan(batch, taped)
        return plan

    def _build_plan(self, batch: int, taped: bool) -> _Plan:
        """The buffers of one batch size's sweep and their views. The
        forward-only sweep reads one spare state and writes the other; the
        taped sweep reads each block's input from its tape (one gathered
        input per block) and writes the first spare, where its adjoint
        sweep starts lam and takes it back through the other, and keeps
        the overlaps (block, sample, 8, 8)."""
        n_blocks = len(self._mats)
        size = batch << (self.n_qubits + 1)
        spare, other = np.empty((2, size))
        labels = (2,) * (self.n_qubits + 1) + (batch,)  # one axis per label

        def step(mat, x, y, move=None, dst=None):
            if move is None:
                return mat, x.reshape(8, -1), y.reshape(8, -1), None, None
            return (mat, x.reshape(8, -1), y.reshape(8, -1),
                    y.reshape(labels).transpose(move[1]), dst.reshape(labels))

        if taped:
            tape = np.empty((n_blocks, size))
            overlaps = np.empty((n_blocks, batch, 8, 8))
            inputs, out = list(tape), spare
        else:
            inputs, out, other = [spare] * n_blocks, other, spare
        forward = [step(self._mats[b], inputs[b], out, self._into[b + 1], inputs[b + 1])
                   for b in range(n_blocks - 1)]
        forward.append(step(self._mats[-1], inputs[-1], out))
        final = out.reshape(-1, batch)
        plan = _Plan(inputs[0].reshape(labels), forward, final, other.reshape(final.shape))
        if not taped:
            return plan
        order = range(n_blocks - 1, -1, -1)
        return plan._replace(
            overlaps=[(out.reshape(8, -1, batch).transpose(2, 0, 1),
                       tape[b].reshape(8, -1, batch).transpose(2, 1, 0),
                       overlaps[b])
                      for b in order],
            backward=[step(self._mats[b].T, out, other, self._back[b], out)
                      for b in order if b],
            overlap_rows=overlaps.reshape(n_blocks, batch * 64))

    def _block_matrices(self, values: np.ndarray):
        """Each kind's real 8x8 block matrix, the last of the depth-major
        prefix products: prefix[j] is slot j times every earlier slot of
        its kind."""
        slots, prefix, scratch, _deriv = self._algebra
        bound = np.append(np.asarray(values, dtype=float), 0.0)[self._param]
        half = 0.5 * self._sign * bound
        np.multiply(np.cos(half)[..., None, None], self._cos_part, out=slots)
        np.multiply(np.sin(half)[..., None, None], self._sin_part, out=scratch)
        slots += scratch
        prefix[0] = slots[0]
        for j in range(1, len(slots)):
            np.matmul(slots[j], prefix[j - 1], out=prefix[j])

    def _slot_derivatives(self) -> np.ndarray:
        """After _block_matrices: for every kind and slot j, the real form
        P_j^T dgen_j P_j, with P_j the prefix product through slot j and
        dgen_j its derivative generator, as (kind, slot, 64) rows. The
        block matrix U is orthogonal, so the slots after j multiply to
        U P_j^T and U with slot j differentiated is U P_j^T dgen_j P_j; a
        row's dot with a flattened U^T G, for a Gram matrix G (see
        readout_z_and_gradient), is Re <lam| dU |psi>."""
        _slots, prefix, scratch, deriv = self._algebra
        np.matmul(self._dgen, prefix, out=scratch)
        np.matmul(self._prefix_t, scratch, out=deriv)
        return self._deriv_rows

    def _forward(self, plan: _Plan, prep_states: np.ndarray) -> np.ndarray:
        """The forward sweep of ``plan`` from the prepared states, after
        _block_matrices; returns each sample's <Z> and leaves the final
        states in plan.final, in the last block's layout."""
        shape, axes = self._into[0]
        src = np.ascontiguousarray(prep_states, dtype=complex).view(float)
        np.copyto(plan.first, src.reshape(shape).transpose(axes))
        for mat, x, y, moved, dst in plan.forward:
            np.matmul(mat, x, out=y)
            if dst is not None:
                np.copyto(dst, moved)
        return self._z_signs @ np.square(plan.final, out=plan.square)

    def prepare(self, samples: Sequence[Sample]) -> Mixture:
        """The samples and their labels as a Mixture (see there) over the
        states of their prefixes. A sample's prefix is its circuit before
        a last rotation with a bound angle, or the whole circuit if it
        ends otherwise. Each distinct prefix state is simulated once per
        call, and each G C with its polarisation state once per prefix,
        rotation kind and targets; nothing is kept between calls.
        """
        samples = tuple(samples)
        n = self.n_qubits
        states: list[np.ndarray] = []
        # Rows of this call's states: a prefix's by its ops, a G C's (its
        # polarisation state follows it) by (prefix row, kind, targets).
        # ``rows`` holds each sample's three rows in turn.
        row_of: dict[tuple, int] = {}
        rows: list[int] = []
        angles: list[float] = []
        prefix = None
        for sample in samples:
            circuit = sample.prep_circuit
            if circuit.n_qubits != n:
                raise ConfigError(
                    f"sample on {circuit.n_qubits} qubits, model expects {n}"
                )
            ops = circuit.ops
            rotation = bool(ops) and ops[-1].kind in PAULI_GENERATORS
            head = ops[:-1] if rotation else ops
            # Samples of one dataset share their prefix's GateOp objects,
            # so identity mostly decides this comparison.
            if head != prefix:
                prefix = head
                c = row_of.setdefault(head, len(states))
                if c == len(states):  # a symbolic gate raises here
                    states.append(apply_circuit(new_zero_state(n), Circuit(n, head)))
            if not rotation:
                rows += (c, c, c)
                angles.append(0.0)
                continue
            op = ops[-1]
            if op.symbol is not None:
                raise UnresolvedParameterError(
                    f"sample circuit has unbound symbol {op.symbol!r}")
            g = row_of.setdefault((c, op.kind, op.targets), len(states))
            if g == len(states):
                psi = states[c]
                flipped = apply_matrix(psi[None], PAULI_GENERATORS[op.kind], op.targets, n)[0]
                states += [flipped, np.sqrt(0.5) * (psi - 1j * flipped)]
            rows += (c, g, g + 1)
            angles.append(op.angle)
        half = 0.5 * np.array(angles)
        basis = np.array(states, dtype=complex).reshape(-1, 1 << n)
        basis.flags.writeable = False
        return Mixture(basis, np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy(),
                       np.cos(half), np.sin(half), samples,
                       np.array([s.label for s in samples], dtype=float))

    def prep_states(self, samples: Sequence[Sample]) -> np.ndarray:
        """(n_samples, 2^n) array of each sample's prepared input state:
        prepare(samples) materialised in full, the per-sample reference."""
        return self.prepare(samples).materialise(slice(None))

    def readout_z(self, prep_states: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Each state's <Z>, in sweeps of at most EVAL_BATCH states."""
        _check_batch(prep_states)
        self._block_matrices(values)
        cuts = range(EVAL_BATCH, len(prep_states), EVAL_BATCH)
        return np.concatenate([self._forward(self._plan(len(chunk), taped=False), chunk)
                               for chunk in np.split(prep_states, cuts)])

    def predictions(self, prep_states: np.ndarray, values: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 + self.readout_z(prep_states, values))

    def loss(self, prep_states: np.ndarray, labels: np.ndarray,
             values: np.ndarray) -> float:
        return mse(labels, self.predictions(prep_states, values))

    def readout_z_and_gradient(self, prep_states: np.ndarray,
                               values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample <Z> and its exact derivative for every parameter.

        Returns (z, dz) with z of shape (batch,) and dz of shape
        (n_params, batch). The forward sweep keeps each block's gathered
        input psi on the tape. The adjoint sweep carries lam, the Z
        observable pulled back through the later blocks: lam starts as
        Z psi, and block U takes it back by the real form of U^dagger,
        the transpose of U's. Per block and sample, lam and psi summed
        over the untouched qubits give the real Gram matrix
        G = sum lam psi^T, summed over the blocks of each kind; slot j of
        the kind adds 2 <D_j, G>, the Frobenius product with the real
        form D_j of the block matrix with slot j differentiated, which is
        2 Re <lam| dU_j |psi>. This equals the shift-rule value
        (E(+pi/2) - E(-pi/2)) / 2 of every occurrence. With
        D_j = U P_j^T dgen_j P_j (see _slot_derivatives), the product is
        <P_j^T dgen_j P_j, U^T G>, so U^T is applied once per kind and
        sample.
        """
        _check_batch(prep_states)
        batch = len(prep_states)
        self._block_matrices(values)
        plan = self._plan(batch, taped=True)
        z = self._forward(plan, prep_states)

        np.multiply(plan.final, self._z_signs[:, None], out=plan.final)
        for (lam, psi, gram), back in zip_longest(plan.overlaps, plan.backward):
            np.matmul(lam, psi, out=gram)
            if back is not None:
                mat, x, y, moved, dst = back
                np.matmul(mat, x, out=y)
                np.copyto(dst, moved)

        n_kinds = len(self._kind_sum)
        gram = (self._kind_sum @ plan.overlap_rows).reshape(n_kinds, batch, 8, 8)
        rotated = np.matmul(self._kind_mats_t, gram).reshape(n_kinds, batch, 64)
        traces = self._slot_derivatives() @ rotated.transpose(0, 2, 1)
        dz = self._scatter @ (2.0 * traces).reshape(-1, batch)
        return z, dz

    def loss_and_gradient(self, prep_states: np.ndarray, labels: np.ndarray,
                          values: np.ndarray) -> tuple[float, np.ndarray]:
        z, dz = self.readout_z_and_gradient(prep_states, values)
        p = 0.5 * (1.0 + z)
        return mse(labels, p), dz @ (p - labels) / (2 * len(labels))
