"""Independent brute-force reference implementations used only by tests.

Everything here builds full 2^n x 2^n matrices elementwise from its own
gate definitions, so a bug in the package's tensor-contraction engine or
matrix tables cannot hide behind a shared code path.
"""

import cmath
import math

import numpy as np


def _rot_1q(axis: str, angle: float) -> np.ndarray:
    c = math.cos(angle / 2)
    s = math.sin(angle / 2)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "y":
        return np.array([[c, -s], [s, c]])
    return np.array([[cmath.exp(-0.5j * angle), 0], [0, cmath.exp(0.5j * angle)]])


def _two_pauli(axis: str) -> np.ndarray:
    one = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
           "y": np.array([[0, -1j], [1j, 0]]),
           "z": np.array([[1, 0], [0, -1]], dtype=complex)}[axis]
    out = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    out[2 * a + b, 2 * c + d] = one[a, c] * one[b, d]
    return out


def _rot_2q(axis: str, angle: float) -> np.ndarray:
    pp = _two_pauli(axis)
    return math.cos(angle / 2) * np.eye(4) - 1j * math.sin(angle / 2) * pp


def small_matrix(kind: str, angle=None) -> np.ndarray:
    if kind == "H":
        return np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    if kind == "CZ":
        return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    if kind == "CNOT":
        return np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                        dtype=complex)
    if kind in ("RX", "RY", "RZ"):
        return _rot_1q(kind[-1].lower(), angle)
    if kind in ("XX", "YY", "ZZ"):
        return _rot_2q(kind[0].lower(), angle)
    raise ValueError(f"oracle has no gate {kind!r}")


def embed(small: np.ndarray, targets, n_qubits: int) -> np.ndarray:
    """Full 2^n matrix of a small gate, built elementwise.

    Qubit 0 is the least significant bit of the basis index; the first
    target is the high bit of the small matrix's local index.
    """
    dim = 1 << n_qubits
    k = len(targets)
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        loc = 0
        for q in targets:
            loc = (loc << 1) | ((col >> q) & 1)
        for loc_out in range(1 << k):
            row = col
            for pos, q in enumerate(targets):
                bit = (loc_out >> (k - 1 - pos)) & 1
                row = (row & ~(1 << q)) | (bit << q)
            amp = small[loc_out, loc]
            if amp != 0:
                full[row, col] += amp
    return full


def _resolved_angle(op, bindings) -> float | None:
    if op.symbol is not None:
        return op.sign * float(bindings[op.symbol])
    return op.angle


def circuit_unitary(circuit, bindings=None) -> np.ndarray:
    """Product of the embedded gate matrices, later gates on the left."""
    dim = 1 << circuit.n_qubits
    total = np.eye(dim, dtype=complex)
    for op in circuit.ops:
        small = small_matrix(op.kind, _resolved_angle(op, bindings))
        total = embed(small, op.targets, circuit.n_qubits) @ total
    return total


def run_circuit(circuit, bindings=None) -> np.ndarray:
    """Final state of the circuit applied to |0...0>."""
    dim = 1 << circuit.n_qubits
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    return circuit_unitary(circuit, bindings) @ psi


def z_expectation(state: np.ndarray, qubit: int):
    """<Z> on ``qubit``; a (2^n, k) array of k states gives k values."""
    total = 0.0
    for idx, amp in enumerate(state):
        sign = -1.0 if (idx >> qubit) & 1 else 1.0
        total += sign * (abs(amp) ** 2)
    return total


def predict_oracle(prep_circuit, model_circuit, bindings, readout_qubit) -> float:
    """Dense-matrix prediction p = (1 + <Z>)/2 through both circuits."""
    psi = run_circuit(prep_circuit)
    psi = circuit_unitary(model_circuit, bindings) @ psi
    return 0.5 * (1.0 + z_expectation(psi, readout_qubit))


def shift_rule_gradient(prep_circuit, model_ops, values_by_symbol, names,
                        readout_qubit, n_qubits):
    """Literal per-occurrence shift-rule d<Z>/d(theta) via re-simulation
    (see shift_rule_gradients)."""
    return shift_rule_gradients([prep_circuit], model_ops, values_by_symbol,
                                names, readout_qubit, n_qubits)[:, 0]


def shift_rule_gradients(prep_circuits, model_ops, values_by_symbol, names,
                         readout_qubit, n_qubits):
    """Literal per-occurrence shift-rule d<Z>/d(theta) of each of a batch
    of preparations, one column per circuit, via re-simulation.

    For every parameter and every gate occurrence referencing it, the
    circuit is re-run twice from that occurrence on, with that one
    occurrence's angle moved by +-pi/2; the halved difference is summed
    over occurrences. Every gate is embedded once and the unshifted state
    before each gate is shared between runs; the batch's states are the
    columns of one matrix, so every gate acts on all of them at once.
    """
    bound = []
    for op in model_ops:
        angle = _resolved_angle(op, values_by_symbol)
        bound.append((op.kind, op.targets, angle, op.symbol, op.sign))
    full = [embed(small_matrix(kind, angle), targets, n_qubits)
            for kind, targets, angle, _symbol, _sign in bound]
    before = [np.stack([run_circuit(c) for c in prep_circuits], axis=1)]
    for gate in full:
        before.append(gate @ before[-1])

    def z_shifted(t, shift):
        kind, targets, angle = bound[t][:3]
        psi = embed(small_matrix(kind, angle + shift), targets, n_qubits) @ before[t]
        for gate in full[t + 1:]:
            psi = gate @ psi
        return z_expectation(psi, readout_qubit)

    grad = np.zeros((len(names), len(prep_circuits)))
    index = {name: i for i, name in enumerate(names)}
    for t, (_kind, _targets, _angle, symbol, sign) in enumerate(bound):
        if symbol is None:
            continue
        plus = z_shifted(t, math.pi / 2)
        minus = z_shifted(t, -math.pi / 2)
        grad[index[symbol]] += sign * (plus - minus) / 2
    return grad


def finite_difference_gradient(loss_fn, values: np.ndarray,
                               step: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar loss over a value vector."""
    grad = np.zeros_like(values)
    for i in range(len(values)):
        up = values.copy()
        up[i] += step
        down = values.copy()
        down[i] -= step
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2 * step)
    return grad


def random_circuit(rng: np.random.Generator, n_qubits: int, n_gates: int):
    """Seeded random circuit over the full gate set with bound angles."""
    import qflsim.sim as sim

    kinds = ("H", "CZ", "CNOT", "RX", "RY", "RZ", "XX", "YY", "ZZ")
    if n_qubits < 2:
        kinds = ("H", "RX", "RY", "RZ")
    ops = []
    for _ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        if sim.GATE_ARITY[kind] == 1:
            targets = (int(rng.integers(n_qubits)),)
        else:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            targets = (int(a), int(b))
        angle = float(rng.uniform(-math.pi, math.pi)) \
            if kind in sim.PARAMETRIZED_GATES else None
        ops.append(sim.GateOp(kind, targets, angle))
    return sim.Circuit(n_qubits, tuple(ops))
