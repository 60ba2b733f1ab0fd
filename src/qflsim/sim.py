"""Dense statevector simulation of small qubit circuits.

Conventions, fixed for serialization and tests:
  * qubit 0 is the least significant bit of the basis-state index, so the
    basis state |b_{n-1} ... b_1 b_0> lives at index sum_q b_q * 2**q;
  * every rotation gate is exp(-i * angle/2 * G) with G the generating
    Pauli (X, Y, Z) or two-qubit Pauli product (XX, YY, ZZ);
  * for a two-qubit gate on targets (a, b), the first target selects the
    high bit of the 4x4 matrix index (CNOT control comes first).

States are plain complex128 numpy arrays of length 2**n, treated as
immutable: every operation returns a fresh array.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError, UnresolvedParameterError

StateVector = np.ndarray

MAX_QUBITS = 16

GATE_ARITY = {
    "H": 1, "CZ": 2, "CNOT": 2,
    "RX": 1, "RY": 1, "RZ": 1,
    "XX": 2, "YY": 2, "ZZ": 2,
}

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Generating Pauli for each rotation kind.
PAULI_GENERATORS = {
    "RX": _X,
    "RY": _Y,
    "RZ": _Z,
    "XX": np.kron(_X, _X),
    "YY": np.kron(_Y, _Y),
    "ZZ": np.kron(_Z, _Z),
}
PARAMETRIZED_GATES = frozenset(PAULI_GENERATORS)

_FIXED_MATRICES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "CZ": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}


@dataclass(frozen=True, slots=True)
class GateOp:
    """One gate application: a kind, target qubits, and (if parametrized)
    either a concrete angle in radians or a named symbol reference.

    ``sign`` applies only to symbol references; the effective angle is
    ``sign * bound_value``, which lets a circuit contain the exact inverse
    of a symbolic rotation. A concrete angle must be finite.

    ``with_angle`` copies a bound rotation with a new angle, checking only
    that angle, for callers that build many rotations of one kind and
    target set.
    """

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None
    symbol: str | None = None
    sign: int = 1

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ConfigError(f"unknown gate kind {self.kind!r}")
        try:
            if any(isinstance(q, bool) for q in self.targets):  # index(True) is 1
                raise TypeError
            targets = tuple(map(operator.index, self.targets))
        except TypeError:
            raise ConfigError(
                f"{self.kind} targets must be integer qubit indices, "
                f"got {self.targets!r}"
            ) from None
        object.__setattr__(self, "targets", targets)
        arity = GATE_ARITY[self.kind]
        if len(targets) != arity:
            raise ConfigError(
                f"{self.kind} takes {arity} target(s), got {len(targets)}"
            )
        if any(q < 0 for q in targets):
            raise ConfigError(f"negative qubit index in {targets}")
        if arity == 2 and targets[0] == targets[1]:
            raise ConfigError(f"{self.kind} targets must be distinct, got {targets}")
        if self.kind in PARAMETRIZED_GATES:
            if (self.angle is None) == (self.symbol is None):
                raise ConfigError(
                    f"{self.kind} needs exactly one of angle or symbol"
                )
            if self.angle is not None:
                object.__setattr__(self, "angle", _finite_angle(self.kind, self.angle))
                if self.sign != 1:
                    raise ConfigError("sign applies only to symbol references")
            if self.sign not in (1, -1):
                raise ConfigError(f"sign must be +1 or -1, got {self.sign}")
            if self.symbol is not None and (  # one token of circuit text
                    not isinstance(self.symbol, str)
                    or self.symbol.split() != [self.symbol]):
                raise ConfigError(
                    f"symbol must be a nonempty name without whitespace, "
                    f"got {self.symbol!r}")
        else:
            if self.angle is not None or self.symbol is not None:
                raise ConfigError(f"{self.kind} takes no angle or symbol")
            if self.sign != 1:
                raise ConfigError(f"{self.kind} takes no sign, got {self.sign}")

    def with_angle(self, angle: float) -> "GateOp":
        """``GateOp(kind, targets, angle)`` for this bound rotation,
        checking only ``angle``: this op's kind and targets passed
        ``__post_init__``."""
        if self.angle is None:
            raise ConfigError(
                f"{self.kind} {self.targets} has no bound angle to replace")
        out = object.__new__(GateOp)
        set_field = object.__setattr__
        set_field(out, "kind", self.kind)
        set_field(out, "targets", self.targets)
        set_field(out, "angle", _finite_angle(self.kind, angle))
        set_field(out, "symbol", self.symbol)
        set_field(out, "sign", self.sign)
        return out


def _finite_angle(kind: str, angle) -> float:
    angle = float(angle)
    if not math.isfinite(angle):
        raise ConfigError(f"{kind} angle must be finite, got {angle!r}")
    return angle


@dataclass(frozen=True, slots=True)
class Circuit:
    """An ordered gate sequence on ``n_qubits`` indexed qubits."""

    n_qubits: int
    ops: tuple[GateOp, ...] = ()

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}"
            )
        ops = tuple(self.ops)
        object.__setattr__(self, "ops", ops)
        n = self.n_qubits
        for op in ops:  # GateOp has checked that every target is >= 0
            if max(op.targets) >= n:
                raise _out_of_range(op, n)

    def then(self, *ops: GateOp) -> "Circuit":
        """``Circuit(n_qubits, self.ops + ops)``, range-checking only
        ``ops``: this circuit's own ops passed the constructor's check."""
        for op in ops:
            if max(op.targets) >= self.n_qubits:
                raise _out_of_range(op, self.n_qubits)
        out = object.__new__(Circuit)
        object.__setattr__(out, "n_qubits", self.n_qubits)
        object.__setattr__(out, "ops", self.ops + ops)
        return out

    def symbols(self) -> tuple[str, ...]:
        """Distinct symbol names in first-appearance order."""
        seen: dict[str, None] = {}
        for op in self.ops:
            if op.symbol is not None and op.symbol not in seen:
                seen[op.symbol] = None
        return tuple(seen)


def _out_of_range(op: GateOp, n_qubits: int) -> ConfigError:
    return ConfigError(
        f"{op.kind} targets {op.targets} out of range for {n_qubits} qubits"
    )


def h(q: int) -> GateOp:
    return GateOp("H", (q,))


def cz(a: int, b: int) -> GateOp:
    return GateOp("CZ", (a, b))


def cnot(control: int, target: int) -> GateOp:
    return GateOp("CNOT", (control, target))


def rx(q, angle=None, symbol=None, sign=1) -> GateOp:
    return GateOp("RX", (q,), angle, symbol, sign)


def ry(q, angle=None, symbol=None, sign=1) -> GateOp:
    return GateOp("RY", (q,), angle, symbol, sign)


def rz(q, angle=None, symbol=None, sign=1) -> GateOp:
    return GateOp("RZ", (q,), angle, symbol, sign)


def xx(a, b, angle=None, symbol=None, sign=1) -> GateOp:
    return GateOp("XX", (a, b), angle, symbol, sign)


def yy(a, b, angle=None, symbol=None, sign=1) -> GateOp:
    return GateOp("YY", (a, b), angle, symbol, sign)


def zz(a, b, angle=None, symbol=None, sign=1) -> GateOp:
    return GateOp("ZZ", (a, b), angle, symbol, sign)


def rotation_matrix(kind: str, angle: float) -> np.ndarray:
    """exp(-i*angle/2 * G) for the generating Pauli of ``kind``."""
    gen = PAULI_GENERATORS[kind]
    half = 0.5 * angle
    return math.cos(half) * np.eye(gen.shape[0], dtype=complex) - 1j * math.sin(half) * gen


def gate_matrix(op: GateOp) -> np.ndarray:
    """The 2x2 or 4x4 unitary of a gate with a bound angle."""
    if op.kind in PARAMETRIZED_GATES:
        if op.angle is None:
            raise UnresolvedParameterError(
                f"gate {op.kind} has unbound symbol {op.symbol!r}"
            )
        return rotation_matrix(op.kind, op.angle)
    return _FIXED_MATRICES[op.kind].copy()


def new_zero_state(n_qubits: int) -> StateVector:
    """|0...0> on ``n_qubits`` qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigError(
            f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}"
        )
    psi = np.zeros(1 << n_qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def apply_matrix(states: np.ndarray, mat: np.ndarray, targets: tuple[int, ...],
                 n_qubits: int) -> np.ndarray:
    """Apply a 2x2 or 4x4 unitary on ``targets`` of a (batch, 2^n) state array
    (unchecked: every caller passes a gate's own matrix and targets)
    as one (2^k, 2^k) @ (2^k, rest) product: the state is viewed as
    (batch, 2, ..., 2), one axis per qubit with qubit q at axis n - q, and
    the targets' axes are moved to the front in target order, so the first
    target is the high bit of the matrix index."""
    k = len(targets)
    axes = [n_qubits - q for q in targets]
    order = axes + [a for a in range(n_qubits + 1) if a not in axes]
    local = states.reshape((-1,) + (2,) * n_qubits).transpose(order)
    out = (mat @ local.reshape(1 << k, -1)).reshape(local.shape)
    # The inverse of order; np.argsort's first call adds about 0.4 MiB
    # to the process's resident memory.
    back = sorted(range(n_qubits + 1), key=order.__getitem__)
    return out.transpose(back).reshape(states.shape)


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """State after all gates of ``circuit``, applied in order; a symbolic
    gate raises UnresolvedParameterError (see gate_matrix)."""
    n = circuit.n_qubits
    if state.shape[-1] != 1 << n:
        raise SimulationError(
            f"state length {state.shape[-1]} does not match the circuit's {n} qubits"
        )
    psi = np.array(state[None, :], dtype=complex)
    for op in circuit.ops:
        psi = apply_matrix(psi, gate_matrix(op), op.targets, n)
    return psi[0]
