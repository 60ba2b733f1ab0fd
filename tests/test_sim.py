"""Statevector engine: gate matrices, application, readout, oracle checks."""

import math

import numpy as np
import pytest

import oracles
from qflsim.errors import ConfigError, SimulationError, UnresolvedParameterError
from qflsim.model import ArchitectureSpec
from qflsim.sim import (
    Circuit,
    GateOp,
    GATE_ARITY,
    PARAMETRIZED_GATES,
    apply_circuit,
    cnot,
    cz,
    gate_matrix,
    h,
    new_zero_state,
    rx,
    ry,
    rz,
    xx,
)

INV_SQRT2 = 1 / math.sqrt(2)


def _apply(psi, op):
    """State after one gate, as a one-gate circuit on psi's qubits."""
    return apply_circuit(psi, Circuit(max(1, len(psi).bit_length() - 1), (op,)))


class TestNewZeroState:
    def test_one_qubit(self):
        assert np.array_equal(new_zero_state(1), [1, 0])

    def test_two_qubits(self):
        assert np.array_equal(new_zero_state(2), [1, 0, 0, 0])

    @pytest.mark.parametrize("n", [0, -1, 17])
    def test_out_of_range(self, n):
        with pytest.raises(ConfigError):
            new_zero_state(n)


class TestGateMatrix:
    def test_hadamard(self):
        expected = np.array([[1, 1], [1, -1]]) * INV_SQRT2
        assert np.allclose(gate_matrix(h(0)), expected)

    def test_rx_pi(self):
        expected = np.array([[0, -1j], [-1j, 0]])
        assert np.allclose(gate_matrix(rx(0, math.pi)), expected, atol=1e-15)

    def test_cz_diagonal(self):
        assert np.allclose(gate_matrix(cz(0, 1)), np.diag([1, 1, 1, -1]))

    def test_cnot(self):
        psi = np.array([0, 0, 1, 0], dtype=complex)  # |10>: control (high bit) set
        assert np.allclose(gate_matrix(cnot(0, 1)) @ psi, [0, 0, 0, 1])

    def test_unbound_symbol(self):
        with pytest.raises(UnresolvedParameterError):
            gate_matrix(rx(0, symbol="theta"))

    @pytest.mark.parametrize("kind", sorted(PARAMETRIZED_GATES))
    def test_unitarity_random_angles(self, kind):
        rng = np.random.default_rng(11)
        arity = GATE_ARITY[kind]
        for _ in range(100):
            angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            targets = (0,) if arity == 1 else (0, 1)
            u = gate_matrix(GateOp(kind, targets, angle))
            assert np.max(np.abs(u.conj().T @ u - np.eye(2 ** arity))) < 1e-12

    @pytest.mark.parametrize("kind", sorted(PARAMETRIZED_GATES))
    def test_matches_oracle_definitions(self, kind):
        arity = GATE_ARITY[kind]
        for angle in (0.0, 0.4, -1.3, math.pi):
            got = gate_matrix(GateOp(kind, (0,) if arity == 1 else (0, 1), angle))
            assert np.allclose(got, oracles.small_matrix(kind, angle), atol=1e-15)


class TestGateOpValidation:
    def test_wrong_arity(self):
        with pytest.raises(ConfigError):
            GateOp("H", (0, 1))

    def test_duplicate_targets(self):
        with pytest.raises(ConfigError):
            GateOp("CZ", (1, 1))

    def test_angle_and_symbol_both_set(self):
        with pytest.raises(ConfigError):
            GateOp("RX", (0,), angle=0.1, symbol="a")

    def test_neither_angle_nor_symbol(self):
        with pytest.raises(ConfigError):
            GateOp("RX", (0,))

    def test_fixed_gate_with_angle(self):
        with pytest.raises(ConfigError):
            GateOp("H", (0,), angle=0.3)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            GateOp("QZ", (0,))

    def test_sign_only_with_symbol(self):
        with pytest.raises(ConfigError):
            GateOp("RX", (0,), angle=0.5, sign=-1)

    @pytest.mark.parametrize("kind,targets,sign", [("H", (0,), 5), ("CNOT", (0, 1), -1),
                                                   ("CZ", (1, 0), 0)])
    def test_fixed_gate_with_sign(self, kind, targets, sign):
        # Circuit text has no place for it, so it would not round-trip.
        with pytest.raises(ConfigError, match=f"{kind} takes no sign, got {sign}"):
            GateOp(kind, targets, sign=sign)

    def test_circuit_names_its_only_out_of_range_op(self):
        ops = tuple(h(q % 3) for q in range(40)) + (cz(0, 1), xx(1, 2, 0.5), cz(3, 1))
        with pytest.raises(ConfigError) as info:
            Circuit(3, ops)
        assert str(info.value) == "CZ targets (3, 1) out of range for 3 qubits"

    @pytest.mark.parametrize("targets", [(1.5,), ("2",), (None,), (True,), (False,)])
    def test_non_integer_target_names_the_targets(self, targets):
        # int() would truncate 1.5 to 1 and read "2" as 2.
        with pytest.raises(ConfigError, match=r"H targets must be integer qubit indices, got \("):
            GateOp("H", targets)

    def test_numpy_integer_targets_become_ints(self):
        op = GateOp("CZ", (np.int64(2), np.uint8(0)))
        assert op.targets == (2, 0) and all(type(q) is int for q in op.targets)


class TestCircuitThen:
    def test_equals_the_constructed_circuit(self):
        base = Circuit(3, (h(0), cz(0, 1), xx(1, 2, 0.25)))
        op = rx(2, -1.5)
        extended = base.then(op)
        assert extended == Circuit(3, base.ops + (op,))
        assert type(extended) is Circuit and extended.ops[-1] is op
        assert Circuit(2).then(h(1)) == Circuit(2, (h(1),))

    def test_out_of_range_op_raises_the_constructor_message(self):
        base = Circuit(3, (h(0), h(1)))
        op = cz(3, 1)
        with pytest.raises(ConfigError) as built:
            Circuit(3, base.ops + (op,))
        with pytest.raises(ConfigError) as extended:
            base.then(op)
        assert str(extended.value) == str(built.value) == \
            "CZ targets (3, 1) out of range for 3 qubits"

    def test_receiver_unchanged(self):
        ops = (h(0), cz(0, 1))
        base = Circuit(2, ops)
        base.then(rx(1, 0.5))
        with pytest.raises(ConfigError):
            base.then(h(2))
        assert base == Circuit(2, ops) and base.ops is ops


class TestApplyGate:
    def test_h_on_zero(self):
        psi = _apply(new_zero_state(1), h(0))
        assert np.allclose(psi, [INV_SQRT2, INV_SQRT2])

    def test_cz_flips_sign_of_11(self):
        psi = np.zeros(4, dtype=complex)
        psi[3] = 1.0
        out = _apply(psi, cz(0, 1))
        assert np.allclose(out, [0, 0, 0, -1])

    def test_rx_half_pi(self):
        psi = _apply(new_zero_state(1), rx(0, math.pi / 2))
        assert np.allclose(psi, [INV_SQRT2, -1j * INV_SQRT2])

    def test_targets_out_of_range(self):
        with pytest.raises(ConfigError):
            _apply(new_zero_state(1), h(1))

    def test_bad_state_length(self):
        with pytest.raises(SimulationError):
            _apply(np.ones(3, dtype=complex), h(0))

    def test_input_state_unchanged(self):
        psi = new_zero_state(1)
        _apply(psi, h(0))
        assert np.array_equal(psi, [1, 0])


class TestApplyCircuit:
    def test_empty_circuit_is_identity(self):
        rng = np.random.default_rng(3)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        out = apply_circuit(psi, Circuit(3))
        assert np.allclose(out, psi)

    def test_double_hadamard(self):
        out = apply_circuit(new_zero_state(1), Circuit(1, (h(0), h(0))))
        assert np.allclose(out, [1, 0], atol=1e-15)

    def test_missing_binding_names_symbol(self):
        circuit = Circuit(1, (rx(0, symbol="alpha"),))
        with pytest.raises(UnresolvedParameterError, match="alpha"):
            apply_circuit(new_zero_state(1), circuit)

    def test_three_qubit_cluster_vs_dense_oracle(self):
        ops = (h(0), h(1), h(2), cz(0, 1), cz(1, 2), cz(2, 0))
        circuit = Circuit(3, ops)
        got = apply_circuit(new_zero_state(3), circuit)
        want = oracles.run_circuit(circuit)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_state_circuit_size_mismatch(self):
        with pytest.raises(SimulationError):
            apply_circuit(new_zero_state(2), Circuit(3))


class TestOracleEquivalence:
    def test_random_circuits_match_dense_products(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            n = int(rng.integers(2, 4))
            circuit = oracles.random_circuit(rng, n, int(rng.integers(1, 7)))
            got = apply_circuit(new_zero_state(n), circuit)
            want = oracles.run_circuit(circuit)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_norm_conservation_long_random_circuits(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            circuit = oracles.random_circuit(rng, n, 50)
            out = apply_circuit(new_zero_state(n), circuit)
            assert abs(np.sum(np.abs(out) ** 2) - 1.0) <= 1e-10

    def test_cz_target_order_irrelevant(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        assert np.allclose(_apply(psi, cz(0, 2)), _apply(psi, cz(2, 0)))


class TestExpectationZ:
    def test_zero_state(self):
        assert oracles.z_expectation(new_zero_state(1), 0) == pytest.approx(1.0)

    def test_plus_state(self):
        psi = _apply(new_zero_state(1), h(0))
        assert oracles.z_expectation(psi, 0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.9])
    def test_rx_gives_cosine(self, theta):
        psi = _apply(new_zero_state(1), rx(0, theta))
        assert oracles.z_expectation(psi, 0) == pytest.approx(math.cos(theta), abs=1e-12)

    def test_bounds_and_probability_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            dim = 1 << n
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            q = int(rng.integers(n))
            z = oracles.z_expectation(psi, q)
            assert -1.0 <= z <= 1.0 + 1e-12
            p_one = sum(abs(a) ** 2 for i, a in enumerate(psi) if (i >> q) & 1)
            assert z == pytest.approx(1.0 - 2.0 * p_one, abs=1e-12)

    def test_qubit_out_of_range(self):
        # The Z readout is chosen through the model's architecture.
        with pytest.raises(ConfigError):
            ArchitectureSpec(2, 0, 2)
