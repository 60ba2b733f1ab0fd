"""Output checks, run after the timed part of every training run.

None of them compares against a stored copy of earlier output. The model
predictions are recomputed by a dense 2^n x 2^n matrix simulation whose
gate matrices and embedding are defined here, apart from ``qflsim.sim``.
Each check returns ``(name, ok, detail)``.
"""

import math

import numpy as np

MSE_TOL = 1e-9
FEDAVG_TOL = 1e-13
FD_TOL = 1e-7
FD_STEP = 1e-5


# --- dense reference simulation -------------------------------------------

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _small_matrix(kind: str, angle) -> np.ndarray:
    if kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if kind == "CZ":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if kind == "CNOT":
        return np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1],
                         [0, 0, 1, 0]], dtype=complex)
    gen = _PAULI[kind[1]] if kind[0] == "R" else np.kron(_PAULI[kind[0]],
                                                         _PAULI[kind[1]])
    # exp(-i a/2 G) = cos(a/2) I - i sin(a/2) G, since G^2 = I.
    return (math.cos(angle / 2) * np.eye(len(gen))
            - 1j * math.sin(angle / 2) * gen)


class DenseSim:
    """Full-matrix simulation on n qubits; qubit 0 is the lowest index bit
    and the first target is the high bit of a gate's local index."""

    def __init__(self, n_qubits: int):
        self.n = n_qubits
        self.idx = np.arange(1 << n_qubits)

    def embed(self, small: np.ndarray, targets) -> np.ndarray:
        mask = 0
        local = np.zeros_like(self.idx)
        for q in targets:
            mask |= 1 << q
            local = (local << 1) | ((self.idx >> q) & 1)
        same_rest = ((self.idx[:, None] ^ self.idx[None, :]) & ~mask) == 0
        return np.where(same_rest, small[local[:, None], local[None, :]], 0)

    def unitary(self, ops, values_by_symbol) -> np.ndarray:
        total = np.eye(1 << self.n, dtype=complex)
        for op in ops:
            angle = (op.sign * values_by_symbol[op.symbol]
                     if op.symbol is not None else op.angle)
            total = self.embed(_small_matrix(op.kind, angle), op.targets) @ total
        return total

    def prepared_states(self, circuits) -> np.ndarray:
        """(2^n, n_samples) matrix of |0..0> run through each circuit.

        States after a prefix of fixed (angle-free) gates are kept, so a
        prefix shared by every sample is simulated once."""
        zero = np.zeros(1 << self.n, dtype=complex)
        zero[0] = 1
        fixed = {(): zero}
        out = np.empty((1 << self.n, len(circuits)), dtype=complex)
        for j, circuit in enumerate(circuits):
            ops = circuit.ops
            k = len(ops)
            while ops[:k] not in fixed:
                k -= 1
            psi = fixed[ops[:k]]
            for i in range(k, len(ops)):
                op = ops[i]
                psi = self.embed(_small_matrix(op.kind, op.angle), op.targets) @ psi
                if op.angle is None and k == i:
                    fixed[ops[:i + 1]] = psi
                    k += 1
            out[:, j] = psi
        return out

    def predictions(self, unitary, states, readout: int) -> np.ndarray:
        z_sign = 1.0 - 2.0 * ((self.idx >> readout) & 1)
        return 0.5 * (1.0 + z_sign @ (np.abs(unitary @ states) ** 2))


# --- checks -----------------------------------------------------------------

def dataset_round_trip(written, read_back):
    same = written == read_back
    return ("dataset_round_trip", same,
            "read_dataset gives the written dataset" if same
            else "read_dataset differs from the written dataset")


def labels_follow_rule(dataset):
    bad = 0
    total = 0
    for client in dataset.clients:
        for sample in client.samples:
            angles = [op.angle for op in sample.prep_circuit.ops
                      if op.kind == "RX" and op.angle is not None]
            total += 1
            if len(angles) != 1 or sample.label != int(abs(angles[0]) > math.pi / 2):
                bad += 1
    return ("labels_follow_rule", bad == 0, f"{bad} of {total} labels break |angle| > pi/2")


def fedavg_matches_fsum(rounds):
    """``rounds``: (server values, client weights, client vectors) per round."""
    worst = 0.0
    for server, weights, vectors in rounds:
        for j, value in enumerate(server):
            expected = math.fsum(float(w) * float(v[j])
                                 for w, v in zip(weights, vectors))
            worst = max(worst, abs(value - expected))
    ok = bool(rounds) and worst <= FEDAVG_TOL
    return ("fedavg_matches_fsum", ok,
            f"{len(rounds)} rounds, max deviation {worst:.3g}")


def mse_decreases(records):
    first, last = records[0].test_mse, records[-1].test_mse
    return ("test_mse_decreases", last < first,
            f"round 0 {first:.6f} -> round {records[-1].round} {last:.6f}")


def gradient_matches_fd(evaluator, prep, labels, values, tag):
    """Adjoint gradient against central finite differences of the loss."""
    _loss, grad = evaluator.loss_and_gradient(prep, labels, values)
    fd = np.empty_like(grad)
    for i in range(len(values)):
        up = values.copy()
        up[i] += FD_STEP
        down = values.copy()
        down[i] -= FD_STEP
        fd[i] = (evaluator.loss(prep, labels, up)
                 - evaluator.loss(prep, labels, down)) / (2 * FD_STEP)
    worst = float(np.max(np.abs(grad - fd)))
    return (f"gradient_matches_fd_{tag}", worst <= FD_TOL,
            f"max |adjoint - fd| {worst:.3g} over {len(values)} parameters")


def predictions_match_oracle(dense, unitary, evaluator, clients, values,
                             accuracy, mse, tag):
    """The record's accuracy and MSE, and every predicted label, against
    the dense simulation."""
    samples = [s for c in clients for s in c.samples]
    labels = np.array([s.label for s in samples], dtype=float)
    states = dense.prepared_states([s.prep_circuit for s in samples])
    oracle = dense.predictions(unitary, states, evaluator.readout)
    program = evaluator.predictions(evaluator.prep_states(samples), values)
    label_mismatch = int(np.sum((oracle > 0.5) != (program > 0.5)))
    oracle_mse = float(np.sum((labels - oracle) ** 2) / (2 * len(samples)))
    oracle_acc = float(np.mean((oracle > 0.5) == (labels == 1)))
    ok = (label_mismatch == 0 and abs(oracle_mse - mse) <= MSE_TOL
          and oracle_acc == accuracy)
    return (f"oracle_{tag}", ok,
            f"{len(samples)} samples, {label_mismatch} label mismatches, "
            f"mse {mse:.12f} vs {oracle_mse:.12f}, accuracy {accuracy} vs {oracle_acc}")


def records_equal(got, want):
    if len(got) != len(want):
        return ("socket_records_equal_in_process", False,
                f"{len(got)} records vs {len(want)}")
    for a, b in zip(got, want):
        for field in a.__dataclass_fields__:
            if getattr(a, field) != getattr(b, field):
                return ("socket_records_equal_in_process", False,
                        f"round {a.round} field {field}: "
                        f"{getattr(a, field)!r} != {getattr(b, field)!r}")
    return ("socket_records_equal_in_process", True, f"{len(got)} records equal")


def workers_exited_cleanly(codes):
    return ("workers_exit_0", all(c == 0 for c in codes), f"exit codes {codes}")
