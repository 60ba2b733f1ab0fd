"""Architecture construction, forward pass, loss and gradients."""

import math

import numpy as np
import pytest

import oracles
import qflsim.model as model_module
from qflsim.datagen import (
    AngleDistribution,
    ClientDataset,
    GenConfig,
    cluster_state_circuit,
    generate_client_dataset,
    generate_federated_dataset,
)
from qflsim.errors import ConfigError, UnresolvedParameterError
from qflsim.federated import evaluate, prepare_clients
from qflsim.model import (
    EVAL_BATCH,
    INIT_ANGLE_SCALE,
    ArchitectureSpec,
    Model,
    ModelEvaluator,
    ParamVector,
    Sample,
    build_architecture,
    build_model,
    build_model_circuit,
    conv_unit,
    default_architecture,
    fc_unit,
    init_params,
    parameter_names,
    pool_unit,
    stage_qubits,
)
from qflsim.sim import (
    PARAMETRIZED_GATES,
    Circuit,
    GateOp,
    apply_circuit,
    cnot,
    h,
    rx,
    ry,
    zz,
)
from qflsim.store import serialize_circuit

# Dense-oracle values for the seed-0 client-0 batch under seed-0 parameters,
# computed with oracles.predict_oracle before wiring the assertions.
GOLDEN_P0 = 0.4980682004234587
GOLDEN_MSE4 = 0.12855779334255188


def _sample_batch(n=4, seed=0):
    return generate_client_dataset(GenConfig(n_clients=1, seed=seed), 0).samples[:n]


def _evaluate(model, params, batch):
    """A fresh evaluator for ``params`` and the batch's prepared states."""
    ev = ModelEvaluator(model, params.names)
    return ev, ev.prep_states(batch), np.array([s.label for s in batch], dtype=float)


def predict(sample_prep, model, params):
    ev, prep, _labels = _evaluate(model, params, [Sample(sample_prep, 0)])
    return float(ev.predictions(prep, params.values)[0])


def mse_loss(params, batch, model):
    ev, prep, labels = _evaluate(model, params, batch)
    return ev.loss(prep, labels, params.values)


def gradient(params, batch, model):
    ev, prep, labels = _evaluate(model, params, batch)
    return ev.loss_and_gradient(prep, labels, params.values)[1]


def readout_gradient(params, sample, model):
    ev, prep, _labels = _evaluate(model, params, [sample])
    return ev.readout_z_and_gradient(prep, params.values)[1][:, 0]


def _rand_state(rng, n):
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


# (qubits, gates, seed) of the random symbolic circuits checked against
# the oracles, on 2 to 4 qubits.
_RANDOM_CASES = ((2, 12, 0), (2, 20, 1), (3, 30, 2), (3, 30, 3), (4, 40, 4))

# Blocks of each (qubits, stages) model without an fc unit, counted
# before one-qubit runs were widened. An fc unit on the last qubit joins
# the last pool unit's block; on any other readout it is a block of its
# own (so 8 qubits with fc on readout 1 at 1 stage have 13 blocks, and on
# readout 3 at 2 stages 19).
_ARCH_BLOCKS = {(2, 1): 1, (4, 1): 6, (4, 2): 7, (8, 1): 12, (8, 2): 18, (8, 3): 19,
                (16, 1): 24, (16, 2): 36, (16, 3): 42, (16, 4): 43}


def _symbolic_circuit(rng, n_qubits, n_gates, n_symbols=3):
    """A seeded random circuit in which most rotations reference one of a
    few shared symbols, with either sign."""
    names = [f"s{i}" for i in range(n_symbols)]
    ops = []
    for op in oracles.random_circuit(rng, n_qubits, n_gates).ops:
        if op.kind in PARAMETRIZED_GATES and rng.random() < 0.75:
            op = GateOp(op.kind, op.targets, symbol=names[rng.integers(n_symbols)],
                        sign=int(rng.choice([1, -1])))
        ops.append(op)
    return Circuit(n_qubits, tuple(ops))


class TestArchitecture:
    def test_default_eight_qubits(self):
        arch = default_architecture(8)
        assert len(parameter_names(arch)) == 63
        assert arch.n_stages == 3
        assert stage_qubits(arch)[1:] == [(1, 3, 5, 7), (3, 7), (7,)]
        assert arch.readout_qubit == 7

    def test_two_qubits(self):
        arch = default_architecture(2)
        assert len(parameter_names(arch)) == 21
        assert arch.readout_qubit == 1

    @pytest.mark.parametrize("n", [1, 6, 12, 32])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ConfigError):
            default_architecture(n)

    def test_fully_connected_adds_three(self):
        arch = build_architecture(8, include_fc=True)
        assert len(parameter_names(arch)) == 66
        assert arch.include_fc
        assert parameter_names(arch)[-3:] == ("f_0", "f_1", "f_2")

    def test_partial_stages(self):
        arch = build_architecture(8, n_stages=2, readout_qubit=3)
        assert len(parameter_names(arch)) == 42
        assert arch.readout_qubit == 3

    def test_readout_must_survive_pooling(self):
        with pytest.raises(ConfigError):
            build_architecture(8, readout_qubit=0)

    def test_spec_rejects_impossible_stacks(self):
        # Two stages cannot halve 6 qubits evenly (the second would pool 3).
        with pytest.raises(ConfigError, match="halve"):
            ArchitectureSpec(6, 2, 5)
        with pytest.raises(ConfigError, match="n_stages"):
            ArchitectureSpec(4, -1, 3)
        with pytest.raises(ConfigError, match="survive"):
            ArchitectureSpec(4, 1, 2)
        assert stage_qubits(ArchitectureSpec(1, 0, 0)) == [(0,)]

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_every_setting_counts_and_retires_qubits(self, n):
        # Every stage count, the default and every surviving readout, with
        # and without fc: 72 settings over the four qubit counts.
        for stages in range(1, n.bit_length()):
            survivors = [q for q in range(n) if (q + 1) % (1 << stages) == 0]
            for readout in [None] + survivors:
                for fc in (False, True):
                    arch = build_architecture(n, stages, readout, include_fc=fc)
                    assert len(parameter_names(arch)) == 21 * stages + 3 * fc
                    assert stage_qubits(arch)[-1] == tuple(survivors)
                    retired = set()
                    for op in build_model_circuit(arch).ops:
                        assert not retired & set(op.targets)
                        if op.kind == "CNOT":  # a pool unit retires its source
                            retired.add(op.targets[0])
                    assert retired == set(range(n)) - set(survivors)

    def test_parameter_names_unique_and_layer_major(self):
        names = parameter_names(default_architecture(8))
        assert len(names) == len(set(names)) == 63
        assert names[0] == "c0_0"
        assert names[15] == "p0_0"
        assert names[21] == "c1_0"


class TestConvUnit:
    def test_zero_angles_is_identity(self):
        ops = conv_unit(0, 1, [f"s{i}" for i in range(15)])
        bindings = {f"s{i}": 0.0 for i in range(15)}
        rng = np.random.default_rng(0)
        psi = _rand_state(rng, 2)
        out = oracles.circuit_unitary(Circuit(2, ops), bindings) @ psi
        assert np.allclose(out, psi, atol=1e-14)

    def test_wrong_symbol_count(self):
        with pytest.raises(ConfigError):
            conv_unit(0, 1, [f"s{i}" for i in range(14)])

    def test_random_angles_give_unitary(self):
        rng = np.random.default_rng(4)
        names = [f"s{i}" for i in range(15)]
        ops = conv_unit(0, 1, names)
        bindings = {n: float(rng.uniform(-math.pi, math.pi)) for n in names}
        u = oracles.circuit_unitary(Circuit(2, ops), bindings)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


class TestPoolUnit:
    def test_zero_angles_is_bare_cnot(self):
        ops = pool_unit(0, 1, [f"s{i}" for i in range(6)])
        bindings = {f"s{i}": 0.0 for i in range(6)}
        rng = np.random.default_rng(1)
        psi = _rand_state(rng, 2)
        got = oracles.circuit_unitary(Circuit(2, ops), bindings) @ psi
        want = apply_circuit(psi, Circuit(2, (cnot(0, 1),)))
        assert np.allclose(got, want, atol=1e-14)

    def test_sink_triple_with_inverse_is_identity(self):
        ops = pool_unit(0, 1, [f"s{i}" for i in range(6)])
        no_cnot = tuple(op for op in ops if op.kind != "CNOT" and op.targets == (1,))
        rng = np.random.default_rng(2)
        bindings = {f"s{i}": float(rng.uniform(-3, 3)) for i in range(6)}
        psi = _rand_state(rng, 2)
        out = oracles.circuit_unitary(Circuit(2, no_cnot), bindings) @ psi
        assert np.allclose(out, psi, atol=1e-13)

    def test_wrong_symbol_count(self):
        with pytest.raises(ConfigError):
            pool_unit(0, 1, ["a", "b"])


class TestModelCircuit:
    def test_default_symbol_set(self):
        circuit = build_model_circuit(default_architecture(8))
        assert len(set(circuit.symbols())) == 63

    def test_weight_sharing_repeats_conv_symbols(self):
        circuit = build_model_circuit(default_architecture(8))
        uses = sum(1 for op in circuit.ops if op.symbol == "c0_0")
        assert uses == 8  # one per conv pair of the first layer

    def test_two_qubit_arch_has_single_conv_instance(self):
        circuit = build_model_circuit(default_architecture(2))
        conv_ops = [op for op in circuit.ops if op.symbol and op.symbol.startswith("c0_")]
        assert len(conv_ops) == 15

    def test_build_is_deterministic(self):
        arch = default_architecture(8)
        a = serialize_circuit(build_model_circuit(arch))
        b = serialize_circuit(build_model_circuit(arch))
        assert a == b


class TestPredict:
    def test_zero_params_on_bare_prep_gives_one(self):
        model = build_model(default_architecture(8))
        params = ParamVector(parameter_names(model.arch), np.zeros(63))
        bare = Circuit(8)  # |0...0>, no cluster circuit
        assert predict(bare, model, params) == pytest.approx(1.0, abs=1e-12)

    def test_prediction_in_unit_interval(self):
        model = build_model(default_architecture(8))
        rng = np.random.default_rng(8)
        for seed in range(3):
            params = init_params(model.arch, seed)
            sample = _sample_batch(1, seed=seed)[0]
            p = predict(sample.prep_circuit, model, params)
            assert 0.0 <= p <= 1.0

    def test_golden_value_against_dense_oracle(self):
        model = build_model(default_architecture(8))
        params = init_params(model.arch, 0)
        sample = _sample_batch(1)[0]
        assert predict(sample.prep_circuit, model, params) == pytest.approx(
            GOLDEN_P0, abs=1e-10)

    def test_pooled_out_qubits_outside_readout_cone(self):
        arch = default_architecture(8)
        model = build_model(arch)
        params = init_params(arch, 1)
        sample = _sample_batch(1)[0]
        base = predict(sample.prep_circuit, model, params)
        # Junk on retired source qubits after the full model circuit.
        junk = build_model_circuit(arch).ops + (h(0), rx(2, 1.1), h(4), rx(6, -0.7))
        noisy = Model(arch, Circuit(8, junk))
        assert predict(sample.prep_circuit, noisy, params) == pytest.approx(
            base, abs=1e-12)


def _mixed_samples(seed: int, n_generated: int, n_random: int) -> list[Sample]:
    """Generated samples, samples whose last gate is RY, ZZ, H or CNOT
    after the cluster state, the bare cluster state and random circuits,
    shuffled."""
    rng = np.random.default_rng(seed)
    cluster = cluster_state_circuit(8)
    tails = [ry(3, 0.7), ry(3, -2.1), zz(2, 5, 1.3), zz(5, 2, -0.4), h(4), cnot(1, 6)]
    samples = list(generate_client_dataset(
        GenConfig(n_clients=1, samples_per_client=n_generated, seed=seed), 0).samples)
    samples += [Sample(cluster.then(op), k % 2) for k, op in enumerate(tails)]
    samples += [Sample(cluster, 1)]
    samples += [Sample(oracles.random_circuit(rng, 8, 20), k % 2) for k in range(n_random)]
    return [samples[i] for i in rng.permutation(len(samples))]


class TestPrepStates:
    @pytest.mark.parametrize("samples_per_client", [160, 320])
    def test_generated_client_has_one_plus_n_basis_rows(self, samples_per_client):
        # The cluster state C and X_q C for every target q, and one
        # polarisation state per target for the readout.
        client = generate_client_dataset(GenConfig(
            n_clients=1, samples_per_client=samples_per_client, seed=2), 0)
        model = build_model(default_architecture(8))
        mixture = ModelEvaluator(model, parameter_names(model.arch)).prepare(client.samples)
        assert len(set(mixture.rows[:2].ravel().tolist())) == 1 + 8
        assert len(mixture.states) == 1 + 2 * 8
        assert mixture.rows.shape == (3, samples_per_client)

    def test_mixed_call_matches_per_sample_simulation(self):
        samples = _mixed_samples(7, n_generated=24, n_random=8)
        model = build_model(default_architecture(8))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        got = ev.prep_states(samples)
        for row, sample in zip(got, samples):
            want = oracles.run_circuit(sample.prep_circuit)
            assert np.max(np.abs(row - want)) < 1e-12

    def test_evaluate_matches_per_sample_predictions(self):
        # Two clients of the mix, whose shared basis holds more states
        # than one readout_z sweep takes (EVAL_BATCH).
        model = build_model(default_architecture(8))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        params = init_params(model.arch, 3)
        clients = [ClientDataset(f"c{k}", _mixed_samples(k, 16 * (k + 1), 30 * k),
                                 AngleDistribution.UNIFORM_PI) for k in range(2)]
        prepared = prepare_clients(clients, ev)
        assert max(len(c.states) for c in prepared) > 64
        samples = [s for c in clients for s in c.samples]
        labels = np.array([s.label for s in samples], dtype=float)
        p = ev.predictions(ev.prep_states(samples), params.values)
        acc, mse = evaluate(params, prepared, ev)
        assert acc == pytest.approx(np.mean((p > 0.5) == (labels == 1)), abs=1e-12)
        assert mse == pytest.approx(np.sum((labels - p) ** 2) / (2 * len(p)), abs=1e-12)

    def test_prepare_rejects_unbound_symbol_and_wrong_qubit_count(self):
        model = build_model(default_architecture(8))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        cluster = cluster_state_circuit(8)
        good = Sample(cluster.then(rx(0, 0.3)), 0)
        for bad in (cluster.then(rx(0, symbol="a")),
                    Circuit(8, (rx(0, symbol="a"),) + cluster.ops).then(rx(0, 0.3))):
            with pytest.raises(UnresolvedParameterError, match="unbound symbol 'a'"):
                ev.prepare([good, Sample(bad, 0)])
        with pytest.raises(ConfigError, match="sample on 4 qubits, model expects 8"):
            ev.prepare([good, Sample(cluster_state_circuit(4), 0)])

    def test_grouped_preparation_matches_per_sample_simulation(self):
        # Generated samples share their cluster prefix and differ in the
        # excitation target and angle; random circuits share nothing.
        rng = np.random.default_rng(6)
        samples = list(_sample_batch(12)) + [
            Sample(oracles.random_circuit(rng, 8, 20), 0) for _ in range(3)]
        samples = [samples[i] for i in rng.permutation(len(samples))]
        model = build_model(default_architecture(8))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        got = ev.prep_states(samples)
        for row, sample in zip(got, samples):
            want = oracles.run_circuit(sample.prep_circuit)
            assert np.max(np.abs(row - want)) < 1e-12

    def test_shared_prefix_simulated_once_per_prepare_clients_call(self, monkeypatch):
        # 30 generated clients share one cluster prefix across their 8
        # excitation targets: one prepare_clients call simulates it once
        # for all of them, and each client's materialised states equal
        # those of a call of its own.
        ds = generate_federated_dataset(GenConfig(
            n_clients=30, n_qubits=8, samples_per_client=16, seed=3))
        model = build_model(default_architecture(8))
        names = parameter_names(model.arch)
        alone = [prepare_clients([c], ModelEvaluator(model, names))[0]
                 .materialise(slice(None)) for c in ds.clients]
        calls = []

        def counting_apply_circuit(state, circuit):
            calls.append(circuit)
            return apply_circuit(state, circuit)

        monkeypatch.setattr(model_module, "apply_circuit", counting_apply_circuit)
        prepared = prepare_clients(ds.clients, ModelEvaluator(model, names))
        assert len(calls) == 1
        assert calls[0].ops == cluster_state_circuit(8).ops
        for client, want in zip(prepared, alone):
            assert np.array_equal(client.materialise(slice(None)), want)

    def test_one_call_shares_one_basis(self):
        ds = generate_federated_dataset(GenConfig(
            n_clients=30, n_qubits=8, samples_per_client=16, seed=4))
        model = build_model(default_architecture(8))
        prepared = prepare_clients(ds.clients, ModelEvaluator(model, parameter_names(model.arch)))
        states = prepared[0].states
        assert all(c.states is states for c in prepared)
        assert states.shape == (1 + 2 * 8, 1 << 8)

    def test_each_client_is_its_slice_of_one_mixture(self):
        ds = generate_federated_dataset(GenConfig(
            n_clients=3, n_qubits=4, samples_per_client=8, seed=7))
        model = build_model(default_architecture(4))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        whole = ev.prepare([s for c in ds.clients for s in c.samples])
        for k, (client, mixture) in enumerate(zip(ds.clients, prepare_clients(ds.clients, ev))):
            assert mixture.samples == client.samples
            assert np.array_equal(mixture.labels, [s.label for s in client.samples])
            assert np.array_equal(mixture.materialise(slice(None)),
                                  whole.materialise(slice(8 * k, 8 * (k + 1))))

    def test_evaluator_keeps_no_sample_state(self, monkeypatch):
        # A second call on the same evaluator simulates its prefix again.
        clients = generate_federated_dataset(GenConfig(
            n_clients=2, n_qubits=8, samples_per_client=16, seed=5)).clients
        model = build_model(default_architecture(8))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        calls = []

        def counting_apply_circuit(state, circuit):
            calls.append(circuit)
            return apply_circuit(state, circuit)

        monkeypatch.setattr(model_module, "apply_circuit", counting_apply_circuit)
        first = prepare_clients(clients, ev)
        second = prepare_clients(clients, ev)
        assert len(calls) == 2
        assert np.array_equal(first[1].materialise(slice(None)),
                              second[1].materialise(slice(None)))

    @staticmethod
    def _swept_states(monkeypatch) -> list[int]:
        """The length of every readout_z call from now on."""
        lengths = []
        readout_z = ModelEvaluator.readout_z

        def counting_readout_z(self, prep_states, values):
            lengths.append(len(prep_states))
            return readout_z(self, prep_states, values)

        monkeypatch.setattr(ModelEvaluator, "readout_z", counting_readout_z)
        return lengths

    def test_evaluate_sweeps_the_test_basis_once(self, monkeypatch):
        # The 5 test clients of the default run share one 17-state basis.
        ds = generate_federated_dataset(GenConfig(n_clients=30, seed=6))
        model = build_model(default_architecture(8))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        test = prepare_clients(ds.clients[25:], ev)
        lengths = self._swept_states(monkeypatch)
        evaluate(init_params(model.arch, 6), test, ev)
        assert lengths == [1 + 2 * 8]

    def test_samples_of_their_own_sweep_one_state_each(self, monkeypatch):
        # No shared prefix: the basis is one state per sample, as many as
        # sweeping each client's states alone would take.
        rng = np.random.default_rng(8)
        clients = [ClientDataset(f"c{k}", [
            Sample(Circuit(8, oracles.random_circuit(rng, 8, 12).ops + (h(k),)), k % 2)
            for _ in range(20 + 30 * k)], AngleDistribution.UNIFORM_PI) for k in range(3)]
        model = build_model(default_architecture(8))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        prepared = prepare_clients(clients, ev)
        lengths = self._swept_states(monkeypatch)
        evaluate(init_params(model.arch, 8), prepared, ev)
        assert sum(lengths) == sum(len(c.samples) for c in clients)

    def test_readout_z_sweeps_at_most_eval_batch_states(self):
        rng = np.random.default_rng(9)
        samples = [Sample(oracles.random_circuit(rng, 8, 12), 0) for _ in range(150)]
        model = build_model(default_architecture(8))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        values = init_params(model.arch, 9).values
        states = ev.prep_states(samples)
        z = ev.readout_z(states, values)
        assert max(batch for batch, _taped in ev._plans) <= EVAL_BATCH
        chunks = [ev.readout_z(states[i:i + EVAL_BATCH], values)
                  for i in range(0, len(states), EVAL_BATCH)]
        assert np.array_equal(z, np.concatenate(chunks))

    def test_unbound_symbol_rejected(self):
        model = build_model(default_architecture(2))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        bound = Sample(Circuit(2, (rx(0, 0.3),)), 0)
        unbound = Sample(Circuit(2, (rx(0, symbol="a"),)), 0)
        with pytest.raises(UnresolvedParameterError):
            ev.prep_states([bound, unbound])


class TestMseLoss:
    def test_zero_when_predictions_equal_labels(self):
        model = build_model(default_architecture(8))
        params = ParamVector(parameter_names(model.arch), np.zeros(63))
        batch = [Sample(Circuit(8), 1)]
        assert mse_loss(params, batch, model) == pytest.approx(0.0, abs=1e-12)

    def test_half_predictions_give_eighth(self):
        # H on the readout qubit makes <Z> = 0 exactly, so p = 0.5.
        model = build_model(default_architecture(8))
        params = ParamVector(parameter_names(model.arch), np.zeros(63))
        batch = [Sample(Circuit(8, (h(7),)), lab) for lab in (0, 1, 1)]
        assert mse_loss(params, batch, model) == pytest.approx(0.125, abs=1e-12)

    def test_empty_batch_rejected(self):
        model = build_model(default_architecture(8))
        params = init_params(model.arch, 0)
        with pytest.raises(ConfigError):
            mse_loss(params, [], model)
        with pytest.raises(ConfigError):
            gradient(params, [], model)

    def test_loss_nonnegative(self):
        model = build_model(default_architecture(8))
        batch = _sample_batch(6)
        for seed in range(3):
            assert mse_loss(init_params(model.arch, seed), batch, model) >= 0.0

    def test_golden_batch_value(self):
        model = build_model(default_architecture(8))
        params = init_params(model.arch, 0)
        assert mse_loss(params, _sample_batch(4), model) == pytest.approx(
            GOLDEN_MSE4, abs=1e-12)


class TestGradient:
    def test_zero_at_optimum(self):
        arch = ArchitectureSpec(2, 0, 0)
        model = Model(arch, Circuit(2, (rx(0, symbol="t"),)))
        params = ParamVector(("t",), np.zeros(1))
        g = gradient(params, [Sample(Circuit(2), 1)], model)
        assert g == pytest.approx([0.0], abs=1e-15)

    @pytest.mark.parametrize("theta", [0.5, 1.3])
    def test_rx_readout_derivative_is_minus_sine(self, theta):
        arch = ArchitectureSpec(2, 0, 0)
        model = Model(arch, Circuit(2, (rx(0, symbol="t"),)))
        params = ParamVector(("t",), np.array([theta]))
        dz = readout_gradient(params, Sample(Circuit(2), 0), model)
        assert dz[0] == pytest.approx(-math.sin(theta), abs=1e-12)

    def test_default_arch_matches_finite_differences(self):
        model = build_model(default_architecture(8))
        params = init_params(model.arch, 0)
        batch = _sample_batch(4)
        g = gradient(params, batch, model)

        def loss_fn(values):
            return mse_loss(params.with_values(values), batch, model)

        fd = oracles.finite_difference_gradient(loss_fn, np.array(params.values))
        denom = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(g - fd) / denom) <= 1e-5

    def test_matches_literal_shift_evaluations(self):
        arch = default_architecture(2)
        model = build_model(arch)
        params = init_params(arch, 3)
        cfg = GenConfig(n_clients=1, n_qubits=2, samples_per_client=2, seed=5)
        sample = generate_client_dataset(cfg, 0).samples[0]
        dz = readout_gradient(params, sample, model)
        literal = oracles.shift_rule_gradient(
            sample.prep_circuit, model.circuit.ops, dict(zip(params.names, params.values)),
            params.names, arch.readout_qubit, 2)
        assert np.max(np.abs(dz - literal)) < 1e-12

    @pytest.mark.parametrize("n_qubits,n_gates,seed", _RANDOM_CASES)
    def test_random_symbolic_circuits_match_oracles(self, n_qubits, n_gates, seed):
        rng = np.random.default_rng(seed)
        circuit = _symbolic_circuit(rng, n_qubits, n_gates)
        names = circuit.symbols()
        arch = ArchitectureSpec(n_qubits, 0, n_qubits - 1)
        ev = ModelEvaluator(Model(arch, circuit), names)
        values = rng.uniform(-math.pi, math.pi, size=len(names))
        bindings = dict(zip(names, values.tolist()))
        preps = [oracles.random_circuit(rng, n_qubits, 8) for _ in range(3)]
        z, dz = ev.readout_z_and_gradient(
            ev.prep_states([Sample(p, 0) for p in preps]), values)
        for i, prep in enumerate(preps):
            psi = oracles.circuit_unitary(circuit, bindings) @ oracles.run_circuit(prep)
            assert abs(z[i] - oracles.z_expectation(psi, n_qubits - 1)) < 1e-12
            literal = oracles.shift_rule_gradient(
                prep, circuit.ops, bindings, names, n_qubits - 1, n_qubits)
            assert np.max(np.abs(dz[:, i] - literal)) < 1e-12

    def test_random_circuits_cover_block_shapes(self):
        # What the oracle test above relies on: two-qubit blocks with gates
        # on both qubits and on only one, both two-qubit target orders,
        # fixed gates inside a two-qubit block and negated references to
        # shared symbols.
        spans, orders, fixed_in_pair, negated_shared = set(), set(), False, False
        for n, g, seed in _RANDOM_CASES:
            c = _symbolic_circuit(np.random.default_rng(seed), n, g)
            ev = ModelEvaluator(Model(ArchitectureSpec(n, 0, 0), c), c.symbols())
            blocks = model_module._fuse_blocks(c.ops, n)
            assert ev.block_qubits == [qubits for qubits, _run in blocks]
            assert all(len(qubits) == 2 for qubits in ev.block_qubits)
            spans |= {len({q for op in run for q in op.targets}) for _q, run in blocks}
            for op in c.ops:
                if len(op.targets) == 2:
                    orders.add(op.targets[0] > op.targets[1])
                    fixed_in_pair |= op.kind in ("CZ", "CNOT")
                if op.sign == -1:
                    negated_shared |= sum(o.symbol == op.symbol for o in c.ops) > 1
        assert spans == {1, 2} and orders == {True, False}
        assert fixed_in_pair and negated_shared

    def test_default_arch_matches_literal_shift_rule(self):
        model = build_model(default_architecture(8))
        params = init_params(model.arch, 2)
        sample = _sample_batch(1, seed=2)[0]
        dz = readout_gradient(params, sample, model)
        literal = oracles.shift_rule_gradient(
            sample.prep_circuit, model.circuit.ops, dict(zip(params.names, params.values)),
            params.names, model.readout_qubit, 8)
        assert np.max(np.abs(dz - literal)) < 1e-12

    def test_default_arch_applies_one_matrix_per_block(self):
        # 265 gates fuse into 19 blocks; the gradient's plan applies one
        # matrix per block forward, one per block but the first backward,
        # and takes one overlap product per block, never one per gate.
        model = build_model(default_architecture(8))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        assert len(model.circuit.ops) == 265
        assert len(ev.block_qubits) == 19
        prep = ev.prep_states(_sample_batch(2))
        ev.readout_z_and_gradient(prep, init_params(model.arch, 0).values)
        plan = ev._plans[2, True]
        assert (len(plan.forward), len(plan.backward), len(plan.overlaps)) == (19, 18, 19)
        assert all(mat.shape == (8, 8) for mat, *_ in plan.forward + plan.backward)
        # Every step but the last forward one regathers into the next layout.
        assert [dst is None for *_, dst in plan.forward] == [False] * 18 + [True]
        assert all(dst is not None for *_, dst in plan.backward)

    def test_every_architecture_fuses_into_two_qubit_blocks(self):
        # Every stage count, readout and fc setting on 2 to 16 qubits: a
        # one-qubit run is widened to two qubits after fusing, so the
        # block counts are those of fusion alone.
        for n in (2, 4, 8, 16):
            for stages in range(1, n.bit_length()):
                for readout in stage_qubits(build_architecture(n, stages))[-1]:
                    for fc in (False, True):
                        arch = build_architecture(n, stages, readout, fc)
                        ev = ModelEvaluator(build_model(arch), parameter_names(arch))
                        assert all(len(q) == 2 for q in ev.block_qubits)
                        extra = fc and readout != n - 1
                        assert len(ev.block_qubits) == _ARCH_BLOCKS[n, stages] + extra

    def test_default_arch_compiles_to_seven_block_kinds(self):
        # Translational weight sharing: the 19 blocks are 7 kinds. The
        # wrapped pair (7, 0) puts the unit's first qubit high, the pair
        # (0, 1) puts it low, so the two cannot share block matrices.
        model = build_model(default_architecture(8))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        assert len(ev.block_qubits) == 19
        assert len(set(ev.block_kinds)) == 7
        assert ev.block_qubits[:8] == [(1, 0), (3, 2), (5, 4), (7, 6),
                                       (2, 1), (4, 3), (6, 5), (7, 0)]
        assert len(set(ev.block_kinds[:7])) == 1
        assert ev.block_kinds[7] != ev.block_kinds[0]

    def test_batches_are_independent_and_results_outlive_buffers(self):
        # The evaluator reuses each batch size's work buffers; every
        # sample's result must not depend on its batch, and arrays
        # returned earlier must not change.
        model = build_model(default_architecture(8))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        values = init_params(model.arch, 4).values
        prep = ev.prep_states(_sample_batch(64, seed=3))
        single = [ev.readout_z_and_gradient(prep[i:i + 1], values) for i in range(64)]
        results = []
        for start, size in ((0, 16), (0, 64), (7, 1), (40, 16)):
            z, dz = ev.readout_z_and_gradient(prep[start:start + size], values)
            results.append((start, z, dz, z.copy(), dz.copy()))
        for start, z, dz, z_then, dz_then in results:
            assert np.array_equal(z, z_then) and np.array_equal(dz, dz_then)
            for i in range(len(z)):
                z1, dz1 = single[start + i]
                assert abs(z[i] - z1[0]) <= 1e-13
                assert np.max(np.abs(dz[:, i] - dz1[:, 0])) <= 1e-13
            forward = ev.readout_z(prep[start:start + len(z)], values)
            assert np.max(np.abs(forward - z)) <= 1e-13

    def test_forward_is_the_gradient_sweep_forward(self):
        # One forward path: readout_z runs the same sweep and readout as
        # the gradient, so the two agree to the last bit at every batch.
        model = build_model(default_architecture(8))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        values = init_params(model.arch, 5).values
        prep = ev.prep_states(_sample_batch(40, seed=4))
        for size in (1, 5, 16, 33):
            z = ev.readout_z(prep[:size], values)
            assert np.array_equal(z, ev.readout_z_and_gradient(prep[:size], values)[0])

    def test_block_to_block_moves_copy_whole_batches(self):
        # States keep the batch axis innermost, so every regather between
        # blocks moves runs of one whole batch.
        for arch in (default_architecture(8), build_architecture(8, include_fc=True),
                     default_architecture(2)):
            ev = ModelEvaluator(build_model(arch), parameter_names(arch))
            moves = ev._into[1:] + ev._back[1:]
            assert len(moves) == 2 * (len(ev.block_qubits) - 1)
            for shape, axes in moves:
                assert shape[-1] == -1 and axes[-1] == len(shape) - 1

    def test_steady_steps_do_not_fault_pages(self):
        # Reused buffers: after a warm-up, steps at one batch size reuse
        # one plan and its buffers and touch no fresh memory. Per-step
        # temporaries of the tape's size would fault hundreds of pages
        # per step.
        resource = pytest.importorskip("resource")
        model = build_model(default_architecture(8))
        ev = ModelEvaluator(model, parameter_names(model.arch))
        batch = _sample_batch(16)
        prep = ev.prep_states(batch)
        labels = np.array([s.label for s in batch], dtype=float)
        values = init_params(model.arch, 0).values
        ev.loss_and_gradient(prep, labels, values)
        plan = ev._plans[16, True]
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            ev.loss_and_gradient(prep, labels, values)
            assert ev._plans[16, True] is plan
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100

    def test_plans_survive_buffer_growth(self):
        # One evaluator's plans at each batch size, before and after a
        # larger batch, give what a fresh evaluator's first plan gives.
        model = build_model(default_architecture(8))
        names = parameter_names(model.arch)
        ev = ModelEvaluator(model, names)
        values = init_params(model.arch, 6).values
        prep = ev.prep_states(_sample_batch(32, seed=5))
        for size in (16, 5, 32, 16, 1):
            fresh = ModelEvaluator(model, names)
            z, dz = ev.readout_z_and_gradient(prep[:size], values)
            z_fresh, dz_fresh = fresh.readout_z_and_gradient(prep[:size], values)
            assert np.array_equal(z, z_fresh) and np.array_equal(dz, dz_fresh)
            assert np.array_equal(ev.readout_z(prep[:size], values),
                                  fresh.readout_z(prep[:size], values))
        # Each plan owns its buffers, so a larger batch drops no plan.
        assert sorted(ev._plans) == [(b, taped) for b in (1, 5, 16, 32)
                                     for taped in (False, True)]

    @pytest.mark.parametrize("case", ["fc", "one-qubit blocks"])
    def test_one_qubit_blocks_match_literal_shift_rule(self, case):
        # A run of gates on one qubit q is a block on q and (q + 1) mod n,
        # which carries identities on its second qubit. The fc unit on
        # qubit 1 follows the pool unit on (2, 3), so it is such a run.
        if case == "fc":
            arch = build_architecture(4, 1, 1, include_fc=True)
            circuit = build_model_circuit(arch)
        else:
            arch = ArchitectureSpec(3, 0, 0)
            circuit = Circuit(3, (
                rx(0, symbol="a"), h(0), GateOp("RY", (0,), symbol="b", sign=-1), cnot(1, 2),
                GateOp("RZ", (0,), symbol="a"), GateOp("XX", (2, 1), symbol="c"),
                h(1), GateOp("RY", (0,), angle=0.3), GateOp("RX", (2,), symbol="b")))
        names = circuit.symbols()
        ev = ModelEvaluator(Model(arch, circuit), names)
        if case == "fc":
            assert ev.block_qubits[-1] == (2, 1)
        else:
            assert ev.block_qubits == [(1, 0), (2, 1), (1, 0), (2, 1), (2, 0)]
        rng = np.random.default_rng(11)
        values = rng.uniform(-math.pi, math.pi, size=len(names))
        bindings = dict(zip(names, values.tolist()))
        preps = [oracles.random_circuit(rng, arch.n_qubits, 10) for _ in range(3)]
        _z, dz = ev.readout_z_and_gradient(
            ev.prep_states([Sample(p, 0) for p in preps]), values)
        for i, prep in enumerate(preps):
            literal = oracles.shift_rule_gradient(
                prep, circuit.ops, bindings, names, arch.readout_qubit, arch.n_qubits)
            assert np.max(np.abs(dz[:, i] - literal)) < 1e-12

    def test_gateless_model_reads_the_prepared_state(self):
        arch = ArchitectureSpec(2, 0, 1)
        ev = ModelEvaluator(Model(arch, Circuit(2)), ("t",))
        prep = ev.prep_states([Sample(Circuit(2, (h(1),)), 0), Sample(Circuit(2), 1)])
        z, dz = ev.readout_z_and_gradient(prep, np.zeros(1))
        assert z == pytest.approx([0.0, 1.0], abs=1e-15)
        assert np.array_equal(dz, np.zeros((1, 2)))
        assert np.array_equal(ev.readout_z(prep, np.zeros(1)), z)
        assert np.array_equal(ev.readout_z_and_gradient(prep[:1], np.zeros(1))[0], z[:1])

    def test_shared_symbol_sums_occurrences(self):
        # Two RX gates sharing one symbol: d<Z>/dt of RX(2t) is -2 sin(2t).
        arch = ArchitectureSpec(2, 0, 0)
        model = Model(arch, Circuit(2, (rx(0, symbol="t"), rx(0, symbol="t"))))
        theta = 0.4
        params = ParamVector(("t",), np.array([theta]))
        dz = readout_gradient(params, Sample(Circuit(2), 0), model)
        assert dz[0] == pytest.approx(-2 * math.sin(2 * theta), abs=1e-12)

    def test_unknown_symbol_rejected(self):
        arch = ArchitectureSpec(2, 0, 0)
        model = Model(arch, Circuit(2, (rx(0, symbol="t"),)))
        with pytest.raises(ConfigError, match="model symbol 't' not in parameters"):
            gradient(ParamVector(("other",), np.zeros(1)),
                     [Sample(Circuit(2), 0)], model)

    def test_one_qubit_model_refused(self):
        model = Model(ArchitectureSpec(1, 0, 0), Circuit(1, (rx(0, symbol="t"),)))
        with pytest.raises(ConfigError, match="at least 2 qubits, got 1"):
            ModelEvaluator(model, ("t",))


class TestParamVector:
    def test_lengths_must_match(self):
        with pytest.raises(ConfigError):
            ParamVector(("a", "b"), np.zeros(3))

    def test_names_must_be_unique(self):
        with pytest.raises(ConfigError):
            ParamVector(("a", "a"), np.zeros(2))

    def test_values_are_read_only(self):
        pv = ParamVector(("a",), np.zeros(1))
        with pytest.raises(ValueError):
            pv.values[0] = 1.0

    @pytest.mark.parametrize("seed", [0, 42])
    def test_training_streams_differ_from_dataset_streams(self, seed):
        # Equal data and training seeds are the common case; the initial
        # angles and the first batch shuffle must not replay a dataset
        # client's draws.
        from qflsim.datagen import client_rng
        from qflsim.federated import _shuffle_rng

        init = init_params(default_architecture(8), seed).values + INIT_ANGLE_SCALE
        shuffle = _shuffle_rng(seed, 0, 0).random(63)
        assert not np.allclose(init, shuffle)
        for c in range(4):
            draws = client_rng(seed, c).random(63)
            assert not np.allclose(init, draws)
            assert not np.allclose(shuffle, draws)

    def test_init_params_seeded_and_bounded(self):
        arch = default_architecture(8)
        a = init_params(arch, 9)
        b = init_params(arch, 9)
        assert np.array_equal(a.values, b.values)
        assert np.all(np.abs(a.values) <= 0.5)
        assert not np.array_equal(a.values, init_params(arch, 10).values)
