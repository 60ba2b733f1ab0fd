"""Cluster-state dataset generation: distributions, labels, determinism."""

import math
import re

import numpy as np
import pytest

import oracles
from qflsim.datagen import (
    AngleDistribution,
    ClientDataset,
    GenConfig,
    client_rng,
    cluster_state_circuit,
    draw_angle,
    generate_client_dataset,
    _excited_sample,
    generate_federated_dataset,
    label_rule,
)
from qflsim.errors import ConfigError
from qflsim.model import Sample
from qflsim.sim import Circuit, apply_circuit, new_zero_state, rx


class TestClusterStateCircuit:
    def test_two_qubits_collapses_wrap_pair(self):
        circuit = cluster_state_circuit(2)
        assert [op.kind for op in circuit.ops] == ["H", "H", "CZ"]

    def test_eight_qubit_ring(self):
        circuit = cluster_state_circuit(8)
        kinds = [op.kind for op in circuit.ops]
        assert kinds.count("H") == 8 and kinds.count("CZ") == 8
        cz_pairs = {op.targets for op in circuit.ops if op.kind == "CZ"}
        assert (7, 0) in cz_pairs

    def test_three_qubit_state_matches_dense_oracle(self):
        circuit = cluster_state_circuit(3)
        assert [op.targets for op in circuit.ops if op.kind == "CZ"] == [
            (0, 1), (1, 2), (2, 0)]
        got = apply_circuit(new_zero_state(3), circuit)
        want = oracles.run_circuit(circuit)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_too_small(self):
        with pytest.raises(ConfigError):
            cluster_state_circuit(1)


class TestDrawAngle:
    def test_uniform_bounds_and_mean(self):
        rng = np.random.default_rng(0)
        cfg = GenConfig(n_clients=1)
        draws = np.array([draw_angle(rng, cfg) for _ in range(100_000)])
        assert draws.min() >= -math.pi and draws.max() < math.pi
        assert abs(draws.mean()) < 0.02

    def test_truncated_normal_support_and_std(self):
        rng = np.random.default_rng(1)
        cfg = GenConfig(n_clients=1,
                        angle_distribution=AngleDistribution.TRUNCATED_NORMAL)
        draws = np.array([draw_angle(rng, cfg) for _ in range(100_000)])
        assert draws.min() >= -math.pi and draws.max() <= math.pi
        assert draws.std() < cfg.trunc_normal_sigma

    def test_seeded_sequences_repeat(self):
        cfg = GenConfig(n_clients=1)
        a = [draw_angle(np.random.default_rng(7), cfg) for _ in range(5)]
        b = [draw_angle(np.random.default_rng(7), cfg) for _ in range(5)]
        assert a == b


class TestLabelRule:
    def test_small_angle_unexcited(self):
        assert label_rule(0.0, math.pi / 2) == 0

    def test_large_angle_excited(self):
        assert label_rule(3.0, math.pi / 2) == 1
        assert label_rule(-3.0, math.pi / 2) == 1

    def test_boundary_is_unexcited(self):
        assert label_rule(math.pi / 2, math.pi / 2) == 0
        assert label_rule(-math.pi / 2, math.pi / 2) == 0


class TestGenerateSample:
    def test_forced_zero_angle(self):
        cfg = GenConfig(n_clients=1)
        sample = _excited_sample(cfg, 3, 0.0)
        assert sample.label == 0
        rx_ops = [op for op in sample.prep_circuit.ops if op.kind == "RX"]
        assert len(rx_ops) == 1
        assert rx_ops[0].targets == (3,) and rx_ops[0].angle == 0.0

    def test_forced_pi_angle_is_excited(self):
        cfg = GenConfig(n_clients=1)
        sample = _excited_sample(cfg, 0, math.pi)
        assert sample.label == 1
        assert sum(op.kind == "RX" for op in sample.prep_circuit.ops) == 1

    def test_target_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            _excited_sample(GenConfig(n_clients=1), 8, 0.0)

    def test_sample_structure(self):
        cfg = GenConfig(n_clients=1)
        sample = _excited_sample(cfg, 5, draw_angle(np.random.default_rng(0), cfg))
        kinds = [op.kind for op in sample.prep_circuit.ops]
        assert kinds.count("H") == 8 and kinds.count("CZ") == 8
        assert kinds.count("RX") == 1 and kinds[-1] == "RX"


class TestClientDataset:
    def test_targets_cycle_through_qubits(self):
        client = generate_client_dataset(GenConfig(n_clients=1, seed=3), 0)
        targets = [
            next(op.targets[0] for op in s.prep_circuit.ops if op.kind == "RX")
            for s in client.samples
        ]
        assert targets == list(range(8)) * 20

    def test_label_balance_within_band(self):
        for k in range(4):
            client = generate_client_dataset(GenConfig(n_clients=4, seed=11), k)
            excited = sum(s.label for s in client.samples)
            assert 48 <= excited <= 112

    def test_tag_is_stored_as_a_file_reads_it(self):
        assert ClientDataset("c", (), "uniform_pi").distribution_tag is AngleDistribution.UNIFORM_PI
        with pytest.raises(ConfigError, match="^distribution_tag must be AngleDistribution, "
                                              "got 'bogus'$"):
            ClientDataset("c", (), "bogus")

    def test_samples_must_share_a_qubit_count(self):
        on = {n: _excited_sample(GenConfig(1, n, samples_per_client=0), 0, 0.5)
              for n in (2, 3)}
        with pytest.raises(ConfigError, match="share a qubit count"):
            ClientDataset("c", (on[2], on[3], on[2]), AngleDistribution.UNIFORM_PI)

    def test_every_sample_well_formed(self):
        client = generate_client_dataset(GenConfig(n_clients=1, seed=2), 0)
        assert len(client.samples) == 160
        for s in client.samples:
            kinds = [op.kind for op in s.prep_circuit.ops]
            assert kinds.count("H") == 8
            assert kinds.count("CZ") == 8
            assert kinds.count("RX") == 1


class TestFederatedDataset:
    def test_iid_thirty_clients(self):
        ds = generate_federated_dataset(GenConfig(n_clients=30, seed=1))
        assert len(ds.clients) == 30
        assert all(c.distribution_tag is AngleDistribution.UNIFORM_PI
                   for c in ds.clients)
        assert all(len(c.samples) == 160 for c in ds.clients)

    def test_half_fraction_marks_first_fifteen(self):
        ds = generate_federated_dataset(GenConfig(n_clients=30, seed=1), 0.5)
        tags = [c.distribution_tag for c in ds.clients]
        assert tags[:15] == [AngleDistribution.TRUNCATED_NORMAL] * 15
        assert tags[15:] == [AngleDistribution.UNIFORM_PI] * 15

    def test_clients_past_the_fraction_use_the_configured_distribution(self):
        # A file's gen_config line records angle_distribution, so the
        # clients it does not mark non-IID must draw from it.
        cfg = GenConfig(n_clients=3, seed=2, samples_per_client=16,
                        angle_distribution="truncated_normal")
        ds = generate_federated_dataset(cfg)
        tags = [c.distribution_tag for c in ds.clients]
        assert tags == [AngleDistribution.TRUNCATED_NORMAL] * 3
        assert ds.clients == tuple(generate_client_dataset(cfg, k) for k in range(3))

    def test_same_seed_same_dataset(self):
        a = generate_federated_dataset(GenConfig(n_clients=3, seed=9,
                                                 samples_per_client=16))
        b = generate_federated_dataset(GenConfig(n_clients=3, seed=9,
                                                 samples_per_client=16))
        assert a == b

    def test_clients_have_distinct_angle_sequences(self):
        ds = generate_federated_dataset(GenConfig(n_clients=6, seed=4,
                                                  samples_per_client=16))

        def angles(client):
            return tuple(
                op.angle for s in client.samples for op in s.prep_circuit.ops
                if op.kind == "RX"
            )

        sequences = [angles(c) for c in ds.clients]
        assert len(set(sequences)) == len(sequences)

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_default_size_matches_scalar_draws(self, fraction):
        # Uniform clients draw all their angles in one call; the stream
        # must stay the one that one scalar draw per sample gives.
        cfg = GenConfig(n_clients=30, seed=8)
        ds = generate_federated_dataset(cfg, fraction)
        n_trunc = math.ceil(fraction * cfg.n_clients)
        base = cluster_state_circuit(cfg.n_qubits).ops
        for k, client in enumerate(ds.clients):
            dist = AngleDistribution.TRUNCATED_NORMAL if k < n_trunc \
                else AngleDistribution.UNIFORM_PI
            scalar_cfg = GenConfig(n_clients=30, seed=8, angle_distribution=dist)
            rng = client_rng(cfg.seed, k)
            want = []
            for m in range(cfg.samples_per_client):
                angle = draw_angle(rng, scalar_cfg)
                prep = Circuit(cfg.n_qubits, base + (rx(m % cfg.n_qubits, angle),))
                want.append(Sample(prep, label_rule(angle, cfg.excitation_threshold)))
            assert client.distribution_tag is dist
            assert client.samples == tuple(want)

    def test_zero_clients_rejected(self):
        with pytest.raises(ConfigError):
            generate_federated_dataset(GenConfig(n_clients=0))

    def test_fraction_validated(self):
        with pytest.raises(ConfigError):
            generate_federated_dataset(GenConfig(n_clients=2), 1.5)

    def test_fraction_one_skews_every_client(self):
        ds = generate_federated_dataset(
            GenConfig(n_clients=3, samples_per_client=8), 1.0)
        assert {c.distribution_tag for c in ds.clients} == {
            AngleDistribution.TRUNCATED_NORMAL}


class TestGenConfig:
    def test_defaults_are_the_papers(self):
        assert GenConfig(n_clients=1) == GenConfig(
            n_clients=1, n_qubits=8, samples_per_client=160,
            angle_distribution=AngleDistribution.UNIFORM_PI,
            trunc_normal_sigma=math.pi / 2, excitation_threshold=math.pi / 2,
            seed=0)

    def test_zero_samples_allowed_and_sigma_must_be_positive(self):
        assert GenConfig(n_clients=1, samples_per_client=0).samples_per_client == 0
        assert GenConfig(n_clients=1, trunc_normal_sigma=0.5).trunc_normal_sigma == 0.5
        for sigma in (0.0, -1.0):
            with pytest.raises(ConfigError, match="trunc_normal_sigma"):
                GenConfig(n_clients=1, trunc_normal_sigma=sigma)

    def test_samples_must_divide_by_qubits(self):
        with pytest.raises(ConfigError):
            GenConfig(n_clients=1, samples_per_client=100)

    def test_threshold_range(self):
        with pytest.raises(ConfigError):
            GenConfig(n_clients=1, excitation_threshold=0.0)
        with pytest.raises(ConfigError):
            GenConfig(n_clients=1, excitation_threshold=math.pi)

    def test_distribution_coerced_from_string(self):
        cfg = GenConfig(n_clients=1, angle_distribution="truncated_normal")
        assert cfg.angle_distribution is AngleDistribution.TRUNCATED_NORMAL

    def test_fields_are_stored_as_a_file_reads_them(self):
        cfg = GenConfig(n_clients=np.int64(1), n_qubits=np.int8(4), samples_per_client=8,
                        trunc_normal_sigma=1, excitation_threshold=np.float32(0.5), seed=True)
        assert [(type(v), v) for v in (cfg.n_clients, cfg.n_qubits, cfg.seed,
                                       cfg.trunc_normal_sigma, cfg.excitation_threshold)] == [
            (int, 1), (int, 4), (int, 1), (float, 1.0), (float, 0.5)]
        for field, value, message in (
                ("seed", 42.0, "seed must be int, got 42.0"),
                ("n_qubits", "4", "n_qubits must be int, got '4'"),
                ("trunc_normal_sigma", None, "trunc_normal_sigma must be float, got None"),
                ("excitation_threshold", 10**400, "excitation_threshold must be float"),
                ("angle_distribution", "bogus",
                 "angle_distribution must be AngleDistribution, got 'bogus'")):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
                GenConfig(n_clients=1, **{field: value})

    def test_qubit_count_is_bounded_as_a_circuits(self):
        assert GenConfig(n_clients=1, n_qubits=16, samples_per_client=16).n_qubits == 16
        for n in (1, 17):
            with pytest.raises(ConfigError, match=rf"^n_qubits must be in \[2, 16\], got {n}$"):
                GenConfig(n_clients=1, n_qubits=n, samples_per_client=0)
