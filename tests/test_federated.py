"""Optimizers, federated averaging, local training and the round loop."""

import dataclasses
import math
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import oracles
import qflsim.model as model_module
import qflsim.transport as transport
from qflsim.datagen import GenConfig, generate_federated_dataset
from qflsim.errors import ConfigError, TrainingError
from qflsim.federated import (
    ClientUpdate,
    EvalContext,
    OptimizerConfig,
    OptimizerState,
    TrainConfig,
    build_clients,
    build_run,
    evaluate,
    prepare_clients,
    federated_average,
    local_train,
    optimizer_step,
    run_round,
    run_training,
)
from qflsim.model import (
    ArchitectureSpec,
    ModelEvaluator,
    ParamVector,
    Sample,
    build_model,
    default_architecture,
    init_params,
    parameter_names,
)
from qflsim.sim import Circuit, h
from qflsim.store import params_checksum
from qflsim.transport import LocalTransport


def _tiny_dataset(n_clients=3, samples=16, seed=1, n_qubits=2):
    return generate_federated_dataset(
        GenConfig(n_clients=n_clients, n_qubits=n_qubits,
                  samples_per_client=samples, seed=seed))


def _pv(values):
    values = np.asarray(values, dtype=float)
    return ParamVector(tuple(f"t{i}" for i in range(len(values))), values)


def _up(values):
    """A ClientUpdate carrying ``_pv(values)``."""
    return ClientUpdate(client_id="c", params=_pv(values), local_loss=0.0)


class TestOptimizerStep:
    def test_sgd_arithmetic(self):
        state = OptimizerState.zeros(1)
        new, _ = optimizer_step(state, np.array([1.0]), np.array([0.5]),
                                OptimizerConfig(kind="sgd", learning_rate=0.02))
        assert new[0] == pytest.approx(0.99, abs=1e-15)

    @pytest.mark.parametrize("g", [0.5, -2.0, 1.0])
    def test_adam_first_step_is_signed_lr(self, g):
        lr = 0.02
        state = OptimizerState.zeros(1)
        new, _ = optimizer_step(state, np.zeros(1), np.array([g]),
                                OptimizerConfig(kind="adam", learning_rate=lr))
        assert abs(new[0] - (-lr * math.copysign(1.0, g))) <= 1e-6 * lr

    def test_rmsprop_first_step(self):
        state = OptimizerState.zeros(1)
        new, _ = optimizer_step(
            state, np.zeros(1), np.ones(1),
            OptimizerConfig(kind="rmsprop", learning_rate=0.002))
        assert new[0] == pytest.approx(-0.002 / math.sqrt(0.1 + 1e-7), rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            optimizer_step(OptimizerState.zeros(2), np.zeros(2), np.zeros(3),
                           OptimizerConfig(kind="sgd"))

    def test_adam_sequence_matches_reference(self):
        # Independent in-test reference of the published update rule.
        rng = np.random.default_rng(0)
        cfg = OptimizerConfig(kind="adam", learning_rate=0.05)
        p = rng.normal(size=8)
        state = OptimizerState.zeros(8)
        m = np.zeros(8)
        v = np.zeros(8)
        ref = p.copy()
        for t in range(1, 6):
            g = rng.normal(size=8)
            p, state = optimizer_step(state, p, g, cfg)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref = ref - 0.05 * (m / (1 - 0.9**t)) / (
                np.sqrt(v / (1 - 0.999**t)) + 1e-7)
            assert np.allclose(p, ref, atol=1e-14)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(kind="adagrad")

    def test_nonpositive_lr(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(kind="sgd", learning_rate=0.0)


class TestFederatedAverage:
    def test_identical_updates_fixed_point(self):
        up = _up([0.3, -0.7, 2.0])
        pv = up.params
        out = federated_average([up, up, up], np.full(3, 1 / 3))
        assert np.allclose(out.values, pv.values)

    def test_two_vector_example(self):
        out = federated_average([_up([1, 2]), _up([3, 4])], [0.5, 0.5])
        assert np.allclose(out.values, [2, 3])

    def test_weighted_example(self):
        out = federated_average([_up([0]), _up([4])], [0.75, 0.25])
        assert np.allclose(out.values, [1])

    def test_weights_must_normalize(self):
        with pytest.raises(ConfigError):
            federated_average([_up([1]), _up([2])], [0.7, 0.4])

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            federated_average([_up([1]), _up([2])], [1.0])

    def test_empty(self):
        with pytest.raises(ConfigError):
            federated_average([], [])

    def test_differently_named_vectors_refused(self):
        renamed = ClientUpdate("b", ParamVector(("x", "z"), np.zeros(2)), 0.0)
        with pytest.raises(ConfigError, match="inconsistent parameter vectors"):
            federated_average([_up([1, 2]), renamed], [0.5, 0.5])

    def test_linearity(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            k, n = int(rng.integers(2, 6)), int(rng.integers(1, 9))
            vecs = [rng.normal(size=n) for _ in range(k)]
            w = rng.uniform(0.1, 1.0, size=k)
            w /= w.sum()
            base = federated_average([_up(v) for v in vecs], w).values
            scaled = federated_average(
                [_up(2.0 * vecs[0])] + [_up(v) for v in vecs[1:]], w).values
            assert np.allclose(scaled - base, w[0] * vecs[0], atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            k, n = int(rng.integers(2, 6)), int(rng.integers(1, 9))
            vecs = [rng.normal(size=n) for _ in range(k)]
            w = rng.uniform(0.1, 1.0, size=k)
            w /= w.sum()
            perm = rng.permutation(k)
            a = federated_average([_up(v) for v in vecs], w).values
            b = federated_average([_up(vecs[i]) for i in perm], w[perm]).values
            assert np.allclose(a, b, atol=1e-12)


class TestLocalTrain:
    def _client(self, samples=16, seed=1, **train):
        """The one client of a ``samples``-sample dataset, built for a run
        with the TrainConfig fields ``train``; with its initial parameters
        and model."""
        ds = _tiny_dataset(n_clients=1, samples=samples, seed=seed)
        cfg = TrainConfig(rounds=1, train_clients=ds.client_ids(),
                          test_clients=(), seed=seed, **train)
        evaluator, params, (client,) = build_clients(ds, cfg, cfg.train_clients)
        return client, params, evaluator.model

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            self._client(epochs=0, batch_size=4)

    def test_unknown_client_rejected(self):
        ds = _tiny_dataset(n_clients=1)
        cfg = TrainConfig(rounds=1, train_clients=ds.client_ids(), test_clients=())
        with pytest.raises(ConfigError, match="^unknown client 'client_999'$"):
            build_clients(ds, cfg, ["client_999"])

    def test_tiny_lr_keeps_params_near_global(self):
        client, params, _ = self._client(
            batch_size=4, opt=OptimizerConfig(kind="sgd", learning_rate=1e-300))
        update = local_train(client, params)
        assert np.allclose(update.params.values, params.values, atol=1e-12)

    def test_full_batch_sgd_step_matches_gradient_oracle(self):
        lr = 0.05
        client, params, model = self._client(
            batch_size=16, opt=OptimizerConfig(kind="sgd", learning_rate=lr))
        update = local_train(client, params)
        ev = ModelEvaluator(model, params.names)
        samples = client.data.samples
        _loss, g = ev.loss_and_gradient(
            ev.prep_states(samples), np.array([s.label for s in samples], dtype=float),
            params.values)
        assert np.allclose(update.params.values, params.values - lr * g,
                           atol=1e-12)

    def test_empty_dataset_rejected(self):
        client, params, _ = self._client(batch_size=4)
        client.data = client.evaluator.prepare(())
        with pytest.raises(ConfigError):
            local_train(client, params)

    def test_diverged_training_raises(self):
        # A finite but huge learning rate overflows the parameters.
        client, params, _ = self._client(
            epochs=3, batch_size=2, opt=OptimizerConfig(kind="adam", learning_rate=1e308))
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="diverged"):
            local_train(client, params)

    @pytest.mark.parametrize("kind", ["adam", "rmsprop"])
    def test_divergence_raises_without_numpy_warnings(self, kind):
        # The error names the cause; numpy's overflow warnings from the
        # optimizer, or from the model on non-finite angles, would only
        # repeat it.
        client, params, _ = self._client(
            epochs=3, batch_size=2, opt=OptimizerConfig(kind=kind, learning_rate=1e308))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingError, match=r"parameters after step \d+ are not finite"):
                local_train(client, params)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_update_metadata(self):
        client, params, _ = self._client(epochs=2, batch_size=4)
        update = local_train(client, params)
        assert [f.name for f in dataclasses.fields(update)] == \
            ["client_id", "params", "local_loss"]
        assert update.client_id == client.client_id
        assert update.local_loss >= 0.0
        assert client.epochs_done == 2


class TestRunRound:
    def test_single_client_pass_through(self):
        ds = _tiny_dataset(n_clients=2)
        cfg = TrainConfig(rounds=1, train_clients=(ds.clients[0].client_id,),
                          test_clients=(ds.clients[1].client_id,), batch_size=4,
                          seed=3)
        server, clients, ctx = build_run(ds, cfg)
        (fresh,) = build_run(ds, cfg)[1]
        expected = local_train(fresh, server.params)
        with LocalTransport(clients) as local:
            new_server, record = run_round(server, local, cfg, ctx)
        assert np.allclose(new_server.params.values, expected.params.values)
        assert record.round == 1 and new_server.round == 1

    def test_identical_clients_average_to_either(self):
        ds = _tiny_dataset(n_clients=2)
        first = ds.client_ids()[:1]
        cfg = TrainConfig(rounds=1, train_clients=first, test_clients=(),
                          batch_size=4, seed=5, opt=OptimizerConfig(kind="adam"))
        _evaluator, params, clients = build_clients(ds, cfg, first * 2)
        ups = [local_train(c, params) for c in clients]
        assert np.array_equal(ups[0].params.values, ups[1].params.values)
        avg = federated_average(ups, [0.5, 0.5])
        assert np.allclose(avg.values, ups[0].params.values, atol=1e-12)

    def test_round_matches_hand_rolled_composition(self):
        ds = _tiny_dataset(n_clients=5, samples=8)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:4], test_clients=ids[4:],
                          batch_size=4, seed=11)
        server, clients, ctx = build_run(ds, cfg)
        server2, clients2, _ = build_run(ds, cfg)
        expected_updates = [local_train(c, server2.params) for c in clients2]
        expected = federated_average(expected_updates, server2.client_weights)
        with LocalTransport(clients) as local:
            new_server, _record = run_round(server, local, cfg, ctx)
        assert np.array_equal(new_server.params.values, expected.values)

    def test_client_failure_aborts_round(self):
        ds = _tiny_dataset(n_clients=3)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:2], test_clients=ids[2:],
                          batch_size=4, seed=1)
        server, clients, ctx = build_run(ds, cfg)
        clients[1].data = dataclasses.replace(  # poisoned shapes
            clients[1].data, cos=clients[1].data.cos[:3])
        with LocalTransport(clients) as local, \
                pytest.raises(TrainingError, match=clients[1].client_id):
            run_round(server, local, cfg, ctx)


def _forced_helpers(monkeypatch, n_helpers):
    """Make LocalTransport see n_helpers + 1 usable cores and rounds of
    any size worth sharing."""
    monkeypatch.setattr(transport, "_usable_cores", lambda: n_helpers + 1)
    monkeypatch.setattr(transport, "MIN_SAMPLES_PER_PROCESS", 1)


class TestLocalTransport:
    def test_one_connection_per_helper(self, monkeypatch):
        _forced_helpers(monkeypatch, 1)
        ds = _tiny_dataset(n_clients=4)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:3], test_clients=ids[3:],
                          batch_size=4, seed=1)
        _server, clients, _ctx = build_run(ds, cfg)
        pairs = []
        real_socketpair = socket.socketpair

        def counting_socketpair(*args):
            pairs.append(real_socketpair(*args))
            return pairs[-1]

        monkeypatch.setattr(socket, "socketpair", counting_socketpair)
        with LocalTransport(clients):
            assert len(multiprocessing.active_children()) == 1
        assert len(pairs) == 1

    def test_updates_come_back_in_the_rounds_order(self, monkeypatch):
        # The helper owns clients 0 and 2 and answers for 0 first; the
        # round's order names them the other way round.
        _forced_helpers(monkeypatch, 1)
        ds = _tiny_dataset(n_clients=4)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:3], test_clients=ids[3:],
                          batch_size=4, seed=1)
        runs = []
        for order in (list(ids[:3]), list(reversed(ids[:3]))):
            server, clients, _ctx = build_run(ds, cfg)
            with LocalTransport(clients) as local:
                updates = local.round_trip(1, server.params, order)
            assert [u.client_id for u in updates] == order
            runs.append({u.client_id: u for u in updates})
        in_order, reversed_order = runs
        for cid, want in in_order.items():
            got = reversed_order[cid]
            assert got.local_loss == want.local_loss
            assert np.array_equal(got.params.values, want.params.values)

    def test_records_and_states_identical_for_any_helper_count(self, monkeypatch):
        # Round 3 depends on the optimizer moments and the epoch counter
        # that each helper keeps for its clients.
        ds = _tiny_dataset(n_clients=6, samples=8)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=3, train_clients=ids[:5], test_clients=ids[5:],
                          epochs=2, batch_size=3, seed=7)
        runs = []
        for n_helpers in range(4):
            _forced_helpers(monkeypatch, n_helpers)
            server, clients, ctx = build_run(ds, cfg)
            records = [ctx.record(0, server.params, {})]
            with LocalTransport(clients) as local:
                assert len(multiprocessing.active_children()) == n_helpers
                for _ in range(cfg.rounds):
                    server, record = run_round(server, local, cfg, ctx)
                    records.append(record)
            runs.append((records, server.params.values))
        records, values = runs[0]
        for other_records, other_values in runs[1:]:
            assert other_records == records
            assert np.array_equal(other_values, values)

    @pytest.mark.parametrize("arch", [ArchitectureSpec(2, 0, 0),
                                      ArchitectureSpec(2, 0, 1, include_fc=True)],
                             ids=["gateless", "fc-only"])
    def test_zero_stage_model_runs_alike_for_any_helper_count(self, monkeypatch, arch):
        # A gateless model has no parameter to broadcast: every run refuses
        # it before round 0 and forks no helper. The fc unit alone is a
        # model, which trains the same with a helper as without.
        ds = _tiny_dataset(n_clients=4)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=2, train_clients=ids[:3], test_clients=ids[3:],
                          batch_size=4, seed=1, arch=arch)
        pairs = []
        real_socketpair = socket.socketpair

        def counting_socketpair(*args):
            pairs.append(real_socketpair(*args))
            return pairs[-1]

        monkeypatch.setattr(socket, "socketpair", counting_socketpair)
        runs = []
        for n_helpers in (0, 1):
            _forced_helpers(monkeypatch, n_helpers)
            rounds = []

            def on_round(record, _server):
                rounds.append((record, len(multiprocessing.active_children())))

            if arch.include_fc:
                runs.append(run_training(ds, cfg, on_round=on_round))
                assert [helpers for _record, helpers in rounds] == [n_helpers] * 3
            else:
                with pytest.raises(ConfigError, match="a model needs at least one gate"):
                    run_training(ds, cfg, on_round=on_round)
                assert rounds == []
            assert not multiprocessing.active_children()
        if arch.include_fc:
            assert runs[0] == runs[1] and len(pairs) == 1
        else:
            with pytest.raises(ConfigError, match="a model needs at least one gate"):
                build_run(ds, cfg, in_process=False)
            assert pairs == []

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs affinity masks")
    def test_parent_takes_the_core_no_helper_took(self, monkeypatch):
        # On three cores the two helpers are dealt cores 0 and 1, so the
        # parent pins itself to core 2. Pinning is recorded, not done: a
        # helper writes its core to a pipe. The mask read is the
        # transport's own process's.
        _forced_helpers(monkeypatch, 2)

        def own_mask(pid):
            assert pid == 0, pid
            return {0, 1, 2}

        monkeypatch.setattr(os, "sched_getaffinity", own_mask)
        monkeypatch.setattr(os, "sched_setaffinity", lambda _pid, _mask: None)
        parent, pinned = os.getpid(), []
        read_end, write_end = os.pipe()

        def pin(core):
            if os.getpid() == parent:
                pinned.append(core)
            else:
                os.write(write_end, bytes([core]))

        monkeypatch.setattr(transport, "_pin_to", pin)
        ds = _tiny_dataset(n_clients=4)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:3], test_clients=ids[3:],
                          batch_size=4, seed=1)
        server, clients, ctx = build_run(ds, cfg)
        try:
            with LocalTransport(clients) as local:
                assert len(multiprocessing.active_children()) == 2
                run_round(server, local, cfg, ctx)  # each helper pinned itself first
        finally:
            os.close(write_end)
        with os.fdopen(read_end, "rb") as pins:
            assert sorted(pins.read()) == [0, 1]
        assert pinned == [2]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs affinity masks")
    def test_a_failed_second_connection_stops_the_first_helper(self, monkeypatch):
        # The first helper is running when the second socketpair fails:
        # the transport stops and reaps it, leaves the parent's mask as it
        # was, and raises the error.
        _forced_helpers(monkeypatch, 2)
        ds = _tiny_dataset(n_clients=4)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:3], test_clients=ids[3:],
                          batch_size=4, seed=1)
        _server, clients, _ctx = build_run(ds, cfg)
        real_socketpair = socket.socketpair
        running = []

        def failing_socketpair(*args):
            running.extend(p.pid for p in multiprocessing.active_children())
            if running:
                raise OSError("no socketpair left")
            return real_socketpair(*args)

        monkeypatch.setattr(socket, "socketpair", failing_socketpair)
        original = os.sched_getaffinity(0)
        with pytest.raises(OSError, match="no socketpair left"):
            LocalTransport(clients)
        assert len(running) == 1
        assert not multiprocessing.active_children()
        with pytest.raises(ChildProcessError):
            os.waitpid(running[0], os.WNOHANG)
        assert os.sched_getaffinity(0) == original

    def test_without_fork_clients_train_in_process(self, monkeypatch):
        # A platform without the fork start method gets no helper, however
        # many cores and samples a round has.
        _forced_helpers(monkeypatch, 2)
        ds = _tiny_dataset(n_clients=4)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:3], test_clients=ids[3:],
                          batch_size=4, seed=1)
        reference = run_training(ds, cfg)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        server, clients, ctx = build_run(ds, cfg)
        with LocalTransport(clients) as local:
            assert not multiprocessing.active_children()
            _server, record = run_round(server, local, cfg, ctx)
        assert record == reference[1]

    def test_usable_cores_without_affinity_masks(self, monkeypatch):
        # Where the platform has no affinity mask, every core counts, and
        # one when the count is unknown.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count, usable in ((3, 3), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert transport._usable_cores() == usable

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs affinity masks")
    def test_a_helper_needs_500_samples_a_process(self, monkeypatch):
        # On two usable cores a round that trains 1000 samples (2 clients
        # x 250, 2 epochs) forks a helper, and one of 500 forks none and
        # leaves the parent's affinity mask as it was.
        monkeypatch.setattr(transport, "_usable_cores", lambda: 2)
        ds = _tiny_dataset(n_clients=3, samples=250)
        ids = ds.client_ids()
        original = os.sched_getaffinity(0)
        for epochs, helpers in ((2, 1), (1, 0)):
            cfg = TrainConfig(rounds=1, train_clients=ids[:2], test_clients=ids[2:],
                              epochs=epochs, batch_size=250, seed=1)
            _server, clients, _ctx = build_run(ds, cfg)
            with LocalTransport(clients):
                assert len(multiprocessing.active_children()) == helpers
                mask = os.sched_getaffinity(0)
            assert os.sched_getaffinity(0) == original
        assert mask == original

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable cores and affinity masks")
    def test_each_process_runs_on_its_own_core(self, monkeypatch):
        _forced_helpers(monkeypatch, 1)
        ds = _tiny_dataset(n_clients=3)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:2], test_clients=ids[2:],
                          batch_size=4, seed=1)
        server, clients, ctx = build_run(ds, cfg)
        original = os.sched_getaffinity(0)
        with LocalTransport(clients) as local:
            run_round(server, local, cfg, ctx)  # the helper pinned itself first
            (helper,) = multiprocessing.active_children()
            helper_mask = os.sched_getaffinity(helper.pid)
            parent_mask = os.sched_getaffinity(0)
            assert len(helper_mask) == len(parent_mask) == 1
            assert helper_mask != parent_mask
            assert helper_mask | parent_mask <= original
        assert os.sched_getaffinity(0) == original

    def test_run_training_leaves_no_helper_when_a_round_fails(self, monkeypatch):
        _forced_helpers(monkeypatch, 2)
        ds = _tiny_dataset(n_clients=4)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=2, train_clients=ids[:3], test_clients=ids[3:],
                          batch_size=4, seed=1)

        def failing_on_round(record, _server):
            assert multiprocessing.active_children()
            if record.round == 1:
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            run_training(ds, cfg, on_round=failing_on_round)
        assert not multiprocessing.active_children()

    def test_client_failing_in_helper_is_named(self, monkeypatch):
        _forced_helpers(monkeypatch, 1)
        ds = _tiny_dataset(n_clients=4)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:3], test_clients=ids[3:],
                          batch_size=4, seed=1)
        server, clients, ctx = build_run(ds, cfg)
        # The helper owns clients 0 and 2, the parent client 1.
        clients[2].data = dataclasses.replace(  # poisoned shapes
            clients[2].data, cos=clients[2].data.cos[:3])
        with LocalTransport(clients) as local:
            with pytest.raises(TrainingError,
                               match=f"client {ids[2]} failed in round 1"):
                run_round(server, local, cfg, ctx)

    def test_killed_helper_fails_the_round(self, monkeypatch):
        _forced_helpers(monkeypatch, 1)
        ds = _tiny_dataset(n_clients=4)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:3], test_clients=ids[3:],
                          batch_size=4, seed=1)
        server, clients, ctx = build_run(ds, cfg)
        parent = os.getpid()

        def dying_local_train(client, params):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return local_train(client, params)

        monkeypatch.setattr(transport, "local_train", dying_local_train)
        start = time.monotonic()
        with LocalTransport(clients) as local:
            with pytest.raises(TrainingError) as info:
                run_round(server, local, cfg, ctx)
        assert time.monotonic() - start < 30.0
        message = str(info.value)
        assert "round 1" in message and "disconnected" in message
        assert ids[0] in message and ids[1] not in message

    def test_hung_helper_fails_its_round_by_name(self, monkeypatch):
        _forced_helpers(monkeypatch, 1)
        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 0.2)
        ds = _tiny_dataset(n_clients=4)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:3], test_clients=ids[3:],
                          batch_size=4, seed=1)
        server, clients, ctx = build_run(ds, cfg)
        parent = os.getpid()

        def hanging_local_train(client, params):
            if os.getpid() != parent:
                time.sleep(60)
            return local_train(client, params)

        monkeypatch.setattr(transport, "local_train", hanging_local_train)
        start = time.monotonic()
        with LocalTransport(clients) as local:
            with pytest.raises(TrainingError,
                               match=f"client {ids[0]} sent nothing in round 1"):
                run_round(server, local, cfg, ctx)
        assert time.monotonic() - start < 5.0

    def test_helper_training_past_the_deadline_keeps_its_round(self, monkeypatch):
        # A helper says ALIVE, as a socket worker does.
        _forced_helpers(monkeypatch, 1)
        ds = _tiny_dataset(n_clients=4)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:3], test_clients=ids[3:],
                          batch_size=4, seed=1)
        server, clients, _ctx = build_run(ds, cfg)
        expected = [local_train(c, server.params) for c in build_run(ds, cfg)[1]]
        parent = os.getpid()

        def slow_local_train(client, params):
            if os.getpid() != parent:
                time.sleep(0.6)
            return local_train(client, params)

        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 0.3)
        monkeypatch.setattr(transport, "KEEPALIVE_S", 0.05)
        monkeypatch.setattr(transport, "local_train", slow_local_train)
        with LocalTransport(clients) as local:
            assert len(multiprocessing.active_children()) == 1
            updates = local.round_trip(1, server.params, list(cfg.train_clients))
        for got, want in zip(updates, expected, strict=True):
            assert (got.client_id, got.local_loss) == (want.client_id, want.local_loss)
            assert np.array_equal(got.params.values, want.params.values)

    def test_unknown_client_is_named(self):
        ds = _tiny_dataset(n_clients=3)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:2], test_clients=ids[2:],
                          batch_size=4, seed=1)
        server, clients, _ctx = build_run(ds, cfg)
        with LocalTransport(clients) as local:
            with pytest.raises(TrainingError,
                               match=r"clients never connected: \['ghost'\]"):
                local.round_trip(1, server.params, [*ids[:2], "ghost"])

    @pytest.mark.parametrize("order", [(1, 2), (0, 1, 2, 0)])
    def test_order_naming_a_client_other_than_once_is_refused(self, monkeypatch,
                                                              order):
        # The helper owns clients 0 and 2. A refused round sends it no
        # GLOBAL, so the next round is the first it trains.
        _forced_helpers(monkeypatch, 1)
        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 0.5)
        monkeypatch.setattr(transport, "KEEPALIVE_S", 0.05)
        ds = _tiny_dataset(n_clients=4)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:3], test_clients=ids[3:],
                          batch_size=4, seed=1)
        server, clients, _ctx = build_run(ds, cfg)
        expected = [local_train(c, server.params) for c in build_run(ds, cfg)[1]]
        raised = []

        def refused_round():
            try:
                local.round_trip(1, server.params, [ids[i] for i in order])
            except Exception as exc:
                raised.append(exc)

        with LocalTransport(clients) as local:
            assert len(multiprocessing.active_children()) == 1
            attempt = threading.Thread(target=refused_round)
            attempt.start()
            attempt.join(timeout=5)
            assert not attempt.is_alive()
            (error,) = raised
            assert isinstance(error, ConfigError)
            assert str(error).endswith(f"[{ids[0]!r}]")
            # Nothing was sent or trained: the next round is the first.
            updates = local.round_trip(1, server.params, list(cfg.train_clients))
        for got, want in zip(updates, expected, strict=True):
            assert (got.client_id, got.local_loss) == (want.client_id, want.local_loss)
            assert np.array_equal(got.params.values, want.params.values)


class TestEvaluate:
    def test_all_correct(self):
        ds = _tiny_dataset(n_clients=1, n_qubits=8, samples=8, seed=2)
        arch = default_architecture(8)
        ev = ModelEvaluator(build_model(arch), parameter_names(arch))
        # Zero model predicts 1 for the bare |0..0> prep.
        params = ParamVector(parameter_names(arch), np.zeros(63))
        client = type(ds.clients[0])(
            "c", tuple(Sample(Circuit(8), 1) for _ in range(6)),
            ds.clients[0].distribution_tag)
        acc, mse = evaluate(params, prepare_clients([client], ev), ev)
        assert acc == 1.0 and mse == pytest.approx(0.0, abs=1e-12)

    def test_half_probability_ties_count_as_label_zero(self):
        arch = default_architecture(8)
        ev = ModelEvaluator(build_model(arch), parameter_names(arch))
        params = ParamVector(parameter_names(arch), np.zeros(63))
        prep = Circuit(8, (h(7),))  # <Z> = 0 exactly on the readout
        samples = tuple(Sample(prep, lab) for lab in (0, 0, 1))
        client = _tiny_dataset(1, 8, 1, 8).clients[0]
        client = type(client)("c", samples, client.distribution_tag)
        acc, _ = evaluate(params, prepare_clients([client], ev), ev)
        assert acc == pytest.approx(2 / 3)

    def test_matches_per_sample_tally(self):
        ds = _tiny_dataset(n_clients=2, samples=16)
        arch = default_architecture(2)
        model = build_model(arch)
        params = init_params(arch, 7)
        ev = ModelEvaluator(model, parameter_names(arch))
        acc, mse = evaluate(params, prepare_clients(ds.clients, ev), ev)
        hits = 0
        err = 0.0
        count = 0
        for client in ds.clients:
            for s in client.samples:
                p = oracles.predict_oracle(s.prep_circuit, model.circuit,
                                           dict(zip(params.names, params.values)),
                                           arch.readout_qubit)
                hits += int((p > 0.5) == (s.label == 1))
                err += (s.label - p) ** 2
                count += 1
        assert acc == pytest.approx(hits / count, abs=1e-12)
        assert mse == pytest.approx(err / (2 * count), abs=1e-12)

    def test_empty_rejected(self):
        arch = default_architecture(2)
        with pytest.raises(ConfigError):
            evaluate(init_params(arch, 0), [],
                     ModelEvaluator(build_model(arch), parameter_names(arch)))

    def test_reordered_parameter_names_rejected(self):
        ds = _tiny_dataset(n_clients=1)
        arch = default_architecture(2)
        ev = ModelEvaluator(build_model(arch), parameter_names(arch))
        params = init_params(arch, 0)
        reordered = ParamVector(params.names[::-1], params.values[::-1])
        with pytest.raises(ConfigError, match="parameter names"):
            evaluate(reordered, prepare_clients(ds.clients, ev), ev)


class TestRunTraining:
    def test_train_config_defaults_are_the_papers(self):
        # The default experiment's local training: one epoch per round,
        # batch 16, Adam at 0.02; and seed 0.
        cfg = TrainConfig(rounds=1, train_clients=("a",), test_clients=())
        assert (cfg.epochs, cfg.batch_size, cfg.seed) == (1, 16, 0)
        assert cfg.opt == OptimizerConfig("adam", 0.02)
        assert (cfg.eval_train, cfg.arch) == (False, None)

    def test_zero_rounds_gives_initial_evaluation(self):
        ds = _tiny_dataset()
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=0, train_clients=ids[:2], test_clients=ids[2:],
                          batch_size=4, seed=2)
        records = run_training(ds, cfg)
        assert len(records) == 1
        assert records[0].round == 0
        assert records[0].client_losses == {}

    def test_same_seed_reproduces_records(self):
        ds = _tiny_dataset()
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=2, train_clients=ids[:2], test_clients=ids[2:],
                          batch_size=4, seed=9)
        a = run_training(ds, cfg)
        b = run_training(ds, cfg)
        assert a == b

    def test_overlapping_split_rejected(self):
        ds = _tiny_dataset()
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:2], test_clients=ids[1:],
                          batch_size=4)
        with pytest.raises(ConfigError, match="overlap"):
            run_training(ds, cfg)

    def test_empty_split_rejected(self):
        ds = _tiny_dataset()
        ids = ds.client_ids()
        for train, test in ((ids, ()), ((), ids)):
            with pytest.raises(ConfigError, match="must both be nonempty"):
                run_training(ds, TrainConfig(rounds=1, train_clients=train,
                                             test_clients=test, batch_size=4))

    def test_unknown_client_rejected(self):
        ds = _tiny_dataset()
        cfg = TrainConfig(rounds=1, train_clients=("ghost",),
                          test_clients=(ds.clients[0].client_id,))
        with pytest.raises(ConfigError, match="ghost"):
            run_training(ds, cfg)

    @pytest.mark.parametrize("role", ["train", "test"])
    def test_repeated_client_rejected_before_any_work(self, monkeypatch, role):
        ds = _tiny_dataset()
        a, b, c = ds.client_ids()
        split = {"train": ((a, a, b), (c,)), "test": ((a,), (b, c, b))}[role]
        cfg = TrainConfig(rounds=1, train_clients=split[0], test_clients=split[1],
                          batch_size=4)
        prepared = []
        real_prepare = ModelEvaluator.prepare

        def counting_prepare(self, samples):
            prepared.append(samples)
            return real_prepare(self, samples)

        monkeypatch.setattr(ModelEvaluator, "prepare", counting_prepare)
        repeated = a if role == "train" else b
        with pytest.raises(ConfigError,
                           match=rf"{role} clients repeated: \['{repeated}'\]"):
            run_training(ds, cfg)
        assert prepared == []

    def test_round_records_carry_losses_and_checksums(self):
        ds = _tiny_dataset()
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=2, train_clients=ids[:2], test_clients=ids[2:],
                          batch_size=4, seed=4)
        records = run_training(ds, cfg)
        assert len(records) == 3
        assert set(records[1].client_losses) == set(ids[:2])
        assert len(records[1].server_params_checksum) == 16
        assert records[1].server_params_checksum != records[2].server_params_checksum

    def test_eval_train_flag_populates_train_metrics(self):
        ds = _tiny_dataset()
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:2], test_clients=ids[2:],
                          batch_size=4, seed=4, eval_train=True)
        records = run_training(ds, cfg)
        assert records[-1].train_accuracy is not None
        assert records[-1].train_mse is not None

    def test_eval_train_run_prepares_each_sample_once(self, monkeypatch):
        ds = _tiny_dataset(n_clients=4, samples=8)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=2, train_clients=ids[:3], test_clients=ids[3:],
                          batch_size=4, seed=4, eval_train=True)
        reference = run_training(ds, cfg)
        built, prepared = [], []
        init, prepare = ModelEvaluator.__init__, ModelEvaluator.prepare

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        def counting_prepare(self, samples):
            prepared.extend(samples)
            return prepare(self, samples)

        monkeypatch.setattr(ModelEvaluator, "__init__", counting_init)
        monkeypatch.setattr(ModelEvaluator, "prepare", counting_prepare)
        assert run_training(ds, cfg) == reference
        assert len(built) == 1
        assert len(prepared) == sum(len(c.samples) for c in ds.clients)

    @pytest.mark.parametrize("in_process,eval_train",
                             [(True, False), (True, True), (False, True)])
    def test_run_prepares_every_client_in_one_call(self, monkeypatch, in_process,
                                                   eval_train):
        # Training and test clients share one basis, so a generated
        # dataset's cluster state is simulated once per run.
        ds = _tiny_dataset(n_clients=4, samples=8)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:3], test_clients=ids[3:],
                          batch_size=4, seed=4, eval_train=eval_train)
        prepared, simulated = [], []
        prepare, apply_circuit = ModelEvaluator.prepare, model_module.apply_circuit

        def counting_prepare(self, samples):
            prepared.append(len(samples))
            return prepare(self, samples)

        def counting_apply_circuit(state, circuit):
            simulated.append(circuit)
            return apply_circuit(state, circuit)

        monkeypatch.setattr(ModelEvaluator, "prepare", counting_prepare)
        monkeypatch.setattr(model_module, "apply_circuit", counting_apply_circuit)
        if in_process:
            run_training(ds, cfg)
        else:
            build_run(ds, cfg, in_process=False)
        assert prepared == [sum(len(c.samples) for c in ds.clients)]
        assert len(simulated) == 1


# (server_params_checksum, test_mse) of every round, round 0 first, of
# two small runs: 2 rounds, 4 training and 2 test clients x 32 samples,
# Adam 0.02, batch 16, keyed by (qubits, non-IID fraction, seed). They
# were recorded with every sample's state prepared on its own, which
# training on mixtures must reproduce bit for bit.
GOLDEN_RUNS = {
    (8, 0.0, 11): [("6e553a5161aa1aff", 0.12177583779293585),
                   ("f7127dec037ea591", 0.10692941687594096),
                   ("6ebe12ec4564f6a4", 0.09992468257569406)],
    (4, 0.5, 12): [("e46e93a674036774", 0.07371452209303486),
                   ("bbc87aabb29fecd3", 0.05453942307312665),
                   ("f579fd2747ced139", 0.049387977402130176)],
}


@pytest.mark.parametrize("n_qubits,non_iid,seed", list(GOLDEN_RUNS))
def test_pinned_run_records(n_qubits, non_iid, seed):
    ds = generate_federated_dataset(
        GenConfig(n_clients=6, n_qubits=n_qubits, samples_per_client=32, seed=seed),
        non_iid_fraction=non_iid)
    ids = ds.client_ids()
    cfg = TrainConfig(rounds=2, train_clients=ids[:4], test_clients=ids[4:],
                      batch_size=16, opt=OptimizerConfig("adam", 0.02), seed=seed)
    records = run_training(ds, cfg)
    assert [r.server_params_checksum for r in records] == \
        [checksum for checksum, _mse in GOLDEN_RUNS[n_qubits, non_iid, seed]]
    for record, (_checksum, mse) in zip(records, GOLDEN_RUNS[n_qubits, non_iid, seed]):
        assert record.test_mse == pytest.approx(mse, abs=1e-12)


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_pinned_run_records_for_any_blas_thread_count(blas_threads):
    # The smaller pinned run, in a fresh interpreter whose numpy starts
    # with the given OpenBLAS thread count.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import test_federated as t; t.test_pinned_run_records(4, 0.5, 12)"],
        env={**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
             "PYTHONPATH": os.pathsep.join(
                 [os.path.dirname(__file__), os.environ.get("PYTHONPATH", "")])},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _centralized_params(ds, cfg):
    """Plain mini-batch training on the first client alone, one ``epochs``
    block per round: the parameters after each block, starting with the
    initial ones."""
    _evaluator, params, (client,) = build_clients(ds, cfg, ds.client_ids()[:1])
    history = [params.values]
    for _ in range(cfg.rounds):
        params = local_train(client, params).params
        history.append(params.values)
    return history


class TestSingleClientEquivalence:
    def test_federated_k1_equals_centralized(self):
        ds = _tiny_dataset(n_clients=2, samples=16)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=5, train_clients=ids[:1], test_clients=ids[1:],
                          epochs=1, batch_size=4, seed=21)
        fed_params = []
        run_training(ds, cfg,
                     on_round=lambda rec, srv: fed_params.append(srv.params.values))
        cent_params = _centralized_params(ds, cfg)
        assert len(fed_params) == len(cent_params) == 6
        for a, b in zip(fed_params, cent_params):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_equivalence_with_multiple_epochs(self):
        ds = _tiny_dataset(n_clients=2, samples=16)
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=3, train_clients=ids[:1], test_clients=ids[1:],
                          epochs=2, batch_size=8, seed=33,
                          opt=OptimizerConfig(kind="rmsprop", learning_rate=0.002))
        a = run_training(ds, cfg)
        b = _centralized_params(ds, cfg)
        assert [r.server_params_checksum for r in a] == \
               [params_checksum(values) for values in b]


class TestServerState:
    def test_uniform_default(self):
        ds = _tiny_dataset(n_clients=5, samples=8)
        cfg = TrainConfig(rounds=0, train_clients=ds.client_ids()[:4],
                          test_clients=ds.client_ids()[4:])
        w = build_run(ds, cfg)[0].client_weights
        assert np.array_equal(w, np.full(4, 0.25))
