"""Wire protocol: message codec, socket rounds, subprocess workers."""

import argparse
import os
import re
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from qflsim import worker
from qflsim.cli import add_architecture_flags
from qflsim.datagen import GenConfig, generate_federated_dataset
from qflsim.errors import ConfigError, ProtocolError, TrainingError
from qflsim.federated import (
    ClientUpdate,
    OptimizerConfig,
    TrainConfig,
    build_clients,
    run_training,
)
from qflsim.model import (
    ModelEvaluator,
    ParamVector,
    build_architecture,
    default_architecture,
    init_params,
    parameter_names,
)
import qflsim.transport as transport
from qflsim.store import write_dataset
from qflsim.transport import (
    PROTOCOL_VERSION,
    Done,
    Error,
    Global,
    Hello,
    SocketFedServer,
    Update,
    decode_message,
    encode_done,
    encode_error,
    encode_global,
    encode_hello,
    encode_update,
    run_socket_client,
)


def _tiny_dataset(n_clients=3, samples=16, seed=8):
    return generate_federated_dataset(
        GenConfig(n_clients=n_clients, n_qubits=2,
                  samples_per_client=samples, seed=seed))


def _make_client(ds, index, cfg):
    """Client ``index`` of ``ds`` as a socket worker builds it for ``cfg``."""
    _evaluator, _params, (client,) = build_clients(
        ds, cfg, ds.client_ids()[index:index + 1])
    return client


class TestMessageCodec:
    def test_hello_round_trip(self):
        msg = decode_message(encode_hello("client_003"))
        assert msg == Hello("client_003", PROTOCOL_VERSION)

    def test_global_round_trip(self):
        values = np.array([0.1, -2.5, 3.141592653589793])
        msg = decode_message(encode_global(4, values))
        assert isinstance(msg, Global)
        assert msg.round == 4
        assert np.array_equal(np.array(msg.values), values)

    def test_update_round_trip(self):
        update = ClientUpdate("c1", ParamVector(("a", "b"), np.array([1.5, -0.25])),
                              0.125)
        msg = decode_message(encode_update(2, update))
        assert msg == Update(2, "c1", 0.125, (1.5, -0.25))

    def test_done(self):
        assert decode_message(encode_done()) == Done()

    def test_error_round_trip_puts_its_text_on_one_line(self):
        msg = decode_message(encode_error("c1", 3, " local training\n  diverged:\tnan "))
        assert msg == Error("c1", 3, "local training diverged: nan")

    def test_parameters_survive_17_digit_round_trip(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-np.pi, np.pi, 63)
        msg = decode_message(encode_global(1, values))
        assert np.array_equal(np.array(msg.values), values)

    @pytest.mark.parametrize("line", [
        "HELLO client_1",
        "GLOBAL 1",
        "UPDATE 1 c 16",
        "GLOBAL x 1.0",
        "WAT 1 2",
        "UPDATE 1 c x 1.0",
        "GLOBAL 1 nan,inf",
        "GLOBAL 1 1.0,-inf",
        "UPDATE 1 c nan 1.0",
        "UPDATE 1 c 0.5 nan",
        "HELLO v2 ",
        "UPDATE 1  0.5 1.0",
        "HELLO v2 a\tb",
        "GLOBAL 1_0 0.5",
        "UPDATE \u0661 c1 0.5 1.0",
        "UPDATE 1 c1 0_5 1.0",
        # Protocol v3's five-field UPDATE, with a sample count, whatever
        # its fields hold.
        "UPDATE 1 c 16 0.5 1.0",
        "UPDATE 1 c x 0.5 1.0",
        "UPDATE 1 c 16 nan 1.0",
        "UPDATE 1 c 16 0.5 nan",
        "UPDATE 1 c -1 0.5 1.0",
        "UPDATE 1  16 0.5 1.0",
        "UPDATE \u0661 c1 1_6 0.5 1.0",
        "ERROR c1 1",
        "ERROR c1 1 ",
        "ERROR c1 1 two  spaces",
        "ERROR c1 x boom",
        "ERROR a\tb 1 boom",
        "ERROR  1 boom",
    ])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ProtocolError):
            decode_message(line)

    @pytest.mark.parametrize("line, message", [
        ("GLOBAL 1 1.0,abc", "bad parameter list '1.0,abc'"),
        ("HELLO vx c", "bad HELLO version: 'HELLO vx c'"),
    ])
    def test_malformed_line_names_its_fault(self, line, message):
        with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
            decode_message(line)


class TestSocketRounds:
    def test_socket_run_matches_in_process(self):
        ds = _tiny_dataset()
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=2, train_clients=ids[:2], test_clients=ids[2:],
                          batch_size=4, seed=5,
                          opt=OptimizerConfig(kind="adam", learning_rate=0.02))
        reference = run_training(ds, cfg)

        names = parameter_names(default_architecture(2))
        server = SocketFedServer(2, names)
        host, port = server.address
        threads = []
        for i in range(2):
            client = _make_client(ds, i, cfg)
            t = threading.Thread(target=run_socket_client,
                                 args=(host, port, client))
            t.start()
            threads.append(t)
        try:
            server.wait_for_clients()
            records = run_training(ds, cfg, transport=server)
        finally:
            server.shutdown()
            for t in threads:
                t.join(timeout=10)
        assert records == reference

    def test_socket_run_over_ipv6_matches_in_process(self):
        try:
            with socket.socket(socket.AF_INET6) as probe:
                probe.bind(("::1", 0))
        except OSError:
            pytest.skip("::1 cannot be bound here")
        ds = _tiny_dataset()
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:1], test_clients=ids[2:],
                          batch_size=4, seed=5)
        reference = run_training(ds, cfg)
        server = SocketFedServer(1, parameter_names(default_architecture(2)), host="::1")
        host, port = server.address
        assert host == "::1"
        t = threading.Thread(target=run_socket_client,
                             args=(host, port, _make_client(ds, 0, cfg)))
        t.start()
        try:
            server.wait_for_clients()
            records = run_training(ds, cfg, transport=server)
        finally:
            server.shutdown()
            t.join(timeout=10)
        assert records == reference

    @pytest.mark.parametrize("host", ["127.0.0.1", "localhost"])
    def test_socket_run_looks_up_only_a_name(self, monkeypatch, host):
        # An IPv4 address is listened on without getaddrinfo, which the
        # server's thread here may not call; a name is still looked up.
        ds = _tiny_dataset()
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:1], test_clients=ids[2:],
                          batch_size=4, seed=5)
        reference = run_training(ds, cfg)
        lookup, looked_up = socket.getaddrinfo, []

        def server_side_refused(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                looked_up.append(args[0])
                if host == "127.0.0.1":
                    raise OSError("no name lookup on the server")
            return lookup(*args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", server_side_refused)
        server = SocketFedServer(1, parameter_names(default_architecture(2)), host=host)
        t = threading.Thread(target=run_socket_client,
                             args=(*server.address, _make_client(ds, 0, cfg)))
        t.start()
        try:
            server.wait_for_clients()
            records = run_training(ds, cfg, transport=server)
        finally:
            server.shutdown()
            t.join(timeout=10)
        assert records == reference
        assert looked_up == ([] if host == "127.0.0.1" else ["localhost"])

    def test_socket_run_with_eval_train_matches_in_process(self, monkeypatch):
        ds = _tiny_dataset()
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=2, train_clients=ids[:2], test_clients=ids[2:],
                          batch_size=4, seed=6, eval_train=True)
        reference = run_training(ds, cfg)
        clients = [_make_client(ds, i, cfg) for i in range(2)]
        built = []
        init = ModelEvaluator.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(ModelEvaluator, "__init__", counting_init)
        server = SocketFedServer(2, parameter_names(default_architecture(2)))
        host, port = server.address
        threads = [threading.Thread(target=run_socket_client, args=(host, port, c))
                   for c in clients]
        for t in threads:
            t.start()
        try:
            server.wait_for_clients()
            records = run_training(ds, cfg, transport=server)
        finally:
            server.shutdown()
            for t in threads:
                t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert records == reference
        assert records[-1].train_accuracy is not None
        assert len(built) == 1

    def test_version_mismatch_rejected(self):
        server = SocketFedServer(1, ("a",))
        host, port = server.address
        try:
            with socket.create_connection((host, port)) as conn:
                conn.sendall(b"HELLO v99 impostor\n")
                with pytest.raises(ProtocolError, match="protocol"):
                    server.wait_for_clients(timeout=5)
        finally:
            server.shutdown()

    @pytest.mark.parametrize("hello, error", [
        ("HELLO v99 c1", "protocol v99"),
        ("HELLO v3 c1", "client c1 speaks protocol v3, server expects v4"),
        ("HELLO v{v} c0", "duplicate"),
        ("ALIVE", "expected HELLO"),
        ("HELLO", "bad HELLO"),
    ])
    def test_rejected_hello_closes_its_connection(self, hello, error):
        server = SocketFedServer(2, ("a",))
        host, port = server.address
        try:
            with socket.create_connection((host, port)) as first, \
                    socket.create_connection((host, port)) as conn:
                first.sendall(encode_hello("c0").encode())
                conn.sendall(hello.format(v=PROTOCOL_VERSION).encode() + b"\n")
                # The kept traceback holds wait_for_clients' frame, so only
                # an explicit close ends the rejected connection.
                with pytest.raises(ProtocolError, match=error) as _raised:
                    server.wait_for_clients(timeout=5)
                conn.settimeout(5)
                assert conn.recv(1) == b""
        finally:
            server.shutdown()

    def test_round_mismatch_rejected(self):
        server = SocketFedServer(1, ("a",))
        host, port = server.address

        def impostor():
            with socket.create_connection((host, port)) as conn:
                reader = conn.makefile("r")
                conn.sendall(encode_hello("c1").encode())
                reader.readline()  # GLOBAL
                conn.sendall(b"UPDATE 9 c1 0.5 0.0\n")
                reader.readline()

        t = threading.Thread(target=impostor)
        t.start()
        try:
            server.wait_for_clients(timeout=5)
            with pytest.raises(ProtocolError, match="client c1 answered round 9, expected 1"):
                server.round_trip(1, ParamVector(("a",), np.zeros(1)), ["c1"])
        finally:
            server.shutdown()
            t.join(timeout=5)

    def test_update_from_another_client_rejected(self):
        server = SocketFedServer(1, ("a",))
        host, port = server.address

        def impostor():
            with socket.create_connection((host, port)) as conn:
                reader = conn.makefile("r")
                conn.sendall(encode_hello("c1").encode())
                reader.readline()  # GLOBAL
                conn.sendall(b"UPDATE 1 c2 0.5 0.0\n")
                reader.readline()

        t = threading.Thread(target=impostor)
        t.start()
        try:
            server.wait_for_clients(timeout=5)
            with pytest.raises(ProtocolError, match="answer from 'c2' on 'c1''s connection"):
                server.round_trip(1, ParamVector(("a",), np.zeros(1)), ["c1"])
        finally:
            server.shutdown()
            t.join(timeout=5)

    def test_hello_in_place_of_an_update_rejected(self):
        server = SocketFedServer(1, ("a",))
        host, port = server.address

        def again():
            with socket.create_connection((host, port)) as conn:
                reader = conn.makefile("r")
                conn.sendall(encode_hello("c1").encode())
                reader.readline()  # GLOBAL
                conn.sendall(encode_hello("c1").encode())
                reader.readline()

        t = threading.Thread(target=again)
        t.start()
        try:
            server.wait_for_clients(timeout=5)
            with pytest.raises(ProtocolError, match=re.escape(
                    f"expected UPDATE from c1, got {Hello('c1', PROTOCOL_VERSION)!r}")):
                server.round_trip(1, ParamVector(("a",), np.zeros(1)), ["c1"])
        finally:
            server.shutdown()
            t.join(timeout=5)

    def test_update_with_wrong_parameter_count_names_its_client(self):
        server = SocketFedServer(1, ("a", "b", "c"))
        host, port = server.address

        def short():
            with socket.create_connection((host, port)) as conn:
                reader = conn.makefile("r")
                conn.sendall(encode_hello("c1").encode())
                reader.readline()  # GLOBAL
                conn.sendall(b"UPDATE 4 c1 0.5 0.0,1.0\n")
                reader.readline()

        t = threading.Thread(target=short)
        t.start()
        try:
            server.wait_for_clients(timeout=5)
            with pytest.raises(ProtocolError,
                               match="client c1 sent 2 parameters in round 4, expected 3"):
                server.round_trip(4, ParamVector(("a", "b", "c"), np.zeros(3)), ["c1"])
        finally:
            server.shutdown()
            t.join(timeout=5)
        assert not t.is_alive()

    def test_update_that_is_not_utf8_names_its_client(self):
        server = SocketFedServer(1, ("a",))
        host, port = server.address

        def garbled():
            with socket.create_connection((host, port)) as conn:
                reader = conn.makefile("r")
                conn.sendall(encode_hello("c1").encode())
                reader.readline()  # GLOBAL
                conn.sendall(b"UPDATE 1 c1 0.5 0.25\xff\n")
                reader.readline()

        t = threading.Thread(target=garbled)
        t.start()
        try:
            server.wait_for_clients(timeout=5)
            with pytest.raises(ProtocolError,
                               match="client c1 in round 1: line is not UTF-8"):
                server.round_trip(1, ParamVector(("a",), np.zeros(1)), ["c1"])
        finally:
            server.shutdown()
            t.join(timeout=5)
        assert not t.is_alive()

    def test_update_trickled_within_the_deadline_keeps_its_round(self, monkeypatch):
        # The read deadline bounds the wait for each byte, not for a whole
        # line: a client that sends its UPDATE a byte at a time, each well
        # within the deadline, keeps its round.
        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 0.5)
        server = SocketFedServer(1, ("a",))
        host, port = server.address

        def trickle():
            with socket.create_connection((host, port)) as conn:
                reader = conn.makefile("r")
                conn.sendall(encode_hello("c1").encode())
                reader.readline()  # GLOBAL
                for byte in b"UPDATE 1 c1 0.5 0.25\n":
                    time.sleep(0.1)
                    conn.sendall(bytes([byte]))
                reader.readline()  # DONE

        t = threading.Thread(target=trickle)
        t.start()
        try:
            server.wait_for_clients(timeout=5)
            start = time.monotonic()
            (update,) = server.round_trip(1, ParamVector(("a",), np.zeros(1)), ["c1"])
            assert time.monotonic() - start > 1.0  # longer than the deadline
        finally:
            server.shutdown()
            t.join(timeout=10)
        assert not t.is_alive()
        assert update.params.values.tolist() == [0.25]

    @pytest.mark.parametrize("sent", [b"", b"HELLO v3"])
    def test_connection_closed_before_hello_is_dropped(self, sent):
        # A connection that ends without a whole HELLO fails nothing: the
        # wait goes on and links the clients that do say HELLO.
        server = SocketFedServer(2, ("a",))
        try:
            with socket.create_connection(server.address) as hello, \
                    socket.create_connection(server.address) as gone:
                hello.sendall(encode_hello("c1").encode())
                gone.sendall(sent)
                gone.close()
                with pytest.raises(TimeoutError, match="1 of 2 clients"):
                    server.wait_for_clients(timeout=0.5)
                assert [link.ids for link in server._links] == [("c1",)]
                assert server._pending == []
        finally:
            server.shutdown()

    def test_silent_connection_keeps_to_the_deadline_and_links_later(self, monkeypatch):
        # A connection that has not said HELLO yet fails the call at its
        # own deadline, not the read deadline, and its late HELLO links
        # on the next call.
        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 30.0)
        server = SocketFedServer(1, ("a",))
        try:
            with socket.create_connection(server.address) as conn:
                start = time.monotonic()
                with pytest.raises(TimeoutError):
                    server.wait_for_clients(timeout=0.2)
                assert time.monotonic() - start < 2.0
                conn.sendall(encode_hello("late").encode())
                server.wait_for_clients(timeout=5)
                assert [link.ids for link in server._links] == [("late",)]
        finally:
            server.shutdown()

    def test_split_hello_keeps_to_the_deadline_and_links_later(self, monkeypatch):
        # A connection that has sent part of its HELLO line fails the call
        # at its own deadline, not the read deadline, and keeps what it
        # sent: the rest of the line links it on the next call.
        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 2.0)
        server = SocketFedServer(1, ("a",))
        try:
            with socket.create_connection(server.address) as conn:
                conn.sendall(f"HELLO v{PROTOCOL_VERSION} par".encode())
                start = time.monotonic()
                with pytest.raises(TimeoutError):
                    server.wait_for_clients(timeout=0.2)
                assert time.monotonic() - start < 1.0
                conn.sendall(b"tial\n")
                server.wait_for_clients(timeout=5)
                assert [link.ids for link in server._links] == [("partial",)]
        finally:
            server.shutdown()

    def test_shutdown_closes_a_connection_without_a_whole_hello(self):
        server = SocketFedServer(1, ("a",))
        try:
            with socket.create_connection(server.address) as conn:
                conn.sendall(f"HELLO v{PROTOCOL_VERSION} c1".encode())
                with pytest.raises(TimeoutError):
                    server.wait_for_clients(timeout=0.1)
                assert len(server._pending) == 1
                server.shutdown()
                conn.settimeout(5)
                assert conn.recv(1) == b""
        finally:
            server.shutdown()

    def test_bytes_after_hello_stay_with_the_link(self):
        # The HELLO is read up to its newline only, so an UPDATE sent in
        # the same packet is the link's first line.
        server = SocketFedServer(1, ("a",))
        try:
            with socket.create_connection(server.address) as conn:
                conn.sendall(encode_hello("c1").encode() + b"UPDATE 1 c1 0.5 0.25\n")
                server.wait_for_clients(timeout=5)
                (update,) = server.round_trip(1, ParamVector(("a",), np.zeros(1)), ["c1"])
                assert update.params.values.tolist() == [0.25]
        finally:
            server.shutdown()

    def test_servers_listen_on_ports_of_their_own(self):
        # The default port is 0, so each server takes a free port.
        servers = [SocketFedServer(1, ("a",)) for _ in range(2)]
        try:
            ports = {server.address[1] for server in servers}
            assert len(ports) == 2 and 0 not in ports
        finally:
            for server in servers:
                server.shutdown()

    def test_overlong_hello_is_refused(self):
        server = SocketFedServer(1, ("a",))
        try:
            with socket.create_connection(server.address) as conn:
                hello = f"HELLO v{PROTOCOL_VERSION} ".encode()
                conn.sendall(hello.ljust(transport.HELLO_MAX_BYTES, b"x"))
                with pytest.raises(ProtocolError, match="HELLO longer than"):
                    server.wait_for_clients(timeout=5)
                conn.settimeout(5)
                assert conn.recv(1) == b""
        finally:
            server.shutdown()

    @pytest.mark.parametrize("order, named", [
        (["c1"], "c2"),
        (["c1", "c2", "c1"], "c1"),
    ])
    def test_order_naming_a_client_other_than_once_is_refused(self, monkeypatch,
                                                              order, named):
        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 0.5)
        server = SocketFedServer(2, ("a",))
        host, port = server.address
        with socket.create_connection((host, port)) as c1, \
                socket.create_connection((host, port)) as c2:
            c1.sendall(encode_hello("c1").encode())
            c2.sendall(encode_hello("c2").encode())
            try:
                server.wait_for_clients(timeout=5)
                with pytest.raises(ConfigError, match=rf"\['{named}'\]$"):
                    server.round_trip(1, ParamVector(("a",), np.zeros(1)), order)
            finally:
                server.shutdown()
            for conn in (c1, c2):  # no GLOBAL went out before DONE
                conn.settimeout(5)
                assert conn.makefile("r").readline() == encode_done()

    def test_silent_client_fails_its_round_by_name(self, monkeypatch):
        # A client that says HELLO and then never answers must fail the
        # round within the read deadline, not block it.
        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 0.2)
        server = SocketFedServer(1, ("a",))
        host, port = server.address
        release = threading.Event()

        def silent():
            with socket.create_connection((host, port)) as conn:
                conn.sendall(encode_hello("quiet").encode())
                release.wait(timeout=10)

        t = threading.Thread(target=silent)
        t.start()
        try:
            server.wait_for_clients(timeout=5)
            with pytest.raises(TrainingError, match="client quiet .* round 3"):
                server.round_trip(3, ParamVector(("a",), np.zeros(1)), ["quiet"])
        finally:
            release.set()
            server.shutdown()
            t.join(timeout=5)
        assert not t.is_alive()

    def test_disconnected_client_fails_its_round_by_name(self):
        server = SocketFedServer(1, ("a",))
        host, port = server.address
        with socket.create_connection((host, port)) as conn:
            conn.sendall(encode_hello("gone").encode())
            server.wait_for_clients(timeout=5)
        try:
            with pytest.raises(TrainingError, match="client gone disconnected in round 2"):
                server.round_trip(2, ParamVector(("a",), np.zeros(1)), ["gone"])
        finally:
            server.shutdown()

    def test_training_longer_than_the_deadline_keeps_its_round(self, monkeypatch):
        # A client whose local training outlasts the read deadline says
        # ALIVE meanwhile, so its round completes with the usual update.
        ds = _tiny_dataset()
        ids = ds.client_ids()
        cfg = TrainConfig(rounds=1, train_clients=ids[:1], test_clients=ids[1:],
                          batch_size=4, seed=5,
                          opt=OptimizerConfig(kind="adam", learning_rate=0.02))
        params = init_params(default_architecture(2), 1)
        expected = transport.local_train(_make_client(ds, 0, cfg), params)
        real_train = transport.local_train

        def slow_train(*args, **kwargs):
            time.sleep(1.0)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 0.3)
        monkeypatch.setattr(transport, "KEEPALIVE_S", 0.05)
        monkeypatch.setattr(transport, "local_train", slow_train)
        server = SocketFedServer(1, parameter_names(default_architecture(2)))
        host, port = server.address
        t = threading.Thread(target=run_socket_client,
                             args=(host, port, _make_client(ds, 0, cfg)))
        t.start()
        try:
            server.wait_for_clients(timeout=5)
            (update,) = server.round_trip(1, params, [expected.client_id])
        finally:
            server.shutdown()
            t.join(timeout=10)
        assert not t.is_alive()
        assert (update.client_id, update.local_loss) == \
            (expected.client_id, expected.local_loss)
        assert np.array_equal(update.params.values, expected.params.values)


def test_client_loop_decodes_each_round_global_once(monkeypatch):
    # A helper serving several clients reads one GLOBAL line per round on
    # its one connection, parses it once, and answers it with one UPDATE
    # per client; every client still trains from it as if alone.
    ds = _tiny_dataset(n_clients=4)
    ids = ds.client_ids()
    cfg = TrainConfig(rounds=2, train_clients=ids[:3], test_clients=ids[3:],
                      batch_size=4, seed=3)
    params = [init_params(default_architecture(2), seed) for seed in (1, 2)]
    expected = {}
    for i in range(3):
        client = _make_client(ds, i, cfg)
        for r, p in enumerate(params, start=1):
            expected[ids[i], r] = transport.local_train(client, p)
    decoded = []
    real_decode = transport.decode_message

    def counting_decode(line):
        decoded.append(line.split(" ", 1)[0])
        return real_decode(line)

    monkeypatch.setattr(transport, "decode_message", counting_decode)
    ours, theirs = socket.socketpair()
    loop = threading.Thread(target=transport._serve_clients, args=(
        theirs, [_make_client(ds, i, cfg) for i in range(3)]))
    reader, writer = ours.makefile("r"), ours.makefile("w")
    loop.start()
    answers = []
    try:
        for r, p in enumerate(params, start=1):
            writer.write(encode_global(r, p.values))
            writer.flush()
            answers += [decode_message(reader.readline()) for _ in range(3)]
        writer.write(encode_done())
        writer.flush()
        loop.join(timeout=10)
    finally:
        reader.close()
        writer.close()
        ours.close()
        theirs.close()
    assert not loop.is_alive()
    assert decoded == ["GLOBAL", "GLOBAL", "DONE\n"]
    by_key = {(u.client_id, u.round): u for u in answers}
    assert by_key.keys() == expected.keys()
    for key, want in expected.items():
        got = by_key[key]
        assert got.loss == want.local_loss
        assert got.values == tuple(want.params.values)


def test_client_loop_answers_a_global_of_the_wrong_count_with_error():
    # The server's TrainingError then carries the cause, not a disconnect.
    ds = _tiny_dataset()
    ids = ds.client_ids()
    cfg = TrainConfig(rounds=1, train_clients=ids[:1], test_clients=ids[1:],
                      batch_size=4, seed=3)
    client = _make_client(ds, 0, cfg)
    n_params = len(client.evaluator.param_names)
    raised = []

    def serve():
        try:
            transport._serve_clients(theirs, [client])
        except ConfigError as exc:
            raised.append(str(exc))  # not exc: its frames hold the loop's files

    ours, theirs = socket.socketpair()
    loop = threading.Thread(target=serve)
    reader, writer = ours.makefile("r"), ours.makefile("w")
    loop.start()
    try:
        writer.write(encode_global(2, np.zeros(n_params - 1)))
        writer.flush()
        ours.settimeout(10)
        answer = decode_message(reader.readline())
        loop.join(timeout=10)
    finally:
        reader.close()
        writer.close()
        ours.close()
        theirs.close()
    assert not loop.is_alive()
    assert isinstance(answer, Error)
    assert (answer.client_id, answer.round) == (ids[0], 2)
    assert f"expected {n_params} values" in answer.text
    assert len(raised) == 1


def test_client_loop_refuses_a_global_that_is_not_utf8():
    ds = _tiny_dataset()
    ids = ds.client_ids()
    cfg = TrainConfig(rounds=1, train_clients=ids[:1], test_clients=ids[1:],
                      batch_size=4, seed=3)
    client = _make_client(ds, 0, cfg)
    raised = []

    def serve():
        try:
            transport._serve_clients(theirs, [client])
        except ProtocolError as exc:
            raised.append(str(exc))

    ours, theirs = socket.socketpair()
    loop = threading.Thread(target=serve)
    loop.start()
    try:
        ours.sendall(b"GLOBAL 1 0.5\xff\n")
        loop.join(timeout=10)
    finally:
        ours.close()
        theirs.close()
    assert not loop.is_alive()
    assert raised == ["line is not UTF-8: b'GLOBAL 1 0.5\\xff\\n'"]


def test_client_loop_refuses_an_update():
    ds = _tiny_dataset()
    ids = ds.client_ids()
    cfg = TrainConfig(rounds=1, train_clients=ids[:1], test_clients=ids[1:],
                      batch_size=4, seed=3)
    client = _make_client(ds, 0, cfg)
    raised = []

    def serve():
        try:
            transport._serve_clients(theirs, [client])
        except ProtocolError as exc:
            raised.append(str(exc))

    ours, theirs = socket.socketpair()
    loop = threading.Thread(target=serve)
    loop.start()
    try:
        ours.sendall(b"UPDATE 1 c1 0.5 1.0\n")
        loop.join(timeout=10)
    finally:
        ours.close()
        theirs.close()
    assert not loop.is_alive()
    assert raised == [f"expected GLOBAL or DONE, got {Update(1, 'c1', 0.5, (1.0,))!r}"]


def _worker_cmd(*args):
    return [sys.executable, "-m", "qflsim.worker", *args]


class TestWorkerProcess:
    def test_subprocess_workers_match_in_process(self, tmp_path):
        ds = _tiny_dataset(n_clients=2, samples=8, seed=6)
        ids = ds.client_ids()
        path = tmp_path / "tiny.qfd"
        write_dataset(ds, path)
        parser = argparse.ArgumentParser()
        add_architecture_flags(parser)
        for arch_flags in ([], ["--fc"]):
            flags = parser.parse_args(arch_flags)
            arch = build_architecture(2, flags.stages, flags.readout_qubit,
                                      include_fc=flags.fc)
            cfg = TrainConfig(rounds=1, train_clients=ids[:1],
                              test_clients=ids[1:], batch_size=4, seed=12,
                              arch=arch)
            reference = run_training(ds, cfg)

            server = SocketFedServer(1, parameter_names(arch))
            host, port = server.address
            proc = subprocess.Popen(_worker_cmd(
                "--host", host, "--port", str(port),
                "--dataset", str(path), "--client-id", ids[0],
                "--seed", "12", "--batch-size", "4", *arch_flags,
            ))
            try:
                server.wait_for_clients(timeout=60)
                records = run_training(ds, cfg, transport=server)
            finally:
                server.shutdown()
                proc.wait(timeout=60)
            assert proc.returncode == 0
            assert records == reference

    def test_diverged_worker_sends_its_cause(self, tmp_path):
        # The worker answers with ERROR, so the server names the reason,
        # and still exits 4 like any training failure.
        ds = _tiny_dataset(n_clients=2, samples=8, seed=6)
        ids = ds.client_ids()
        path = tmp_path / "tiny.qfd"
        write_dataset(ds, path)
        arch = default_architecture(2)
        server = SocketFedServer(1, parameter_names(arch))
        host, port = server.address
        proc = subprocess.Popen(_worker_cmd(
            "--host", host, "--port", str(port), "--dataset", str(path),
            "--client-id", ids[0], "--lr", "1e308", "--epochs", "3",
            "--batch-size", "2",
        ), stderr=subprocess.PIPE, text=True)
        try:
            server.wait_for_clients(timeout=60)
            with pytest.raises(TrainingError, match=f"client {ids[0]} failed in round 1: "
                                                    "local training diverged"):
                server.round_trip(1, init_params(arch, 0), [ids[0]])
        finally:
            server.shutdown()
            _out, err = proc.communicate(timeout=60)
        assert proc.returncode == 4
        assert "error: local training diverged" in err
        assert "RuntimeWarning" not in err

    def test_worker_given_a_line_that_is_not_utf8_exits_4(self, tmp_path):
        ds = _tiny_dataset(n_clients=2, samples=8, seed=6)
        path = tmp_path / "tiny.qfd"
        write_dataset(ds, path)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()[:2]
            proc = subprocess.Popen(_worker_cmd(
                "--host", host, "--port", str(port), "--dataset", str(path),
                "--client-id", ds.client_ids()[0],
            ), stderr=subprocess.PIPE, text=True)
            try:
                listener.settimeout(60)
                conn, _addr = listener.accept()
                with conn:
                    conn.settimeout(60)
                    assert conn.makefile("r").readline().startswith("HELLO")
                    conn.sendall(b"GLOBAL 1 0.5\xff\n")
                    _out, err = proc.communicate(timeout=60)
            finally:
                proc.kill()  # no-op once it has exited
                proc.wait()
        assert proc.returncode == 4
        assert err.startswith("error: line is not UTF-8")

    @pytest.mark.parametrize("dataset, client_id, code, port", [
        pytest.param("tiny.qfd", "ghost", 2, "1", id="tiny.qfd-ghost-2"),
        pytest.param("missing.qfd", "client_000", 3, "1",
                     id="missing.qfd-client_000-3"),
        # An out-of-range port is refused before the dataset is read, so
        # the missing file is never reported (70000 would wrap to 4464).
        *(pytest.param("missing.qfd", "client_000", 2, port, id=f"port-{port}")
          for port in ("0", "-1", "65536", "70000")),
        # The range's ends are ports: the missing file is reported.
        pytest.param("missing.qfd", "client_000", 3, "65535", id="port-65535"),
    ])
    def test_bad_config_exit_codes(self, tmp_path, dataset, client_id, code, port):
        write_dataset(_tiny_dataset(n_clients=2, samples=8), tmp_path / "tiny.qfd")
        # Fails before connecting, so no server is needed.
        proc = subprocess.run(
            _worker_cmd("--port", port, "--dataset", str(tmp_path / dataset),
                        "--client-id", client_id),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == code
        assert proc.stderr.startswith("error: ")

    def test_flag_defaults_are_a_default_train_configs(self):
        # A worker given only the required flags trains as a TrainConfig
        # with its defaults does, on the default architecture.
        args = worker.build_parser().parse_args(
            ["--port", "5000", "--dataset", "d.qfd", "--client-id", "c"])
        cfg = TrainConfig(rounds=0, train_clients=(), test_clients=())
        assert (args.host, args.seed, args.epochs, args.batch_size,
                args.optimizer, args.lr) == (
            "127.0.0.1", cfg.seed, cfg.epochs, cfg.batch_size, cfg.opt.kind,
            cfg.opt.learning_rate)
        assert (args.stages, args.readout_qubit, args.fc) == (None, None, False)

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_worker_starts_with_one_blas_thread(self, preset, expected):
        # Importing qflsim before numpy asks OpenBLAS for one thread,
        # unless the caller chose a count.
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os, qflsim.worker\n"
             "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
             "if os.path.isdir('/proc/self/task'):\n"
             "    print(len(os.listdir('/proc/self/task')))"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        value, *threads = proc.stdout.split()
        assert value == expected
        if preset is None and sys.platform == "linux":
            assert threads == ["1"]
