"""Line-delimited wire protocol for running clients out of process.

Messages (UTF-8 text, one per line, parameters as comma-joined decimals
with 17 significant digits):

    HELLO v<protocol> <client_id>
    GLOBAL <round> <p1,...,pP>
    UPDATE <round> <client_id> <num_samples> <loss> <p1,...,pP>
    ALIVE
    DONE

A client connects, introduces itself with HELLO, then answers every
GLOBAL broadcast with exactly one UPDATE until the server sends DONE.
The server keeps one in-flight round per client. While it trains, a
client sends ALIVE every KEEPALIVE_S seconds; the server fails the round
of a client that sends nothing for READ_TIMEOUT_S seconds, so a hung
client is caught while a long local training is not.
"""

import socket
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError, TrainingError
from .federated import ClientState, ClientUpdate, local_train
from .model import ParamVector
from .store import client_id_ok, format_angle, parse_number

PROTOCOL_VERSION = 2

# Longest wait, in seconds, for one line from a connected client.
READ_TIMEOUT_S = 300.0
# How often, in seconds, a training client says ALIVE.
KEEPALIVE_S = 30.0


@dataclass(frozen=True)
class Hello:
    client_id: str
    version: int


@dataclass(frozen=True)
class Global:
    round: int
    values: tuple[float, ...]


@dataclass(frozen=True)
class Update:
    round: int
    client_id: str
    num_samples: int
    loss: float
    values: tuple[float, ...]


@dataclass(frozen=True)
class Alive:
    pass


@dataclass(frozen=True)
class Done:
    pass


def _format_values(values) -> str:
    return ",".join(format_angle(v) for v in values)


def _parse_values(text: str) -> tuple[float, ...]:
    try:
        values = tuple(parse_number(tok, float) for tok in text.split(","))
    except ValueError:
        raise ProtocolError(f"bad parameter list {text!r}") from None
    if not np.all(np.isfinite(values)):
        raise ProtocolError(f"non-finite parameter in {text!r}")
    return values


def encode_hello(client_id: str) -> str:
    return f"HELLO v{PROTOCOL_VERSION} {client_id}\n"


def encode_global(round_index: int, values) -> str:
    return f"GLOBAL {round_index} {_format_values(values)}\n"


def encode_update(update: ClientUpdate) -> str:
    return (
        f"UPDATE {update.round} {update.client_id} {update.num_samples} "
        f"{format_angle(update.local_loss)} {_format_values(update.params.values)}\n"
    )


def encode_alive() -> str:
    return "ALIVE\n"


def encode_done() -> str:
    return "DONE\n"


def _checked_id(client_id: str, line: str) -> str:
    if not client_id_ok(client_id):
        raise ProtocolError(f"bad client id {client_id!r}: {line!r}")
    return client_id


def decode_message(line: str):
    """Parse one protocol line into a message object; a client id and
    every number must pass the dataset files' rules (store.client_id_ok,
    store.parse_number)."""
    line = line.rstrip("\n")
    if line == "DONE":
        return Done()
    if line == "ALIVE":
        return Alive()
    parts = line.split(" ")
    if parts[0] == "HELLO":
        if len(parts) != 3 or not parts[1].startswith("v"):
            raise ProtocolError(f"bad HELLO: {line!r}")
        try:
            version = parse_number(parts[1][1:])
        except ValueError:
            raise ProtocolError(f"bad HELLO version: {line!r}") from None
        return Hello(_checked_id(parts[2], line), version)
    if parts[0] == "GLOBAL":
        if len(parts) != 3:
            raise ProtocolError(f"bad GLOBAL: {line!r}")
        try:
            return Global(parse_number(parts[1]), _parse_values(parts[2]))
        except ValueError:
            raise ProtocolError(f"bad GLOBAL round: {line!r}") from None
    if parts[0] == "UPDATE":
        if len(parts) != 6:
            raise ProtocolError(f"bad UPDATE: {line!r}")
        try:
            update = Update(parse_number(parts[1]), _checked_id(parts[2], line),
                            parse_number(parts[3]), parse_number(parts[4], float),
                            _parse_values(parts[5]))
        except ValueError:
            raise ProtocolError(f"bad UPDATE fields: {line!r}") from None
        if update.num_samples < 0 or not np.isfinite(update.loss):
            raise ProtocolError(f"bad UPDATE sample count or loss: {line!r}")
        return update
    raise ProtocolError(f"unknown message {line!r}")


class SocketFedServer:
    """Server side of the wire protocol; usable as a run_training transport.

    Every read from an accepted connection waits at most READ_TIMEOUT_S
    seconds, so a hung client fails its round instead of blocking it.
    """

    def __init__(self, n_clients: int, param_names, host: str = "127.0.0.1",
                 port: int = 0):
        self.param_names = tuple(param_names)
        self.n_clients = n_clients
        self._listener = socket.create_server((host, port))
        self._conns: dict[str, tuple] = {}

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def wait_for_clients(self, timeout: float = 60.0):
        """Accept connections until every expected client said HELLO."""
        self._listener.settimeout(timeout)
        while len(self._conns) < self.n_clients:
            conn, _addr = self._listener.accept()
            conn.settimeout(READ_TIMEOUT_S)
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            writer = conn.makefile("w", encoding="utf-8", newline="\n")
            msg = decode_message(reader.readline())
            if not isinstance(msg, Hello):
                raise ProtocolError(f"expected HELLO, got {msg!r}")
            if msg.version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"client {msg.client_id} speaks protocol v{msg.version}, "
                    f"server expects v{PROTOCOL_VERSION}"
                )
            if msg.client_id in self._conns:
                raise ProtocolError(f"duplicate client id {msg.client_id!r}")
            self._conns[msg.client_id] = (conn, reader, writer)

    def round_trip(self, round_index: int, params: ParamVector,
                   order: list[str]) -> list[ClientUpdate]:
        """Broadcast GLOBAL to every client and collect one UPDATE each."""
        missing = [cid for cid in order if cid not in self._conns]
        if missing:
            raise TrainingError(f"clients never connected: {missing}")
        line = encode_global(round_index, params.values)
        for cid in order:
            _conn, _reader, writer = self._conns[cid]
            writer.write(line)
            writer.flush()
        updates = []
        for cid in order:
            msg = self._next_message(cid, round_index)
            if not isinstance(msg, Update):
                raise ProtocolError(f"expected UPDATE from {cid}, got {msg!r}")
            if msg.round != round_index:
                raise ProtocolError(
                    f"client {cid} answered round {msg.round}, expected {round_index}"
                )
            if msg.client_id != cid:
                raise ProtocolError(
                    f"update from {msg.client_id!r} on {cid!r}'s connection"
                )
            updates.append(ClientUpdate(
                client_id=msg.client_id,
                round=msg.round,
                params=ParamVector(self.param_names, np.array(msg.values)),
                num_samples=msg.num_samples,
                local_loss=msg.loss,
            ))
        return updates

    def _next_message(self, cid: str, round_index: int):
        """The client's next message other than ALIVE."""
        conn, reader, _writer = self._conns[cid]
        while True:
            try:
                raw = reader.readline()
            except TimeoutError:
                raise TrainingError(
                    f"client {cid} sent nothing in round {round_index} "
                    f"for {conn.gettimeout()} s"
                ) from None
            if not raw:
                raise TrainingError(f"client {cid} disconnected mid-round")
            msg = decode_message(raw)
            if not isinstance(msg, Alive):
                return msg

    def shutdown(self):
        for _conn, _reader, writer in self._conns.values():
            try:
                writer.write(encode_done())
                writer.flush()
            except OSError:
                pass
        for conn, reader, writer in self._conns.values():
            for closable in (reader, writer, conn):
                try:
                    closable.close()
                except OSError:
                    pass
        self._conns.clear()
        self._listener.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


def _say_alive(writer, stop: threading.Event):
    """Write ALIVE every KEEPALIVE_S seconds until ``stop`` is set."""
    while not stop.wait(KEEPALIVE_S):
        try:
            writer.write(encode_alive())
            writer.flush()
        except OSError:
            return


def run_socket_client(host: str, port: int, client: ClientState):
    """Connect to the server and answer GLOBAL broadcasts until DONE,
    training ``client`` as its TrainConfig says."""
    with socket.create_connection((host, port)) as conn:
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        writer = conn.makefile("w", encoding="utf-8", newline="\n")
        writer.write(encode_hello(client.client_id))
        writer.flush()
        while True:
            raw = reader.readline()
            if not raw:
                return
            msg = decode_message(raw)
            if isinstance(msg, Done):
                return
            if not isinstance(msg, Global):
                raise ProtocolError(f"expected GLOBAL or DONE, got {msg!r}")
            global_params = ParamVector(
                client.evaluator.param_names, np.array(msg.values)
            )
            stop = threading.Event()
            beat = threading.Thread(target=_say_alive, args=(writer, stop),
                                    daemon=True)
            beat.start()
            try:
                update = local_train(client, global_params, msg.round)
            finally:
                stop.set()
                beat.join()
            writer.write(encode_update(update))
            writer.flush()
