"""Line-delimited wire protocol between the server of a federated run and
its clients, socket workers and in-process helpers alike.

Messages (UTF-8 text, one per line, parameters as comma-joined decimals
with 17 significant digits, which round-trip float64 exactly):

    HELLO v<protocol> <client_id>
    GLOBAL <round> <p1,...,pP>
    UPDATE <round> <client_id> <num_samples> <loss> <p1,...,pP>
    ERROR <client_id> <round> <text>
    ALIVE
    DONE

This is protocol v3. A socket client connects, says HELLO, then answers
every GLOBAL broadcast with one UPDATE, or with ERROR (the reason on one
line) if its local training fails, until the server sends DONE. The
server keeps one in-flight round per client. While connected, a client
sends ALIVE every KEEPALIVE_S seconds; the server fails the round of a
client that sends nothing for READ_TIMEOUT_S seconds, so a hung client
is caught while a long local training is not.

LocalTransport's forked helpers speak this protocol too, over one
socketpair per client registered under its id (so without HELLO), with
the client loop of run_socket_client; the parent reads their answers as
SocketFedServer reads its workers'.
"""

import contextlib
import multiprocessing
import os
import signal
import socket
import sys
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ProtocolError, TrainingError
from .federated import ClientState, ClientUpdate, local_train
from .model import ParamVector
from .store import client_id_ok, format_angle, parse_number

PROTOCOL_VERSION = 3

# Longest wait, in seconds, for one line from a connected client.
READ_TIMEOUT_S = 300.0
# How often, in seconds, a connected client says ALIVE.
KEEPALIVE_S = 30.0

# Fewest samples a round trains per process (parent or helper) for a
# helper to pay off: a helper costs a fork and its first round's
# copy-on-write faults (about 10 ms together) and a socketpair round trip
# each round, while a sample costs 20-90 us to train (2 to 8 qubits).
MIN_SAMPLES_PER_PROCESS = 500


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
class Error:
    client_id: str
    round: int
    text: str


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


def _one_line(text: str) -> str:
    """``text`` with every run of whitespace, line breaks too, one space."""
    return " ".join(text.split())


def encode_hello(client_id: str) -> str:
    return f"HELLO v{PROTOCOL_VERSION} {client_id}\n"


def encode_global(round_index: int, values) -> str:
    return f"GLOBAL {round_index} {_format_values(values)}\n"


def encode_update(update: ClientUpdate) -> str:
    return (
        f"UPDATE {update.round} {update.client_id} {update.num_samples} "
        f"{format_angle(update.local_loss)} {_format_values(update.params.values)}\n"
    )


def encode_error(client_id: str, round_index: int, text: str) -> str:
    return f"ERROR {client_id} {round_index} {_one_line(text) or 'unknown error'}\n"


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
    store.parse_number), and an ERROR text must be one nonempty line as
    encode_error writes it."""
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
    if parts[0] == "ERROR":
        fields = line.split(" ", 3)
        text = fields[3] if len(fields) == 4 else ""
        if not text or text != _one_line(text):
            raise ProtocolError(f"bad ERROR: {line!r}")
        try:
            return Error(_checked_id(fields[1], line), parse_number(fields[2]), text)
        except ValueError:
            raise ProtocolError(f"bad ERROR round: {line!r}") from None
    raise ProtocolError(f"unknown message {line!r}")


def _send(writer, line: str) -> None:
    writer.write(line)
    writer.flush()


class _Link:
    """The server's end of one client's connection: line reader and writer
    over a socket whose reads wait at most READ_TIMEOUT_S seconds."""

    def __init__(self, sock: socket.socket):
        sock.settimeout(READ_TIMEOUT_S)
        self.sock = sock
        self.reader = sock.makefile("r", encoding="utf-8", newline="\n")
        self.writer = sock.makefile("w", encoding="utf-8", newline="\n")

    def close(self):
        for closable in (self.reader, self.writer, self.sock):
            with contextlib.suppress(OSError):
                closable.close()


def _broadcast(links, round_index: int, params: ParamVector) -> None:
    """Write GLOBAL to every link; a client gone shows when its answer is read."""
    line = encode_global(round_index, params.values)
    for link in links:
        with contextlib.suppress(OSError):
            _send(link.writer, line)


def _next_message(link: _Link, cid: str, round_index: int):
    """Client ``cid``'s next message other than ALIVE."""
    while True:
        try:
            raw = link.reader.readline()
        except TimeoutError:
            raise TrainingError(
                f"client {cid} sent nothing in round {round_index} "
                f"for {link.sock.gettimeout()} s"
            ) from None
        except ConnectionError:
            raw = ""
        if not raw:
            raise TrainingError(f"client {cid} disconnected in round {round_index}")
        msg = decode_message(raw)
        if not isinstance(msg, Alive):
            return msg


def _receive_update(link: _Link, cid: str, round_index: int, names) -> ClientUpdate:
    """Client ``cid``'s answer to round ``round_index``: its UPDATE, or
    TrainingError if it sent ERROR, fell silent or disconnected."""
    msg = _next_message(link, cid, round_index)
    if not isinstance(msg, (Update, Error)):
        raise ProtocolError(f"expected UPDATE from {cid}, got {msg!r}")
    if msg.round != round_index:
        raise ProtocolError(
            f"client {cid} answered round {msg.round}, expected {round_index}"
        )
    if msg.client_id != cid:
        raise ProtocolError(f"answer from {msg.client_id!r} on {cid!r}'s connection")
    if isinstance(msg, Error):
        raise TrainingError(f"client {cid} failed in round {round_index}: {msg.text}")
    return ClientUpdate(client_id=cid, round=msg.round,
                        params=ParamVector(names, np.array(msg.values)),
                        num_samples=msg.num_samples, local_loss=msg.loss)


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
        self._conns: dict[str, _Link] = {}

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def wait_for_clients(self, timeout: float = 60.0):
        """Accept connections until every expected client said HELLO."""
        self._listener.settimeout(timeout)
        while len(self._conns) < self.n_clients:
            conn, _addr = self._listener.accept()
            link = _Link(conn)
            try:
                msg = decode_message(link.reader.readline())
                if not isinstance(msg, Hello):
                    raise ProtocolError(f"expected HELLO, got {msg!r}")
                if msg.version != PROTOCOL_VERSION:
                    raise ProtocolError(
                        f"client {msg.client_id} speaks protocol v{msg.version}, "
                        f"server expects v{PROTOCOL_VERSION}"
                    )
                if msg.client_id in self._conns:
                    raise ProtocolError(f"duplicate client id {msg.client_id!r}")
            except BaseException:
                link.close()  # a rejected connection is not kept
                raise
            self._conns[msg.client_id] = link

    def round_trip(self, round_index: int, params: ParamVector,
                   order: list[str]) -> list[ClientUpdate]:
        """Broadcast GLOBAL to every client and collect one UPDATE each, in
        ``order``; the first client in ``order`` that fails raises."""
        missing = [cid for cid in order if cid not in self._conns]
        if missing:
            raise TrainingError(f"clients never connected: {missing}")
        _broadcast([self._conns[cid] for cid in order], round_index, params)
        return [_receive_update(self._conns[cid], cid, round_index, self.param_names)
                for cid in order]

    def shutdown(self):
        for link in self._conns.values():
            with contextlib.suppress(OSError):
                _send(link.writer, encode_done())
            link.close()
        self._conns.clear()
        self._listener.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


def _serve_clients(conns: Sequence[tuple[socket.socket, ClientState]]) -> None:
    """The client loop: until DONE or EOF, read each connection's GLOBAL in
    the order given and answer it with its client's UPDATE; a round's
    GLOBAL, the same line on every connection, is decoded once. A local
    training that raises is answered with ERROR, then raised again. One
    thread says ALIVE on every connection every KEEPALIVE_S seconds while
    the loop runs (a thread per training would cost a start and a join
    per client and round)."""
    streams = [(client, sock.makefile("r", encoding="utf-8", newline="\n"),
                sock.makefile("w", encoding="utf-8", newline="\n"))
               for sock, client in conns]
    lock = threading.Lock()  # one line at a time on a connection
    done = threading.Event()

    def send(writer, line):
        with lock:
            _send(writer, line)

    def say_alive():
        while not done.wait(KEEPALIVE_S):
            for _client, _reader, writer in streams:
                with contextlib.suppress(OSError):
                    send(writer, encode_alive())

    beat = threading.Thread(target=say_alive, daemon=True)
    beat.start()
    last_raw = None
    try:
        while True:
            for client, reader, writer in streams:
                raw = reader.readline()
                if not raw:
                    return
                if raw != last_raw:  # a round's GLOBAL repeats on every connection
                    msg = decode_message(raw)
                    if isinstance(msg, Done):
                        return
                    if not isinstance(msg, Global):
                        raise ProtocolError(f"expected GLOBAL or DONE, got {msg!r}")
                    params = ParamVector(client.evaluator.param_names, np.array(msg.values))
                    last_raw = raw
                try:
                    update = local_train(client, params, msg.round)
                except Exception as exc:
                    error = encode_error(client.client_id, msg.round, str(exc))
                    with contextlib.suppress(OSError):
                        send(writer, error)
                    raise
                send(writer, encode_update(update))
    finally:
        done.set()
        beat.join()


def run_socket_client(host: str, port: int, client: ClientState):
    """Connect to the server and answer GLOBAL broadcasts until DONE,
    training ``client`` as its TrainConfig says."""
    with socket.create_connection((host, port)) as conn:
        conn.sendall(encode_hello(client.client_id).encode())
        _serve_clients([(conn, client)])


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the platform
    has one, so ``taskset`` restricts it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pin_to(core: int | None) -> None:
    """Run this process on ``core`` alone. Placement only: where the mask
    refuses it, the process stays where it was."""
    if core is not None:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {core})


def _run_helper(conns, inherited: list[_Link], core: int | None) -> None:
    """Body of a LocalTransport helper: pin to ``core``, run the client loop."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops helpers
    for link in inherited:  # parent ends, so that EOF comes if it dies
        link.close()
    _pin_to(core)
    try:
        _serve_clients(conns)
    except Exception:
        sys.exit(1)  # no traceback: a failed local training sent ERROR


class LocalTransport:
    """In-process clients behind the same ``round_trip`` as SocketFedServer.

    On a machine with several usable cores the transport forks
    ``min(cores, clients, samples per round // MIN_SAMPLES_PER_PROCESS) - 1``
    helper processes when it is built, so none for a round too small to
    gain from them. Each inherits the prepared clients copy-on-write and
    owns a fixed round-robin share of them, optimizer state included, as a
    socket worker owns its client, answering for each over a socketpair
    with the client loop of run_socket_client; the parent trains the last,
    smallest share itself. Where the platform can pin processes, each
    helper and then the parent run on one core of the parent's affinity
    mask, dealt round-robin, so no two share a core while cores last (the
    kernel need not move a forked helper off its parent's core); ``close``
    restores the parent's mask. Use it as a context manager (or call
    ``close``) to stop the helpers.
    """

    def __init__(self, clients: Sequence[ClientState]):
        by_id = {c.client_id: c for c in clients}
        self._links: dict[str, _Link] = {}
        self._helpers: list[multiprocessing.process.BaseProcess] = []
        self._parent_mask: set[int] | None = None
        ctx = (multiprocessing.get_context("fork")  # None without fork
               if "fork" in multiprocessing.get_all_start_methods() else None)
        work = sum(len(c.data.samples) * c.cfg.epochs for c in clients)
        n_processes = min(_usable_cores(), len(by_id),
                          work // MIN_SAMPLES_PER_PROCESS) if ctx else 1
        if n_processes < 2 or not hasattr(os, "sched_setaffinity"):
            cores = [None]  # no helper, or no pinning on this platform
        else:
            cores = sorted(os.sched_getaffinity(0))
        ids = list(by_id)
        try:
            for h in range(n_processes - 1):
                share = ids[h::n_processes]
                pairs = [socket.socketpair() for _ in share]
                for cid, (ours, _) in zip(share, pairs):
                    self._links[cid] = _Link(ours)
                theirs = [(sock, by_id[cid]) for cid, (_, sock) in zip(share, pairs)]
                process = ctx.Process(
                    target=_run_helper, name=f"qflsim-helper-{h}", daemon=True,
                    args=(theirs, list(self._links.values()), cores[h % len(cores)]))
                process.start()
                for sock, _client in theirs:
                    sock.close()
                self._helpers.append(process)
            if cores[0] is not None:
                self._parent_mask = os.sched_getaffinity(0)
                _pin_to(cores[(n_processes - 1) % len(cores)])
        except BaseException:
            self.close()
            raise
        self._own = {cid: c for cid, c in by_id.items() if cid not in self._links}

    def round_trip(self, round_index: int, params: ParamVector,
                   order: list[str]) -> list[ClientUpdate]:
        """Train every client of ``order``, which must name each of the
        transport's clients (a helper waits for each of its clients'
        GLOBAL in turn): GLOBAL goes to the helpers' clients, the parent
        trains its own, then the helpers' answers are read in ``order``.
        A client that fails raises TrainingError: one of the parent's
        clients at once, before any helper's answer is read, and otherwise
        the first helper client in ``order`` that fails."""
        _broadcast([self._links[cid] for cid in order if cid in self._links],
                   round_index, params)
        own = {}
        for cid in order:
            if cid in self._own:
                try:
                    own[cid] = local_train(self._own[cid], params, round_index)
                except Exception as exc:
                    raise TrainingError(
                        f"client {cid} failed in round {round_index}: {exc}") from exc
        return [own[cid] if cid in own
                else _receive_update(self._links[cid], cid, round_index, params.names)
                for cid in order]

    def close(self):
        """Stop every helper at once, mid-round too; the helpers' clients,
        and their optimizer state, end with them. Then give the parent back
        the affinity mask it had before it was pinned."""
        if self._parent_mask is not None:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, self._parent_mask)
            self._parent_mask = None
        for link in self._links.values():
            link.close()
        for process in self._helpers:
            process.kill()
        for process in self._helpers:
            process.join()
            process.close()
        self._helpers.clear()
        self._links.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
