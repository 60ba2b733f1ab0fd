"""Line-delimited wire protocol between the server of a federated run and
its clients, socket workers and in-process helpers alike.

Messages (UTF-8 text, one per line, parameters as comma-joined decimals
with 17 significant digits, which round-trip float64 exactly):

    HELLO v<protocol> <client_id>
    GLOBAL <round> <p1,...,pP>
    UPDATE <round> <client_id> <loss> <p1,...,pP>
    ERROR <client_id> <round> <text>
    ALIVE
    DONE

This is protocol v4. A socket client connects, says HELLO, then answers
every GLOBAL broadcast with one UPDATE, or with ERROR (the reason on one
line) if its local training fails, until the server sends DONE. The
server keeps one in-flight round per connection. While connected, a
client sends ALIVE every KEEPALIVE_S seconds; the server fails the round
of a connection that sends nothing for READ_TIMEOUT_S seconds, so a hung
client is caught while a long local training is not. Both ends read lines
with one reader, whose deadline each byte restarts; a non-UTF-8 line is a
ProtocolError, and a connection closed before its HELLO is dropped.

One server runs every round, wherever its clients train: it sends GLOBAL
once on each link, trains the clients it holds in process itself, then
reads each link's answers. A link is one connection to one process; it
answers each GLOBAL with one line per client that process holds, in a
fixed order. SocketFedServer links to socket workers that said HELLO,
one client each; LocalTransport to its forked helpers, over one
socketpair per helper (so without HELLO), each running the client loop
of run_socket_client for its share of the clients. A round's ``order``
must name each client the server holds exactly once, and any other order
fails before a GLOBAL is sent; the updates come back in ``order``.
``shutdown`` sends DONE on every link and closes it.
"""

import contextlib
import multiprocessing
import os
import select
import signal
import socket
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ProtocolError, TrainingError
from .federated import ClientState, ClientUpdate, local_train
from .model import ParamVector
from .store import client_id_ok, format_angle, format_values, parse_number

PROTOCOL_VERSION = 4

# Longest wait, in seconds, for one line from a connected client.
READ_TIMEOUT_S = 300.0
# How often, in seconds, a connected client says ALIVE.
KEEPALIVE_S = 30.0
# Longest HELLO line, in bytes, that the server buffers.
HELLO_MAX_BYTES = 1024

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
    return f"GLOBAL {round_index} {format_values(values)}\n"


def encode_update(round_index: int, update: ClientUpdate) -> str:
    return (f"UPDATE {round_index} {update.client_id} {format_angle(update.local_loss)} "
            f"{format_values(update.params.values)}\n")


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
        if len(parts) != 5:
            raise ProtocolError(f"bad UPDATE: {line!r}")
        try:
            update = Update(parse_number(parts[1]), _checked_id(parts[2], line),
                            parse_number(parts[3], float), _parse_values(parts[4]))
        except ValueError:
            raise ProtocolError(f"bad UPDATE fields: {line!r}") from None
        if not np.isfinite(update.loss):
            raise ProtocolError(f"bad UPDATE loss: {line!r}")
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


class _Link:
    """One end of a connection, the server's or a client's: the only reader
    of its socket, with the bytes after the last line read in ``buffer``,
    and its writer, one line at a time within READ_TIMEOUT_S seconds.
    ``ids`` names the clients that answer on a server's link, in order."""

    def __init__(self, sock: socket.socket, ids: Sequence[str] = ()):
        sock.settimeout(READ_TIMEOUT_S)
        self.sock = sock
        self.ids = tuple(ids)
        self.buffer = b""
        self._lock = threading.Lock()

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, line: str) -> None:
        with self._lock:
            self.sock.sendall(line.encode())

    def read_line(self, idle: float | None) -> str | None:
        """The next line, newline kept: None after ``idle`` seconds (None:
        no limit) with no byte, '' at EOF, where a last line without its
        newline is dropped. A line that is not UTF-8 raises ProtocolError."""
        while not (end := self.buffer.find(b"\n") + 1):
            if not select.select([self], [], [], idle)[0]:
                return None
            sent = b""
            with contextlib.suppress(ConnectionError):
                sent = self.sock.recv(65536)
            if not sent:
                return ""
            self.buffer += sent
        line, self.buffer = self.buffer[:end], self.buffer[end:]
        try:
            return line.decode()
        except UnicodeDecodeError:
            raise ProtocolError(f"line is not UTF-8: {line!r}") from None

    def close(self):
        self.sock.close()


def _receive_update(link: _Link, cid: str, round_index: int, names) -> ClientUpdate:
    """Client ``cid``'s answer to round ``round_index``, ALIVE skipped: its
    UPDATE, or TrainingError if it sent ERROR, fell silent or disconnected."""
    msg = Alive()
    while isinstance(msg, Alive):
        try:
            raw = link.read_line(READ_TIMEOUT_S)
        except ProtocolError as exc:
            raise ProtocolError(f"client {cid} in round {round_index}: {exc}") from None
        if raw is None:
            raise TrainingError(f"client {cid} sent nothing in round {round_index} "
                                f"for {READ_TIMEOUT_S} s")
        if not raw:
            raise TrainingError(f"client {cid} disconnected in round {round_index}")
        msg = decode_message(raw)
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
    if len(msg.values) != len(names):
        raise ProtocolError(
            f"client {cid} sent {len(msg.values)} parameters in round "
            f"{round_index}, expected {len(names)}")
    return ClientUpdate(cid, ParamVector(names, np.array(msg.values)), msg.loss)


class _Server:
    """The server core of SocketFedServer and LocalTransport: links to
    clients in other processes and the clients trained in this one."""

    def __init__(self):
        self._links: list[_Link] = []
        self._own: dict[str, ClientState] = {}

    def round_trip(self, round_index: int, params: ParamVector,
                   order: list[str]) -> list[ClientUpdate]:
        """Train every client from ``params``; return their updates in
        ``order`` (see the module docstring). A client that fails raises
        TrainingError: one trained here at once, otherwise the first
        linked client that fails, links and their clients read in turn."""
        held = {cid for link in self._links for cid in link.ids} | self._own.keys()
        missing = [cid for cid in order if cid not in held]
        if missing:
            raise TrainingError(f"clients never connected: {missing}")
        counts = Counter(order)
        wrong = sorted(cid for cid in held if counts[cid] != 1)
        if wrong:
            raise ConfigError(f"round order must name each client once: {wrong}")
        line = encode_global(round_index, params.values)
        for link in self._links:  # a process gone shows when its answer is read
            with contextlib.suppress(OSError):
                link.send(line)
        updates = {}
        for cid, client in self._own.items():
            try:
                updates[cid] = local_train(client, params)
            except Exception as exc:
                raise TrainingError(
                    f"client {cid} failed in round {round_index}: {exc}") from exc
        for link in self._links:
            for cid in link.ids:
                updates[cid] = _receive_update(link, cid, round_index, params.names)
        return [updates[cid] for cid in order]

    def shutdown(self):
        """Send DONE on every link, then close it."""
        for link in self._links:
            with contextlib.suppress(OSError):
                link.send(encode_done())
            link.close()
        self._links.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


class SocketFedServer(_Server):
    """The server of socket workers; usable as a run_training transport."""

    def __init__(self, n_clients: int, param_names, host: str = "127.0.0.1",
                 port: int = 0):
        super().__init__()
        self.param_names = tuple(param_names)
        self.n_clients = n_clients
        try:  # an IPv4 address needs no name lookup, which costs memory
            socket.inet_pton(socket.AF_INET, host)
            family = socket.AF_INET
        except OSError:
            family = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)[0][0]
        self._listener = socket.create_server((host, port), family=family)
        # Accepted connections without a whole HELLO yet.
        self._pending: list[_Link] = []

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def wait_for_clients(self, timeout: float = 60.0):
        """Accept connections until every expected client said HELLO, or
        raise TimeoutError once ``timeout`` seconds have passed. A HELLO is
        read without blocking as it arrives and taken once its line is
        whole; a connection that closes first is dropped, one without a
        whole HELLO by then kept, with what it sent, for the next call."""
        deadline = time.monotonic() + timeout
        while len(self._links) < self.n_clients:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self._listener, *self._pending], [], [],
                                       max(left, 0.0))
            if not ready:
                raise TimeoutError(
                    f"{len(self._links)} of {self.n_clients} clients said HELLO "
                    f"within {timeout} s")
            for link in ready:
                if link is self._listener:
                    self._listener.settimeout(max(left, 1e-3))
                    self._pending.append(_Link(self._listener.accept()[0]))
                else:
                    self._take_hello(link)

    def _take_hello(self, link: _Link):
        """Read what a pending link has sent. Once its HELLO line is whole,
        check it and keep the link as that client's; drop a link that
        closes first, and close a refused one."""
        self._pending.remove(link)
        try:
            line = link.read_line(0)
            if line is None and len(link.buffer) < HELLO_MAX_BYTES:
                self._pending.append(link)  # not whole yet
                return
            if line == "":
                link.close()
                return
            if line is None or len(line.encode()) > HELLO_MAX_BYTES:
                raise ProtocolError(f"HELLO longer than {HELLO_MAX_BYTES} bytes")
            msg = decode_message(line)
            if not isinstance(msg, Hello):
                raise ProtocolError(f"expected HELLO, got {msg!r}")
            if msg.version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"client {msg.client_id} speaks protocol v{msg.version}, "
                    f"server expects v{PROTOCOL_VERSION}")
            if any(msg.client_id in other.ids for other in self._links):
                raise ProtocolError(f"duplicate client id {msg.client_id!r}")
        except BaseException:
            link.close()  # a rejected connection is not kept
            raise
        link.ids = (msg.client_id,)
        self._links.append(link)

    def shutdown(self):
        super().shutdown()
        for link in self._pending:
            link.close()
        self._pending.clear()
        self._listener.close()


def _serve_clients(sock: socket.socket, clients: Sequence[ClientState]) -> None:
    """The client loop: until DONE or EOF, read one GLOBAL from ``sock`` and
    answer it with one UPDATE per client, in the order given, each labelled
    with the GLOBAL's round. A local training that raises, or a GLOBAL
    whose parameter count is not the model's, is answered with ERROR, then
    raised again. One thread says ALIVE every KEEPALIVE_S seconds while the
    loop runs (a thread per training would cost a start and a join per
    client and round)."""
    link = _Link(sock)
    done = threading.Event()

    def say_alive():
        while not done.wait(KEEPALIVE_S):
            with contextlib.suppress(OSError):
                link.send(encode_alive())

    beat = threading.Thread(target=say_alive, daemon=True)
    beat.start()
    try:
        while raw := link.read_line(None):
            msg = decode_message(raw)
            if isinstance(msg, Done):
                return
            if not isinstance(msg, Global):
                raise ProtocolError(f"expected GLOBAL or DONE, got {msg!r}")
            names = clients[0].evaluator.param_names
            for client in clients:
                try:  # a GLOBAL with the wrong count fails the first client
                    update = local_train(client, ParamVector(names, msg.values))
                except Exception as exc:
                    with contextlib.suppress(OSError):
                        link.send(encode_error(client.client_id, msg.round, str(exc)))
                    raise
                link.send(encode_update(msg.round, update))
    finally:
        done.set()
        beat.join()


def run_socket_client(host: str, port: int, client: ClientState):
    """Connect to the server and answer GLOBAL broadcasts until DONE,
    training ``client`` as its TrainConfig says."""
    with socket.create_connection((host, port)) as conn:
        conn.sendall(encode_hello(client.client_id).encode())
        _serve_clients(conn, [client])


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


def _run_helper(sock: socket.socket, clients: list[ClientState],
                inherited: list[_Link], core: int | None) -> None:
    """Body of a LocalTransport helper: pin to ``core``, run the client loop."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops helpers
    for link in inherited:  # parent ends, so that EOF comes if it dies
        link.close()
    _pin_to(core)
    try:
        _serve_clients(sock, clients)
    except Exception:
        sys.exit(1)  # no traceback: a failed local training sent ERROR


class LocalTransport(_Server):
    """The server of in-process clients; usable as a run_training transport.

    On a machine with several usable cores the transport forks
    ``min(cores, clients, samples per round // MIN_SAMPLES_PER_PROCESS) - 1``
    helper processes when it is built, so none for a round too small to
    gain from them. Each inherits the prepared clients copy-on-write and
    owns a fixed round-robin share of them, optimizer state included, as a
    socket worker owns its client. One socketpair connects the parent to
    each helper, which answers each GLOBAL on it with one line per client
    of its share; the parent trains the last, smallest share itself.
    Where the platform can pin processes, each helper and then the parent
    run on one core of the parent's affinity mask, dealt round-robin, so
    no two share a core while cores last (the kernel need not move a
    forked helper off its parent's core). Pinning moves only the calling
    thread, so a BLAS thread pool started before qflsim was imported (see
    ``qflsim/__init__.py``) stays unpinned. ``shutdown`` stops the helpers
    at once, mid-round too, and gives the parent its mask back.
    """

    def __init__(self, clients: Sequence[ClientState]):
        super().__init__()
        by_id = {c.client_id: c for c in clients}
        self._helpers: list[multiprocessing.process.BaseProcess] = []
        self._parent_mask: set[int] | None = None
        ctx = (multiprocessing.get_context("fork")  # None without fork
               if "fork" in multiprocessing.get_all_start_methods() else None)
        work = sum(len(c.data.samples) * c.cfg.epochs for c in clients)
        n_processes = max(1, min(_usable_cores(), len(by_id),
                                 work // MIN_SAMPLES_PER_PROCESS) if ctx else 1)
        if n_processes < 2 or not hasattr(os, "sched_setaffinity"):
            cores = [None]  # no helper, or no pinning on this platform
        else:
            cores = sorted(os.sched_getaffinity(0))
        ids = list(by_id)
        try:
            for h in range(n_processes - 1):
                share = ids[h::n_processes]
                ours, theirs = socket.socketpair()
                self._links.append(_Link(ours, share))
                process = ctx.Process(
                    target=_run_helper, name=f"qflsim-helper-{h}", daemon=True,
                    args=(theirs, [by_id[cid] for cid in share], list(self._links),
                          cores[h % len(cores)]))
                process.start()
                theirs.close()
                self._helpers.append(process)
            if cores[0] is not None:
                self._parent_mask = os.sched_getaffinity(0)
                _pin_to(cores[(n_processes - 1) % len(cores)])
        except BaseException:
            self.shutdown()
            raise
        self._own = {cid: by_id[cid] for cid in ids[n_processes - 1::n_processes]}

    def shutdown(self):
        """Stop the helpers too; their clients, and their optimizer state,
        end with them. Then give the parent back its affinity mask."""
        super().shutdown()
        for process in self._helpers:
            process.kill()
        for process in self._helpers:
            process.join()
            process.close()
        self._helpers.clear()
        if self._parent_mask is not None:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, self._parent_mask)
            self._parent_mask = None
