"""On-disk container for federated datasets and the circuit text grammar.

Circuit grammar (one op per line, angles printed with 17 significant
digits so doubles round-trip exactly):

    QFLCIRC v1 qubits=<n>
    H <q>
    CZ <a> <b>
    CNOT <control> <target>
    RX <q> <angle|$name|-$name>     (same for RY, RZ, XX, YY, ZZ)

``$name`` references a learnable symbol; ``-$name`` is the negated
reference used by inverse rotations.

Container layout (UTF-8 text, '\\n' line endings):

    QFLDATA v1
    checksum=<16 hex chars>
    format_version=<int>
    n_clients=<int>
    gen_config <key>=<value> ...
    client <id> <distribution> <n_samples>
    s <label> <circuit with ';' in place of newlines>
    ...

The checksum is the first 64 bits (16 hex chars) of SHA-256 over every
byte after the checksum line. Clients and samples are written in dataset
order, so serializing the same dataset twice is byte-identical.

A write caches one head, the previous sample's header and every gate
line but its last: a sample with the same head ops reuses the head's
text and renders only its last gate, and a sample with another head is
rendered whole. A read reuses the parsed ops of the longest run of
leading lines, all but the last, that a sample shares with the previous
one (a sample with a new header is parsed whole) and parses each line
after it alone. A line whose tokens but its angle match a line parsed
before under the same header takes that checked op as a template: a
fixed gate is that op, a rotation a copy with its own angle
(``GateOp.with_angle``). So a read checks each kind and target set
about once, not once per sample. Every generated sample is the same
cluster-state head plus one RX line, so a generated file costs one
gate line per sample either way. On 30 clients x 160 samples, a file
whose samples are the cluster state, an RX and an H, so that no two
heads are equal, writes about 6 times slower than a generated file
but reads about as fast (2-core machine). A socket worker reads only
its own client: it verifies the checksum and every client header but
parses only that client's samples; the server's full read validates
every sample.
"""

import dataclasses
import hashlib
import operator
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .datagen import AngleDistribution, ClientDataset, FederatedDataset, GenConfig
from .errors import (
    CircuitParseError,
    ConfigError,
    DatasetCorruptionError,
    DatasetFormatError,
    DatasetVersionError,
)
from .model import Sample
from .sim import GATE_ARITY, Circuit, GateOp, PARAMETRIZED_GATES

CIRCUIT_MAGIC = "QFLCIRC v1"
DATA_MAGIC = "QFLDATA v1"
FORMAT_VERSION = 1


def format_angle(x: float) -> str:
    return format(float(x), ".17g")


def checksum_bytes(data: bytes) -> str:
    """First 64 bits of SHA-256, as 16 hex characters."""
    return hashlib.sha256(data).hexdigest()[:16]


def _angle_token(op: GateOp) -> str:
    if op.symbol is not None:
        return ("-$" if op.sign < 0 else "$") + op.symbol
    return format_angle(op.angle)


def _op_line(op: GateOp) -> str:
    parts = [op.kind] + [str(q) for q in op.targets]
    if op.kind in PARAMETRIZED_GATES:
        parts.append(_angle_token(op))
    return " ".join(parts)


def serialize_circuit(c: Circuit) -> str:
    return "\n".join([f"{CIRCUIT_MAGIC} qubits={c.n_qubits}"] + [_op_line(op) for op in c.ops])


def _parse_angle_token(token: str, lineno: int) -> tuple[float | None, str | None, int]:
    sign = 1
    if token.startswith("-$"):
        sign = -1
        token = token[1:]
    if token.startswith("$"):
        name = token[1:]
        if not name:
            raise CircuitParseError(f"line {lineno}: empty symbol name")
        return None, name, sign
    try:
        angle = parse_number(token, float)
    except ValueError:
        raise CircuitParseError(f"line {lineno}: malformed angle {token!r}") from None
    if not (angle == angle and abs(angle) != float("inf")):
        raise CircuitParseError(f"line {lineno}: non-finite angle {token!r}")
    return angle, None, 1


def parse_circuit(text: str) -> Circuit:
    """Inverse of serialize_circuit; errors carry a 1-based line number."""
    lines = text.split("\n")
    header = lines[0].strip() if lines else ""
    if not header.startswith(CIRCUIT_MAGIC + " qubits="):
        raise CircuitParseError(f"line 1: bad header {header!r}")
    try:
        n_qubits = parse_number(header[len(CIRCUIT_MAGIC + " qubits="):])
    except ValueError:
        raise CircuitParseError(f"line 1: bad qubit count in {header!r}") from None
    ops = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line:
            ops.append(_parse_op(line, lineno, n_qubits))
    try:
        return Circuit(n_qubits, tuple(ops))
    except ConfigError as exc:
        raise CircuitParseError(f"line 1: {exc}") from None


def _parse_op(line: str, lineno: int, n_qubits: int) -> GateOp:
    tokens = line.split()
    kind = tokens[0]
    if kind not in GATE_ARITY:
        raise CircuitParseError(f"line {lineno}: unknown gate {kind!r}")
    arity = GATE_ARITY[kind]
    n_tokens = 1 + arity + (1 if kind in PARAMETRIZED_GATES else 0)
    if len(tokens) != n_tokens:
        raise CircuitParseError(
            f"line {lineno}: {kind} expects {n_tokens - 1} argument(s)"
        )
    try:
        targets = tuple(map(parse_number, tokens[1:1 + arity]))
    except ValueError:
        raise CircuitParseError(f"line {lineno}: bad qubit index") from None
    angle, symbol, sign = (None, None, 1)
    if kind in PARAMETRIZED_GATES:
        angle, symbol, sign = _parse_angle_token(tokens[1 + arity], lineno)
    try:
        op = GateOp(kind, targets, angle, symbol, sign)
    except ConfigError as exc:
        raise CircuitParseError(f"line {lineno}: {exc}") from None
    if max(targets) >= n_qubits:
        raise CircuitParseError(
            f"line {lineno}: qubit out of range for qubits={n_qubits}"
        )
    return op


@dataclass(frozen=True)
class DatasetFile:
    """Summary of a written container, as returned by write_dataset."""

    path: Path
    checksum: str
    n_clients: int
    sample_counts: tuple[int, ...]


def _gen_config_line(cfg: GenConfig) -> str:
    """Every GenConfig field in declaration order as key=value: floats
    with 17 significant digits, the distribution by its value."""
    tokens = []
    for f in dataclasses.fields(GenConfig):
        value = getattr(cfg, f.name)
        if f.type is float:
            value = format_angle(value)
        tokens.append(f"{f.name}={getattr(value, 'value', value)}")
    return "gen_config " + " ".join(tokens)


def _parse_gen_config(line: str) -> GenConfig:
    """Inverse of _gen_config_line; each value is parsed by its field's
    type, numbers by the one number rule."""
    kv = {}
    for token in line.split()[1:]:
        key, sep, value = token.partition("=")
        if not sep:
            raise DatasetFormatError(f"bad gen_config token {token!r}")
        if key in kv:
            raise DatasetFormatError(f"gen_config keys: {key!r} repeated")
        kv[key] = value
    types = {f.name: f.type for f in dataclasses.fields(GenConfig)}
    if kv.keys() != types.keys():
        raise DatasetFormatError(
            f"gen_config keys: missing {sorted(types.keys() - kv.keys())}, "
            f"unknown {sorted(kv.keys() - types.keys())}")
    try:
        return GenConfig(**{
            name: parse_number(kv[name], kind) if kind in (int, float) else kind(kv[name])
            for name, kind in types.items()})
    except (ValueError, ConfigError) as exc:
        raise DatasetFormatError(f"bad gen_config line: {exc}") from None


def client_id_ok(client_id: str) -> bool:
    """The one client-id rule, for dataset files and wire messages alike:
    nonempty, letters, digits, '_' and '-'."""
    return bool(client_id) and all(
        ch.isalnum() or ch in "_-" for ch in client_id
    )


# Numbers as str(int) and format_angle write them: ASCII digits, no
# '+', '_', leading zero, whitespace or other spelling of the same value.
_NUMBER_FORMS = {
    int: re.compile(r"0|-?[1-9][0-9]*"),
    float: re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:e[+-][0-9]+)?|-?inf|nan"),
}


def parse_number(token: str, kind: type = int):
    """The one number rule, for dataset files, circuit text and wire
    messages alike: ``token`` as an int or float if it has the form the
    writers emit, else ValueError. Non-finite floats pass; the readers
    that refuse them say so."""
    if not _NUMBER_FORMS[kind].fullmatch(token):
        raise ValueError(f"malformed {kind.__name__} {token!r}")
    return kind(token)


def _render_body(ds: FederatedDataset) -> str:
    lines = [
        f"format_version={FORMAT_VERSION}",
        f"n_clients={len(ds.clients)}",
        _gen_config_line(ds.gen_config),
    ]
    n_qubits = ds.gen_config.n_qubits
    # The previous sample's ops but its last, and their text. Ops are
    # compared by identity: equal ops can render differently (0.0, -0.0).
    head, head_text = (), f"{CIRCUIT_MAGIC} qubits={n_qubits}"
    for client in ds.clients:
        if not client_id_ok(client.client_id):
            raise ConfigError(f"client id {client.client_id!r} not storable")
        lines.append(
            f"client {client.client_id} {client.distribution_tag.value} "
            f"{len(client.samples)}"
        )
        for sample in client.samples:
            if sample.prep_circuit.n_qubits != n_qubits:
                raise ConfigError(
                    f"client {client.client_id}: sample qubit count "
                    f"{sample.prep_circuit.n_qubits} does not match dataset ({n_qubits})")
            ops = sample.prep_circuit.ops
            if len(ops) - 1 != len(head) or any(map(operator.is_not, ops, head)):
                head = ops[:-1]
                head_text = serialize_circuit(Circuit(n_qubits, head))
            circ = f"{head_text}\n{_op_line(ops[-1])}" if ops else head_text
            if ";" in circ:
                raise ConfigError("circuit text may not contain ';'")
            if "$" in circ:
                raise ConfigError(f"client {client.client_id}: sample circuit has a symbol")
            lines.append(f"s {sample.label} {circ.replace(chr(10), ';')}")
    return "\n".join(lines) + "\n"


def write_dataset(ds: FederatedDataset, path) -> DatasetFile:
    """Write atomically (temp file, then rename) and return a summary. A
    dataset read_dataset would refuse (a sample with a symbol or with a
    qubit count other than ``gen_config.n_qubits``) raises ConfigError
    before anything is written."""
    path = Path(path)
    body = _render_body(ds)
    checksum = checksum_bytes(body.encode("utf-8"))
    blob = f"{DATA_MAGIC}\nchecksum={checksum}\n{body}"
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(blob)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return DatasetFile(
        path=path,
        checksum=checksum,
        n_clients=len(ds.clients),
        sample_counts=tuple(len(c.samples) for c in ds.clients),
    )


class _SampleCircuits:
    """parse_circuit over the ';'-joined circuit texts of one read's
    samples, in file order, each without a symbol; the module docstring
    gives the rule. A sample's head is the run of its leading lines that
    it reuses. Each line after it is parsed alone: a line parses the same
    in any circuit with the same qubit count, so the first line that
    fails is the one a whole parse reports, with the same error. A
    rotation copied from a template has its angle token parsed and
    checked as ``_parse_op`` does. Tokens spell each number one way, so
    the templates number at most one per kind and target set.
    """

    def __init__(self):
        self.text: str | None = None  # the previous sample's text
        self.circuit: Circuit | None = None  # and its circuit
        self.shared = 0  # its head's line count
        self.head = ""  # the head's text, each line with its ';'
        self.head_circuit: Circuit | None = None
        self.rest: list[str] = []  # its lines after the head
        self.templates: dict[tuple[str, ...], GateOp] = {}  # see _op

    def parse(self, text: str) -> Circuit:
        if self.shared and text.startswith(self.head):
            rest = text[len(self.head):].split(";")
            if rest[0] != self.rest[0]:  # else the shared run is longer
                return self._extend(text, rest)
        lines = text.split(";")
        previous = [] if self.text is None else self.text.split(";")
        shared = 0
        for line, before in zip(lines[:-1], previous):
            if line != before:
                break
            shared += 1
        if not shared:
            circuit = parse_circuit(text.replace(";", "\n"))
            self.templates.clear()  # checked for another header's qubit count
            self.text, self.circuit, self.shared = text, circuit, 0
            return circuit
        if shared != self.shared:  # else the head is the same lines
            n_ops = sum(1 for line in previous[1:shared] if line.strip())
            self.shared, self.head = shared, ";".join(lines[:shared]) + ";"
            self.head_circuit = Circuit(self.circuit.n_qubits, self.circuit.ops[:n_ops])
        return self._extend(text, lines[shared:])

    def _extend(self, text: str, rest: list[str]) -> Circuit:
        """The head's circuit and the ops of the lines after it."""
        n_qubits = self.head_circuit.n_qubits
        ops = []
        for lineno, line in enumerate(rest, start=self.shared + 1):
            line = line.strip()
            if line:
                ops.append(self._op(line, lineno, n_qubits))
        self.text, self.rest = text, rest
        self.circuit = self.head_circuit.then(*ops)
        return self.circuit

    def _op(self, line: str, lineno: int, n_qubits: int) -> GateOp:
        tokens = line.split()
        rotation = tokens[0] in PARAMETRIZED_GATES
        key = tuple(tokens[:-1] if rotation else tokens)
        template = self.templates.get(key)
        if template is None:
            template = self.templates[key] = _parse_op(line, lineno, n_qubits)
        elif rotation:
            return template.with_angle(_parse_angle_token(tokens[-1], lineno)[0])
        return template


def _parse_sample(line: str, lineno: int, n_qubits: int,
                  circuits: _SampleCircuits) -> Sample:
    parts = line.split(" ", 2)
    if len(parts) != 3 or parts[0] != "s":
        raise DatasetFormatError(f"line {lineno}: bad sample line")
    try:
        label = parse_number(parts[1])
    except ValueError:
        raise DatasetFormatError(f"line {lineno}: bad label {parts[1]!r}") from None
    if label not in (0, 1):
        raise DatasetFormatError(f"line {lineno}: label must be 0 or 1")
    if "$" in parts[2]:
        raise DatasetFormatError(f"line {lineno}: sample circuit has a symbol")
    circuit = circuits.parse(parts[2])
    if circuit.n_qubits != n_qubits:
        raise DatasetFormatError(
            f"line {lineno}: sample qubit count {circuit.n_qubits} does not "
            f"match dataset ({n_qubits})"
        )
    return Sample(circuit, label)


def _header_int(line: str, key: str, path) -> int:
    if not line.startswith(key + "="):
        raise DatasetFormatError(f"{path}: missing {key}")
    try:
        return parse_number(line[len(key) + 1:])
    except ValueError:
        raise DatasetFormatError(f"{path}: {key} is not an integer: {line!r}") from None


def read_dataset(path, clients=None) -> FederatedDataset:
    """Parse and checksum-verify a container written by write_dataset.

    With ``clients``, a collection of client ids, only those clients'
    sample lines are parsed; the checksum, every header and the client
    count are still checked. Every client stays in file order, so its
    ordinal is unchanged, and the clients not named have no samples.
    """
    raw = Path(path).read_bytes()
    head, sep, rest = raw.partition(b"\n")
    magic = head.decode("utf-8", errors="replace")
    if not sep or not magic.startswith("QFLDATA v"):
        raise DatasetFormatError(f"{path}: not a dataset container")
    if magic != DATA_MAGIC:
        raise DatasetVersionError(f"{path}: unsupported container {magic!r}")
    checksum_line, sep, body = rest.partition(b"\n")
    if not sep or not checksum_line.startswith(b"checksum="):
        raise DatasetFormatError(f"{path}: missing checksum line")
    declared = checksum_line[len(b"checksum="):].decode("ascii", errors="replace")
    actual = checksum_bytes(body)
    if declared != actual:
        raise DatasetCorruptionError(
            f"{path}: checksum mismatch (declared {declared}, actual {actual})"
        )

    try:
        lines = body.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(
            f"{path}: body is not UTF-8 (byte {exc.start} after the checksum line)"
        ) from None
    if lines[-1] == "":
        del lines[-1]  # the body's final newline ends its last line
    if len(lines) < 3:
        raise DatasetFormatError(f"{path}: truncated body")
    version = _header_int(lines[0], "format_version", path)
    if not 1 <= version <= FORMAT_VERSION:
        raise DatasetVersionError(f"{path}: format_version {version} unsupported")
    n_clients = _header_int(lines[1], "n_clients", path)
    if not lines[2].startswith("gen_config "):
        raise DatasetFormatError(f"{path}: missing gen_config")
    gen_config = _parse_gen_config(lines[2])

    wanted = None if clients is None else set(clients)
    circuits = _SampleCircuits()
    parsed: list[ClientDataset] = []
    i = 3  # reported line numbers add 3: the magic and checksum lines
    while i < len(lines):
        line = lines[i]
        if not line:
            i += 1
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] != "client":
            raise DatasetFormatError(f"line {i + 3}: expected client header")
        client_id = parts[1]
        if not client_id_ok(client_id):
            raise DatasetFormatError(f"line {i + 3}: bad client id {client_id!r}")
        try:
            dist = AngleDistribution(parts[2])
        except ValueError:
            raise DatasetFormatError(
                f"line {i + 3}: unknown distribution {parts[2]!r}"
            ) from None
        try:
            count = parse_number(parts[3])
        except ValueError:
            count = -1  # reported below, like a negative count
        if count < 0:
            raise DatasetFormatError(f"line {i + 3}: bad sample count {parts[3]!r}")
        if i + count >= len(lines):
            raise DatasetFormatError(f"{path}: truncated client {client_id}")
        samples = ()
        if wanted is None or client_id in wanted:
            samples = tuple(
                _parse_sample(lines[idx], idx + 3, gen_config.n_qubits, circuits)
                for idx in range(i + 1, i + 1 + count))
        parsed.append(ClientDataset(client_id, samples, dist))
        i += 1 + count
    if len(parsed) != n_clients:
        raise DatasetFormatError(
            f"{path}: header declares {n_clients} clients, found {len(parsed)}"
        )
    try:
        dataset = FederatedDataset(tuple(parsed), gen_config)
    except ConfigError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    unknown = sorted((wanted or set()) - set(dataset.client_ids()))
    if unknown:
        raise ConfigError(f"{path}: unknown client(s) {', '.join(unknown)}")
    return dataset


def params_checksum(values) -> str:
    """Checksum of a parameter vector's canonical decimal rendering."""
    text = ",".join(format_angle(v) for v in values)
    return checksum_bytes(text.encode("ascii"))
