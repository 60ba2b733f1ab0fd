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

A write and a read follow one rule for repeated text and keep one
structure for it: the previous sample's prefixes, entry k being its
header and first k ops, or lines, starting from the dataset's header
(``QFLCIRC v1 qubits=<n>`` as written, n from gen_config) and its empty
circuit. A sample reuses the longest run of leading ops, or lines, that
it shares with the previous sample, cuts the list to that run and
handles each op or line after it alone, appending its prefix. A write
keeps each prefix's text and renders only the ops after the shared run;
a read keeps its text and circuit and parses only the lines after it,
each once. A read parses a sample with any other header (respelt,
another qubit count, or none) whole, keeps none of its prefixes, and
refuses it unless its count is the dataset's; a gen_config count above
MAX_QUBITS seeds nothing, so each sample is refused. A line spelt as
written, one space between tokens, whose text but its angle matches a
line parsed before takes that checked op as a template: a fixed gate is
that op, a rotation a copy with its own angle (``GateOp.with_angle``).
So a read checks each kind and target set about once, not once per
sample, and a copied angle once for its form and once for finiteness.
Every generated sample is the same cluster-state head plus one RX line,
so a generated file costs one gate line per sample either way. On 30
clients x 160 samples, a file whose samples are the cluster state, an RX
and an H, so that no two heads are equal, costs two lines per sample: it
writes in about 1.25 times a generated file's time (16 against 13 ms)
and reads in about 1.25 times (28 against 22 ms), best of 9 on a 2-core
machine. A socket worker reads only its own client: it verifies the
checksum and every client header but parses only that client's samples;
the server's full read validates every sample.

A write renders, encodes, hashes and writes one client block at a time
after a placeholder checksum, which it fills in once the body is hashed,
so it holds one block's text at once: 0.2 times the file's size for a
generated 30 x 160 file, as tracemalloc counts it. A read checks the
magic and the checksum line, hashes the rest of the file in chunks and
compares the checksum before it parses any line, then reads the open
file again line by line, decoding each line as it comes. It holds one
client block's lines at a time: besides the dataset it returns, which
takes about 2.8 times the file, its peak is about 0.07 times the file on
a full read and 0.11 times on a worker's one-client read. A line that is
not UTF-8 is reported when the read reaches it, after any earlier
malformed line.
"""

import dataclasses
import hashlib
import os
import re
import tempfile
from dataclasses import dataclass
from itertools import islice
from operator import indexOf, is_
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
from .sim import GATE_ARITY, MAX_QUBITS, Circuit, GateOp, PARAMETRIZED_GATES

CIRCUIT_MAGIC = "QFLCIRC v1"
DATA_MAGIC = "QFLDATA v1"
FORMAT_VERSION = 1
_CHECKSUM_HEX = 16  # checksum characters: the first 64 bits of SHA-256


def format_angle(x: float) -> str:
    return format(float(x), ".17g")


def format_values(values) -> str:
    """A parameter vector's text, on the wire and in params_checksum."""
    return ",".join(map(format_angle, values))


def checksum_bytes(data: bytes) -> str:
    """First 64 bits of SHA-256, as 16 hex characters."""
    return hashlib.sha256(data).hexdigest()[:_CHECKSUM_HEX]


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
    header = lines[0].strip()
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
_FLOAT_FORM = _NUMBER_FORMS[float].fullmatch
_LABELS = {"0": 0, "1": 1}  # the labels parse_number reads as 0 or 1


def parse_number(token: str, kind: type = int):
    """The one number rule, for dataset files, circuit text and wire
    messages alike: ``token`` as an int or float if it has the form the
    writers emit, else ValueError. Non-finite floats pass; the readers
    that refuse them say so."""
    if not _NUMBER_FORMS[kind].fullmatch(token):
        raise ValueError(f"malformed {kind.__name__} {token!r}")
    return kind(token)


def _render_body(ds: FederatedDataset):
    """The body's text in pieces, the header lines and then one client
    block each, every line ending in its newline; a piece is rendered
    only once the one before it has been written."""
    yield (f"format_version={FORMAT_VERSION}\n"
           f"n_clients={len(ds.clients)}\n"
           f"{_gen_config_line(ds.gen_config)}\n")
    n_qubits = ds.gen_config.n_qubits
    # texts[k] is the header and the first k op lines of the previous
    # sample's ops, ';'-joined (the module docstring's rule). Ops are
    # compared by identity: equal ops can render differently (0.0, -0.0).
    # Shared ops were checked for a symbol, the only text that could hold
    # ';' or '$', when they were rendered.
    previous, texts = (), [f"{CIRCUIT_MAGIC} qubits={n_qubits}"]
    for client in ds.clients:
        if not client_id_ok(client.client_id):
            raise ConfigError(f"client id {client.client_id!r} not storable")
        lines = [
            f"client {client.client_id} {client.distribution_tag.value} "
            f"{len(client.samples)}"
        ]
        for sample in client.samples:
            if sample.prep_circuit.n_qubits != n_qubits:
                raise ConfigError(
                    f"client {client.client_id}: sample qubit count "
                    f"{sample.prep_circuit.n_qubits} does not match dataset ({n_qubits})")
            ops = sample.prep_circuit.ops
            try:
                shared = indexOf(map(is_, ops, previous), False)
            except ValueError:  # one of the two is a prefix of the other
                shared = min(len(ops), len(previous))
            del texts[shared + 1:]
            for op in ops[shared:]:
                if op.symbol is not None:
                    raise ConfigError(f"client {client.client_id}: sample circuit has a symbol")
                texts.append(f"{texts[-1]};{_op_line(op)}")
            previous = ops
            lines.append(f"s {sample.label} {texts[-1]}")
        yield "\n".join(lines) + "\n"


def write_dataset(ds: FederatedDataset, path) -> DatasetFile:
    """Write atomically (temp file, then rename) and return a summary.

    The body is rendered, hashed and written one client block at a time,
    after a placeholder checksum that is filled in once the body is
    hashed. A dataset read_dataset would refuse (a sample with a symbol
    or with a qubit count other than ``gen_config.n_qubits``) raises
    ConfigError before the target path is touched, and leaves no
    temporary file."""
    path = Path(path)
    digest = hashlib.sha256()
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(f"{DATA_MAGIC}\nchecksum=".encode("ascii"))
            checksum_at = fh.tell()
            fh.write(b"0" * _CHECKSUM_HEX + b"\n")
            for piece in _render_body(ds):
                data = piece.encode("utf-8")
                digest.update(data)
                fh.write(data)
            checksum = digest.hexdigest()[:_CHECKSUM_HEX]
            fh.seek(checksum_at)
            fh.write(checksum.encode("ascii"))
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


class _SampleReader:
    """The samples of one read's sample lines, in file order, each
    without a symbol, their circuit texts ';'-joined; each reads as
    parse_circuit reads its text, under the module docstring's rule: the
    read starts from the dataset's header, as written, and parses a
    sample with any other header whole. ``texts[k]`` is the previous
    sample's header and first k lines, each followed by its ';', and
    ``circuits[k]`` the circuit of those lines. A line after the shared
    run parses the same in any circuit with the dataset's qubit count, so
    the first line that fails is the one a whole parse reports, with the
    same error. ``fixed`` keeps a fixed gate's op by its line, spelt as
    written, and ``rotations`` a rotation's by its line but the angle. A
    token that a template's checks refuse (an angle's form or finiteness,
    a label's lookup) is parsed as a whole parse does, which raises that
    parse's error.
    """

    def __init__(self, n_qubits: int):
        self.n_qubits = n_qubits
        readable = n_qubits <= MAX_QUBITS
        self.texts = [f"{CIRCUIT_MAGIC} qubits={n_qubits};"] if readable else []
        self.circuits = [Circuit(n_qubits, ())] if readable else []
        self.fixed: dict[str, GateOp] = {}
        self.rotations: dict[str, GateOp] = {}

    def samples(self, lines, lineno: int) -> tuple[Sample, ...]:
        """The samples of ``lines``, the first on file line ``lineno``."""
        texts, circuits = self.texts, self.circuits
        fixed, rotations = self.fixed, self.rotations
        n_qubits, out = self.n_qubits, []
        for lineno, line in enumerate(lines, lineno):
            parts = line.split(" ", 2)
            if len(parts) != 3 or parts[0] != "s":
                raise DatasetFormatError(f"line {lineno}: bad sample line")
            label = _LABELS.get(parts[1])
            if label is None:
                try:
                    parse_number(parts[1])
                except ValueError:
                    raise DatasetFormatError(f"line {lineno}: bad label {parts[1]!r}") from None
                raise DatasetFormatError(f"line {lineno}: label must be 0 or 1")
            text = parts[2] + ";"  # so that the last line, too, ends as in texts
            if "$" in text:
                raise DatasetFormatError(f"line {lineno}: sample circuit has a symbol")
            k = len(texts)
            while k and not text.startswith(texts[k - 1]):
                k -= 1
            if not k:  # any header but the dataset's, as written
                circuit = parse_circuit(text[:-1].replace(";", "\n"))
                if circuit.n_qubits != n_qubits:
                    raise DatasetFormatError(
                        f"line {lineno}: sample qubit count {circuit.n_qubits} does not "
                        f"match dataset ({n_qubits})"
                    )
                out.append(Sample(circuit, label))
                continue
            del texts[k:], circuits[k:]
            circuit = circuits[-1]
            end = len(texts[-1])
            for n, op_line in enumerate(text[end:].split(";")[:-1], k + 1):
                stripped = op_line.strip()
                if stripped:
                    head, _, token = stripped.rpartition(" ")
                    op = rotations.get(head)
                    if op is not None:
                        try:
                            op = _FLOAT_FORM(token) and op.with_angle(float(token))
                        except ConfigError:  # not finite
                            op = None
                    else:
                        op = fixed.get(stripped)
                    if op is None:  # a new line, or an angle refused above
                        op = _parse_op(stripped, n, n_qubits)
                        if stripped == " ".join(stripped.split()):
                            if op.angle is None:
                                fixed[stripped] = op
                            else:
                                rotations[head] = op
                    circuit = circuit.then(op)
                end += len(op_line) + 1
                texts.append(text[:end])
                circuits.append(circuit)
            out.append(Sample(circuit, label))
        return tuple(out)


def _header_int(line: str, key: str, path) -> int:
    if not line.startswith(key + "="):
        raise DatasetFormatError(f"{path}: missing {key}")
    try:
        return parse_number(line[len(key) + 1:])
    except ValueError:
        raise DatasetFormatError(f"{path}: {key} is not an integer: {line!r}") from None


def _body_lines(path, fh):
    """Each line of the open container ``fh`` after its magic and checksum
    lines, decoded and without its newline. Both lines are checked, and
    the rest of the file hashed in chunks against the checksum, before
    the first line is yielded."""
    magic = fh.readline()
    if not magic.endswith(b"\n") or not magic.startswith(b"QFLDATA v"):
        raise DatasetFormatError(f"{path}: not a dataset container")
    magic = magic[:-1].decode("utf-8", errors="replace")
    if magic != DATA_MAGIC:
        raise DatasetVersionError(f"{path}: unsupported container {magic!r}")
    line = fh.readline()
    if not line.endswith(b"\n") or not line.startswith(b"checksum="):
        raise DatasetFormatError(f"{path}: missing checksum line")
    declared = line[len(b"checksum="):-1].decode("ascii", errors="replace")
    start, digest = fh.tell(), hashlib.sha256()
    while chunk := fh.read(1 << 16):
        digest.update(chunk)
    actual = digest.hexdigest()[:_CHECKSUM_HEX]
    if declared != actual:
        raise DatasetCorruptionError(
            f"{path}: checksum mismatch (declared {declared}, actual {actual})"
        )
    fh.seek(start)
    for line in fh:
        try:
            yield line.decode("utf-8").removesuffix("\n")
        except UnicodeDecodeError as exc:
            at = fh.tell() - len(line) - start + exc.start
            raise DatasetFormatError(
                f"{path}: body is not UTF-8 (byte {at} after the checksum line)") from None


def read_dataset(path, clients=None) -> FederatedDataset:
    """Parse and checksum-verify a container written by write_dataset.

    With ``clients``, a collection of client ids, only those clients'
    sample lines are parsed; the checksum, every header and the client
    count are still checked. Every client stays in file order, so its
    ordinal is unchanged, and the clients not named have no samples.
    """
    with open(path, "rb") as fh:
        lines = _body_lines(path, fh)
        header = list(islice(lines, 3))
        if len(header) < 3:
            raise DatasetFormatError(f"{path}: truncated body")
        version = _header_int(header[0], "format_version", path)
        if not 1 <= version <= FORMAT_VERSION:
            raise DatasetVersionError(f"{path}: format_version {version} unsupported")
        n_clients = _header_int(header[1], "n_clients", path)
        if not header[2].startswith("gen_config "):
            raise DatasetFormatError(f"{path}: missing gen_config")
        gen_config = _parse_gen_config(header[2])

        wanted = None if clients is None else set(clients)
        reader = _SampleReader(gen_config.n_qubits)
        parsed: list[ClientDataset] = []
        lineno = 5  # the file's lines: magic, checksum and the three above
        for line in lines:
            lineno += 1
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4 or parts[0] != "client":
                raise DatasetFormatError(f"line {lineno}: expected client header")
            client_id = parts[1]
            if not client_id_ok(client_id):
                raise DatasetFormatError(f"line {lineno}: bad client id {client_id!r}")
            try:
                dist = AngleDistribution(parts[2])
            except ValueError:
                raise DatasetFormatError(
                    f"line {lineno}: unknown distribution {parts[2]!r}"
                ) from None
            try:
                count = parse_number(parts[3])
            except ValueError:
                count = -1  # reported below, like a negative count
            if count < 0:
                raise DatasetFormatError(f"line {lineno}: bad sample count {parts[3]!r}")
            block = list(islice(lines, count))
            if len(block) < count:
                raise DatasetFormatError(f"{path}: truncated client {client_id}")
            keep = wanted is None or client_id in wanted
            samples = reader.samples(block, lineno + 1) if keep else ()
            parsed.append(ClientDataset(client_id, samples, dist))
            lineno += count
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
    return checksum_bytes(format_values(values).encode("ascii"))
