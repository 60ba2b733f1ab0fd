"""Property tests of the three text inputs from outside the program:
circuit text, dataset files and wire lines. Each input gives a value or
a typed QflError, never another exception, and what parses round-trips
through its writer. Inputs are arbitrary text and valid text with a few
pieces replaced, inserted, deleted or spliced, and wire lines also
arbitrary bytes read off a socket; examples are drawn by the profile in
conftest.py."""

import socket

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, strategies as st  # noqa: E402

from qflsim.datagen import (  # noqa: E402
    AngleDistribution,
    ClientDataset,
    FederatedDataset,
    GenConfig,
    generate_federated_dataset,
)
from qflsim.errors import (  # noqa: E402
    CircuitParseError,
    DatasetFormatError,
    ProtocolError,
    QflError,
)
from qflsim.federated import ClientUpdate  # noqa: E402
from qflsim.model import ParamVector, Sample  # noqa: E402
from qflsim.sim import GATE_ARITY, PARAMETRIZED_GATES, Circuit, GateOp, cz, h, rx  # noqa: E402
from qflsim.store import (  # noqa: E402
    checksum_bytes,
    client_id_ok,
    parse_circuit,
    read_dataset,
    serialize_circuit,
    write_dataset,
)
from qflsim.transport import (  # noqa: E402
    PROTOCOL_VERSION,
    Alive,
    Done,
    Error,
    Global,
    Hello,
    Update,
    _Link,
    decode_message,
    encode_alive,
    encode_done,
    encode_error,
    encode_global,
    encode_hello,
    encode_update,
)

_ANY = st.text(max_size=40)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Numbers as the parsers meet them, valid or not.
_NUMBER = st.one_of(
    st.integers(-3, 20).map(str),
    st.floats().map(repr),
    st.sampled_from(["1e400", "-0", "1_0", "+2", "１", "0x1", ""]),
)


def _edit(text: str, sep: str, edits) -> str:
    """``text`` with its ``sep``-separated pieces edited in order; each edit
    is (operation, position, new piece)."""
    pieces = text.split(sep)
    for op, at, new in edits:
        i = at % len(pieces)
        if op == "replace":
            pieces[i] = new
        elif op == "insert":
            pieces.insert(i, new)
        elif op == "delete" and len(pieces) > 1:
            del pieces[i]
        elif op == "splice":
            j = at % (len(pieces[i]) + 1)
            pieces[i] = pieces[i][:j] + new[:3] + pieces[i][j + 1:]
    return sep.join(pieces)


def _edits(new_pieces):
    return st.lists(st.tuples(st.sampled_from(("replace", "insert", "delete", "splice")),
                              st.integers(0, 60), new_pieces), max_size=3)


def _edited(texts, sep, new_pieces):
    """Texts drawn from ``texts``, some left whole and some edited."""
    return st.builds(lambda text, edits: _edit(text, sep, edits),
                     texts, _edits(new_pieces))


# --- circuit text -----------------------------------------------------

_SYMBOL = st.text(st.characters(codec="utf-8").filter(lambda c: not c.isspace()),
                  min_size=1, max_size=4)


@st.composite
def _circuits(draw):
    n = draw(st.integers(2, 6))
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(sorted(GATE_ARITY)))
        arity = GATE_ARITY[kind]
        targets = tuple(draw(st.lists(st.integers(0, n - 1), min_size=arity,
                                      max_size=arity, unique=True)))
        if kind not in PARAMETRIZED_GATES:
            ops.append(GateOp(kind, targets))
        elif draw(st.booleans()):
            ops.append(GateOp(kind, targets, angle=draw(_FINITE)))
        else:
            ops.append(GateOp(kind, targets, symbol=draw(_SYMBOL),
                              sign=draw(st.sampled_from((1, -1)))))
    return Circuit(n, tuple(ops))


_CIRCUIT_LINE = st.lists(st.one_of(
    st.sampled_from(sorted(GATE_ARITY)), _NUMBER,
    st.sampled_from(["$a", "-$a", "$", "-$", "$$b", "--$a", "QFLCIRC", "qubits=2"]),
    st.text(max_size=4)), max_size=4).map(" ".join)


@given(st.one_of(_ANY, _edited(_circuits().map(serialize_circuit), "\n",
                               st.one_of(_CIRCUIT_LINE, _ANY))))
def test_circuit_text_parses_or_raises_typed(text):
    try:
        circuit = parse_circuit(text)
    except QflError:
        return
    assert parse_circuit(serialize_circuit(circuit)) == circuit


@given(_circuits())
def test_circuit_text_round_trips(circuit):
    assert parse_circuit(serialize_circuit(circuit)) == circuit


# --- dataset files ----------------------------------------------------

_DATASET_LINE = st.one_of(_ANY, st.sampled_from([
    "client client_000 uniform_pi 2", "client client_009 truncated_normal 0",
    "client a$b uniform_pi 0", "client client_001 uniform_pi 1",
    "s 1 QFLCIRC v1 qubits=2;H 0;CZ 0 1;RX 1 0.5", "s 0 QFLCIRC v1 qubits=3",
    "n_clients=3", "format_version=2", "gen_config n_clients=1",
]))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A scratch directory and the body (after the checksum line) of a
    valid 2-client, 2-sample dataset file."""
    root = tmp_path_factory.mktemp("fuzz")
    write_dataset(generate_federated_dataset(GenConfig(
        n_clients=2, n_qubits=2, samples_per_client=2, seed=3)), root / "base.qfd")
    return root, (root / "base.qfd").read_bytes().split(b"\n", 2)[2].decode()


@given(edits=_edits(_DATASET_LINE),
       raw=st.one_of(st.none(), st.binary(max_size=48)))
def test_dataset_bodies_read_or_raise_typed(files, edits, raw):
    root, base = files
    body = raw if raw is not None else _edit(base, "\n", edits).encode()
    path = root / "edited.qfd"
    path.write_bytes(b"QFLDATA v1\nchecksum=%s\n%s"
                     % (checksum_bytes(body).encode(), body))
    try:
        dataset = read_dataset(path)
    except QflError:
        return
    write_dataset(dataset, root / "again.qfd")
    assert read_dataset(root / "again.qfd") == dataset


# Gate lines on 2 qubits, blank ones among them.
_GATE_LINE_2Q = st.sampled_from(
    ["H 0", "H 1", "CZ 0 1", "CNOT 1 0", "RX 1 0.5", "ZZ 0 1 -2.5", "", " "])


@st.composite
def _sample_texts(draw):
    """';'-joined circuit texts as sample lines hold them, drawn from a
    few heads so that some repeat: heads with blank lines, header-only
    circuits, and texts whose last line is blank."""
    heads = draw(st.lists(st.lists(_GATE_LINE_2Q, max_size=4), min_size=1, max_size=3))
    texts = []
    for _ in range(draw(st.integers(2, 8))):
        lines = ["QFLCIRC v1 qubits=2"] + draw(st.sampled_from(heads))
        if draw(st.integers(0, 3)):  # most samples have a last line
            lines.append(draw(_GATE_LINE_2Q))
        texts.append(";".join(lines))
    return texts


# Samples with a line, "RX 1 <angle>" or the second "ZZ 0 1 <angle>",
# whose tokens but the angle match a line read before, so the reader
# copies a template.
_TEMPLATED = ["QFLCIRC v1 qubits=2;H 0;RX 1 0.5", "QFLCIRC v1 qubits=2;H 0;RX 1 0.25",
              "QFLCIRC v1 qubits=2;H 0;RX 1 -1.5", "QFLCIRC v1 qubits=2;ZZ 0 1 1;ZZ 0 1 2;H 1"]


@given(texts=_sample_texts(), at=st.integers(0, 7), last_only=st.booleans(),
       edits=_edits(st.one_of(_GATE_LINE_2Q, _CIRCUIT_LINE, _ANY).filter(
           lambda piece: "$" not in piece and "\n" not in piece)).filter(bool))
@example(texts=_TEMPLATED, at=2, last_only=True, edits=[("replace", 2, "0.5x")])
@example(texts=_TEMPLATED, at=2, last_only=True, edits=[("replace", 2, "nan")])
@example(texts=_TEMPLATED, at=2, last_only=True, edits=[("replace", 2, "1.0\t2")])
@example(texts=_TEMPLATED, at=2, last_only=True, edits=[("replace", 2, "-1.5 7")])
@example(texts=_TEMPLATED, at=3, last_only=False, edits=[("replace", 2, "ZZ 0 1 1e400")])
@example(texts=_TEMPLATED, at=3, last_only=False, edits=[("replace", 2, "ZZ 0 1 -inf")])
def test_dataset_samples_read_as_their_text_parses(files, texts, at, last_only, edits):
    # However the samples' heads repeat, each sample reads back as its
    # text parses whole; after an edit to one sample, the read raises
    # the error that parsing that sample's text raises.
    root, base = files
    i = at % len(texts)
    if last_only:  # an edit to the last line keeps the sample's head
        head, sep, last = texts[i].rpartition(";")
        texts[i] = head + sep + _edit(last, " ", edits)
    else:
        texts[i] = _edit(texts[i], ";", edits)
    header = base.split("\n")
    body = "\n".join([header[0], "n_clients=1", header[2], f"client a uniform_pi {len(texts)}"]
                     + [f"s 0 {text}" for text in texts]).encode() + b"\n"
    path = root / "samples.qfd"
    path.write_bytes(b"QFLDATA v1\nchecksum=%s\n%s"
                     % (checksum_bytes(body).encode(), body))
    try:
        expected = [parse_circuit(text.replace(";", "\n")) for text in texts]
    except CircuitParseError as exc:
        with pytest.raises(CircuitParseError) as info:
            read_dataset(path)
        assert str(info.value) == str(exc)
        return
    if any(circuit.n_qubits != 2 for circuit in expected):
        with pytest.raises(DatasetFormatError, match="sample qubit count"):
            read_dataset(path)
        return
    assert [s.prep_circuit for s in read_dataset(path).clients[0].samples] == expected


# Ops on 2 qubits; each RX is drawn afresh, so equal angles are other
# objects, and rx(q, 0.0) == rx(q, -0.0) although they render apart.
_OP_2Q = st.one_of(
    st.sampled_from([h(0), h(1), cz(0, 1)]),
    st.builds(rx, st.integers(0, 1), st.one_of(st.sampled_from([0.0, -0.0]), _FINITE)))


@st.composite
def _sample_circuits(draw):
    """2-qubit circuits, each made from the one before it: the same op
    objects, those ops and more, a prefix of them, a prefix and other
    ops, or equal ops built afresh with each zero angle's sign drawn."""
    circuits = [Circuit(2, tuple(draw(st.lists(_OP_2Q, max_size=4))))]
    for _ in range(draw(st.integers(1, 8))):
        ops = circuits[-1].ops
        step = draw(st.sampled_from(("reuse", "extend", "shorten", "diverge", "repeat")))
        cut = draw(st.integers(0, len(ops)))
        more = tuple(draw(st.lists(_OP_2Q, min_size=1, max_size=3)))
        if step == "reuse":
            circuits.append(circuits[-1] if draw(st.booleans()) else Circuit(2, ops))
        elif step == "extend":
            circuits.append(Circuit(2, ops + more))
        elif step == "shorten":
            circuits.append(Circuit(2, ops[:cut]))
        elif step == "diverge":
            circuits.append(Circuit(2, ops[:cut] + more))
        else:
            circuits.append(Circuit(2, tuple(
                rx(op.targets[0], draw(st.sampled_from([0.0, -0.0])))
                if op.angle == 0.0 else GateOp(op.kind, op.targets, op.angle)
                for op in ops)))
    return circuits


@given(circuits=_sample_circuits(), labels=st.lists(st.integers(0, 1), min_size=9, max_size=9),
       cuts=st.lists(st.integers(0, 9), max_size=2))
@example(circuits=[Circuit(2, (rx(1, 0.0),)), Circuit(2, (rx(1, -0.0),)), Circuit(2)],
         labels=[0] * 9, cuts=[])
def test_dataset_sample_lines_are_their_serialized_circuits(files, circuits, labels, cuts):
    # However a sample's ops follow the previous sample's, in one client
    # or across a client boundary, its line is its own circuit's text.
    root, _base = files
    samples = [Sample(c, label) for c, label in zip(circuits, labels)]
    bounds = [0, *sorted(min(cut, len(samples)) for cut in cuts), len(samples)]
    ds = FederatedDataset(
        tuple(ClientDataset(f"c{k}", samples[a:b], AngleDistribution.UNIFORM_PI)
              for k, (a, b) in enumerate(zip(bounds, bounds[1:]))),
        GenConfig(n_clients=len(bounds) - 1, n_qubits=2, samples_per_client=2))
    path = root / "written.qfd"
    write_dataset(ds, path)
    lines = [line for line in path.read_text().split("\n") if line.startswith("s ")]
    assert lines == [f"s {s.label} " + serialize_circuit(s.prep_circuit).replace("\n", ";")
                     for s in samples]
    assert read_dataset(path) == ds


# --- wire lines -------------------------------------------------------

_CLIENT_ID = st.text(st.one_of(st.characters(categories=("L", "N")),
                               st.sampled_from("_-")),
                     min_size=1, max_size=8).filter(client_id_ok)
_VALUES = st.lists(_FINITE, min_size=1, max_size=6).map(tuple)
# ERROR texts as encode_error writes them: one line, single spaces.
_ERROR_TEXT = st.text(min_size=1, max_size=20).map(
    lambda text: " ".join(text.split())).filter(bool)
_MESSAGE = st.one_of(
    st.builds(Hello, _CLIENT_ID, st.just(PROTOCOL_VERSION)),
    st.builds(Global, st.integers(-5, 10**6), _VALUES),
    st.builds(Update, st.integers(-5, 10**6), _CLIENT_ID, st.integers(0, 10**6),
              _FINITE, _VALUES),
    st.builds(Error, _CLIENT_ID, st.integers(-5, 10**6), _ERROR_TEXT),
    st.just(Alive()), st.just(Done()),
)


def _encode(msg) -> str:
    """The line the package's encoders write for ``msg``."""
    if isinstance(msg, Hello):
        return encode_hello(msg.client_id)
    if isinstance(msg, Global):
        return encode_global(msg.round, msg.values)
    if isinstance(msg, Update):
        names = tuple(f"p{i}" for i in range(len(msg.values)))
        return encode_update(ClientUpdate(msg.client_id, msg.round,
                                          ParamVector(names, msg.values),
                                          msg.num_samples, msg.loss))
    if isinstance(msg, Error):
        return encode_error(msg.client_id, msg.round, msg.text)
    return encode_alive() if isinstance(msg, Alive) else encode_done()


_WIRE_TOKEN = st.one_of(
    st.sampled_from(["HELLO", "GLOBAL", "UPDATE", "ERROR", "ALIVE", "DONE",
                     f"v{PROTOCOL_VERSION}", "v", "v99", "c1", "a\tb"]),
    _NUMBER, st.lists(_NUMBER, min_size=1, max_size=3).map(",".join),
    st.text(max_size=5))


@given(st.one_of(_ANY, _edited(_MESSAGE.map(_encode), " ", _WIRE_TOKEN)))
def test_wire_lines_decode_or_raise_typed(line):
    try:
        msg = decode_message(line)
    except QflError:
        return
    if not (isinstance(msg, Hello) and msg.version != PROTOCOL_VERSION):
        assert decode_message(_encode(msg)) == msg


@given(_MESSAGE)
def test_every_wire_message_round_trips(msg):
    assert decode_message(_encode(msg)) == msg


# Wire bytes: encoded messages, arbitrary text (multibyte UTF-8 too) and
# arbitrary bytes, newlines included, run together.
_WIRE_BYTES = st.lists(st.one_of(_MESSAGE.map(_encode), _ANY).map(str.encode)
                       | st.binary(max_size=40), max_size=6).map(b"".join)


def _read_all(link, idle, lines):
    """Append to ``lines`` what ``link`` reads until it waits ``idle``
    seconds for a byte or its connection ends: each line, or None for a
    line that raised ProtocolError."""
    while True:
        try:
            line = link.read_line(idle)
        except ProtocolError:
            lines.append(None)
            continue
        if not line:
            return
        lines.append(line)


@given(_WIRE_BYTES, st.lists(st.integers(0, 300), max_size=6))
def test_link_reads_each_line_as_sent_however_it_is_split(data, cuts):
    *whole, _unfinished = data.split(b"\n")
    expected = []
    for raw in whole:
        try:
            expected.append((raw + b"\n").decode())
        except UnicodeDecodeError:
            expected.append(None)
    bounds = [0, *sorted(min(cut, len(data)) for cut in cuts), len(data)]
    ours, theirs = socket.socketpair()
    link = _Link(theirs)
    lines = []
    try:
        for start, end in zip(bounds, bounds[1:]):
            ours.sendall(data[start:end])
            _read_all(link, 0, lines)  # what this piece completes
        ours.close()
        _read_all(link, 5, lines)
    finally:
        ours.close()
        link.close()
    assert lines == expected
    for line in filter(None, lines):
        try:
            decode_message(line)
        except QflError:
            pass
