"""Circuit text grammar and the dataset container round trip."""

import gc
import hashlib
import math
import operator
import os
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from qflsim import store
from qflsim.datagen import (
    AngleDistribution,
    ClientDataset,
    FederatedDataset,
    GenConfig,
    generate_federated_dataset,
)
from qflsim.errors import (
    CircuitParseError,
    ConfigError,
    DatasetCorruptionError,
    DatasetFormatError,
    DatasetVersionError,
    QflError,
)
from qflsim.model import Sample
from qflsim.sim import Circuit, GateOp, cz, h, rx, ry, rz
from qflsim.store import (
    checksum_bytes,
    parse_circuit,
    read_dataset,
    serialize_circuit,
    write_dataset,
)


def _tiny_dataset(n_clients=2, samples=16, seed=1):
    return generate_federated_dataset(
        GenConfig(n_clients=n_clients, samples_per_client=samples, seed=seed))


def _rewrite_body(path, edit):
    """Apply ``edit`` to the body after the checksum line and re-sign it,
    so only parsing can reject the file."""
    magic, _checksum, body = path.read_bytes().split(b"\n", 2)
    edited = edit(body)
    assert edited != body
    path.write_bytes(magic + b"\nchecksum=" + checksum_bytes(edited).encode() + b"\n" + edited)


def _edit_sample(body, index, old, new):
    """``body`` with the first ``old`` in its ``index``-th sample line replaced."""
    lines = body.split(b"\n")
    at = [i for i, line in enumerate(lines) if line.startswith(b"s ")][index]
    lines[at] = lines[at].replace(old, new, 1)
    return b"\n".join(lines)


def _traced(fn):
    """``fn()``, the peak of the memory it allocated as tracemalloc
    traces it, and the part of that memory still held on return."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


class TestSerializeCircuit:
    def test_single_hadamard(self):
        assert serialize_circuit(Circuit(1, (h(0),))) == "QFLCIRC v1 qubits=1\nH 0"

    def test_angle_printed_with_17_digits(self):
        text = serialize_circuit(Circuit(4, (rx(3, math.pi),)))
        assert text.split("\n")[1] == "RX 3 3.1415926535897931"

    def test_symbolic_and_negated_references(self):
        circuit = Circuit(2, (ry(0, symbol="c0_1"), rz(1, symbol="c0_1", sign=-1)))
        lines = serialize_circuit(circuit).split("\n")
        assert lines[1] == "RY 0 $c0_1"
        assert lines[2] == "RZ 1 -$c0_1"

    def test_round_trip_many_random_circuits(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            circuit = oracles.random_circuit(rng, n, int(rng.integers(0, 9)))
            assert parse_circuit(serialize_circuit(circuit)) == circuit

    def test_round_trip_symbolic_circuit(self):
        circuit = Circuit(3, (h(0), rx(1, symbol="a"), ry(2, symbol="b", sign=-1),
                              cz(0, 2), rz(0, 0.123456789012345)))
        assert parse_circuit(serialize_circuit(circuit)) == circuit

    @pytest.mark.parametrize("name", ["", "a b", "a\tb", "a\n", " a"])
    def test_symbol_circuit_text_cannot_carry_is_refused(self, name):
        # Written as "RX 0 $a b" or "RX 0 $", the name would not read back.
        with pytest.raises(ConfigError, match="symbol must be a nonempty name"):
            rx(0, symbol=name)

    def test_accepted_symbol_names_round_trip(self):
        for name in ("c0_14", "$a", "x-1", "\u03b8"):
            circuit = Circuit(1, (rx(0, symbol=name), ry(0, symbol=name, sign=-1)))
            assert parse_circuit(serialize_circuit(circuit)) == circuit

    def test_angles_survive_bit_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            angle = float(rng.uniform(-10, 10))
            restored = parse_circuit(serialize_circuit(Circuit(1, (rx(0, angle),))))
            assert restored.ops[0].angle == angle


class TestParseCircuit:
    def test_minimal(self):
        assert parse_circuit("QFLCIRC v1 qubits=1\nH 0") == Circuit(1, (h(0),))

    def test_qubit_out_of_range_reports_line(self):
        with pytest.raises(CircuitParseError, match="line 2"):
            parse_circuit("QFLCIRC v1 qubits=2\nH 5")

    def test_unknown_gate(self):
        with pytest.raises(CircuitParseError, match="QZ"):
            parse_circuit("QFLCIRC v1 qubits=1\nQZ 0")

    def test_bad_arity(self):
        with pytest.raises(CircuitParseError, match="line 2"):
            parse_circuit("QFLCIRC v1 qubits=2\nCZ 0")

    def test_malformed_angle(self):
        with pytest.raises(CircuitParseError, match="angle"):
            parse_circuit("QFLCIRC v1 qubits=1\nRX 0 abc")

    @pytest.mark.parametrize("text", [
        "QFLCIRC v1 qubits=+2\nH 0",
        "QFLCIRC v1 qubits=2\nH \u0661",
        "QFLCIRC v1 qubits=2\nCZ 0 01",
        "QFLCIRC v1 qubits=2\nRX 0 1_0",
        "QFLCIRC v1 qubits=2\nRX 0 .5",
        "QFLCIRC v1 qubits=2\nRX 0 Infinity",
    ])
    def test_numbers_only_in_the_written_form(self, text):
        # One number rule: other spellings that int() and float() take
        # are refused.
        with pytest.raises(CircuitParseError):
            parse_circuit(text)

    def test_non_finite_angle(self):
        for token in ("nan", "inf", "-inf"):
            with pytest.raises(CircuitParseError, match=f"^line 2: non-finite angle '{token}'$"):
                parse_circuit(f"QFLCIRC v1 qubits=1\nRX 0 {token}")

    def test_bad_header(self):
        with pytest.raises(CircuitParseError, match="line 1"):
            parse_circuit("CIRCUIT qubits=1\nH 0")

    def test_empty_symbol_name(self):
        with pytest.raises(CircuitParseError, match="^line 2: empty symbol name$"):
            parse_circuit("QFLCIRC v1 qubits=1\nRX 0 $")

    def test_duplicate_targets_rejected(self):
        with pytest.raises(CircuitParseError, match="line 2"):
            parse_circuit("QFLCIRC v1 qubits=2\nCZ 1 1")

    @pytest.mark.parametrize("text, message", [
        ("QFLCIRC v1 qubits=0", "line 1: n_qubits must be in [1, 16], got 0"),
        ("QFLCIRC v1 qubits=17", "line 1: n_qubits must be in [1, 16], got 17"),
        ("QFLCIRC v1 qubits=2\nH -1", "line 2: negative qubit index in (-1,)"),
    ])
    def test_bad_qubit_count_or_index_names_its_line(self, text, message):
        with pytest.raises(CircuitParseError, match=f"^{re.escape(message)}$"):
            parse_circuit(text)

    def test_read_reports_the_line_of_a_bad_gate_after_repeats(self, tmp_path):
        # The third sample's CZ 7 0 (circuit line 17) becomes CZ 7 7, after
        # two samples whose lines were all parsed already.
        path = tmp_path / "data.qfd"
        write_dataset(_tiny_dataset(), path)
        _rewrite_body(path, lambda body: _edit_sample(body, 2, b";CZ 7 0;", b";CZ 7 7;"))
        with pytest.raises(CircuitParseError, match="line 17: CZ targets must be distinct"):
            read_dataset(path)

    def test_read_reports_the_line_of_a_bad_gate_in_the_last_sample(self, tmp_path):
        # The last of 32 samples, after 31 that share its head, turns its
        # H 3 (circuit line 5) into H 9.
        path = tmp_path / "data.qfd"
        write_dataset(_tiny_dataset(), path)
        _rewrite_body(path, lambda body: _edit_sample(body, 31, b";H 3;", b";H 9;"))
        with pytest.raises(CircuitParseError,
                           match="^line 5: qubit out of range for qubits=8$"):
            read_dataset(path)

    @pytest.mark.parametrize("old,new,error", [
        (b";RX 5 ", b";RX 9 ", "^line 18: qubit out of range for qubits=8$"),
        (b";RX 5 ", b";RX 5 x", "^line 18: malformed angle 'x"),
    ], ids=["target", "angle"])
    def test_read_reports_a_bad_last_line_after_its_head_repeats(
            self, tmp_path, old, new, error):
        # The sixth sample's RX line (circuit line 18) goes bad after five
        # samples with the same 17 lines before it.
        path = tmp_path / "data.qfd"
        write_dataset(_tiny_dataset(), path)
        _rewrite_body(path, lambda body: _edit_sample(body, 5, old, new))
        with pytest.raises(CircuitParseError, match=error):
            read_dataset(path)

    @pytest.mark.parametrize("where,token", [
        *[("angle", t) for t in ["+1.5", "01.5", ".5", "1.", "1E+05", "1e5", "1_5",
                                 "inf", "nan"]],
        *[("label", t) for t in ["01", "+1", "1.0", "2"]],
    ])
    def test_a_templated_line_keeps_the_number_rule(self, tmp_path, where, token):
        # Sample 8's RX 0 line (circuit line 18) follows a head that
        # repeats sample 7's and a template from sample 0, so it is parsed
        # alone from that template. A token spelt otherwise than the
        # writers write it fails there as it does in sample 0, the file's
        # first sample, which is parsed whole; only the file line differs.
        def edit(line):
            if where == "label":
                return b"s " + token.encode() + b" " + line.split(b" ", 2)[2]
            return line.rpartition(b" ")[0] + b" " + token.encode()

        def error(index):
            path = tmp_path / f"{index}.qfd"
            write_dataset(_tiny_dataset(), path)

            def edit_sample(body):
                lines = body.split(b"\n")
                at = [i for i, line in enumerate(lines) if line.startswith(b"s ")][index]
                lines[at] = edit(lines[at])
                return b"\n".join(lines)

            _rewrite_body(path, edit_sample)
            with pytest.raises(QflError) as info:
                read_dataset(path)
            return type(info.value), str(info.value)

        whole_type, whole = error(0)
        if where == "label":
            assert whole.startswith("line 7: ")
            whole = "line 15: " + whole.removeprefix("line 7: ")
        else:
            assert whole.startswith("line 18: ")
        assert error(8) == (whole_type, whole)

    def test_read_takes_templates_only_from_lines_spelt_as_written(self, tmp_path):
        # "RX 1\t0.5" is a valid line, but its text before the last space
        # is "RX 1\t", not its kind and targets: "RX 0.25" after it is
        # still short of a target.
        samples = tuple(Sample(Circuit(2, (h(0), rx(1, 0.5))), 0) for _ in range(2))
        ds = FederatedDataset(
            (ClientDataset("a", samples, AngleDistribution.UNIFORM_PI),),
            GenConfig(n_clients=1, n_qubits=2, samples_per_client=2))
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        _rewrite_body(path, lambda body: _edit_sample(
            _edit_sample(body, 0, b"RX 1 0.5", b"RX 1\t0.5"), 1, b"RX 1 0.5", b"RX 0.25"))
        with pytest.raises(CircuitParseError, match="^line 3: RX expects 2 argument"):
            read_dataset(path)
        _rewrite_body(path, lambda body: _edit_sample(body, 1, b"RX 0.25", b"RX 1 0.25"))
        back = read_dataset(path)
        assert [s.prep_circuit.ops[-1].angle for s in back.clients[0].samples] == [0.5, 0.25]

    def test_read_reports_a_bad_gate_before_a_bad_qubit_count(self, tmp_path):
        # A circuit's qubit count is checked after its gate lines, so the
        # fourth sample's malformed RX angle (line 18) is reported, not
        # its header's qubits=17.
        path = tmp_path / "data.qfd"
        write_dataset(_tiny_dataset(), path)
        _rewrite_body(path, lambda body: _edit_sample(
            _edit_sample(body, 3, b"qubits=8", b"qubits=17"), 3, b";RX 3 ", b";RX 3 x"))
        with pytest.raises(CircuitParseError, match="^line 18: malformed angle 'x"):
            read_dataset(path)

    def test_read_hand_built_samples_whose_gates_change_each_sample(self, tmp_path):
        # Every sample's gate sequence differs from the one before, some
        # only in their last gate, one has no gate at all.
        base = (h(0), h(1), cz(0, 1))
        circuits = [
            Circuit(2, base + (rx(0, 0.5),)), Circuit(2, base),
            Circuit(2, base + (rx(1, 0.5),)), Circuit(2, base + (rx(1, -0.5),)),
            Circuit(2, (rx(1, -0.5),) + base), Circuit(2),
            Circuit(2, (h(1),)), Circuit(2, (h(0),)), Circuit(2, base[:2]),
            Circuit(2, base[::-1]), Circuit(2, base + (rx(0, 0.5),)),
        ]
        samples = tuple(Sample(c, k % 2) for k, c in enumerate(circuits))
        ds = FederatedDataset(
            (ClientDataset("a", samples, AngleDistribution.UNIFORM_PI),
             ClientDataset("b", samples[-2::-1], AngleDistribution.UNIFORM_PI)),
            GenConfig(n_clients=2, n_qubits=2, samples_per_client=2))
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        assert read_dataset(path) == ds

    def test_write_renders_a_head_that_differs_only_in_a_zero_sign(self, tmp_path):
        # rx(0, 0.0) == rx(0, -0.0), but they render as "0" and "-0".
        samples = tuple(Sample(Circuit(2, (rx(0, zero), h(1))), 0) for zero in (0.0, -0.0))
        ds = FederatedDataset(
            (ClientDataset("a", samples, AngleDistribution.UNIFORM_PI),),
            GenConfig(n_clients=1, n_qubits=2, samples_per_client=2))
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        signs = [math.copysign(1.0, s.prep_circuit.ops[0].angle)
                 for s in read_dataset(path).clients[0].samples]
        assert signs == [1.0, -1.0]

    def test_read_skips_a_blank_last_line_after_its_head_repeats(self, tmp_path):
        samples = tuple(Sample(Circuit(2, (h(0), cz(0, 1))), 0) for _ in range(4))
        ds = FederatedDataset(
            (ClientDataset("a", samples, AngleDistribution.UNIFORM_PI),),
            GenConfig(n_clients=1, n_qubits=2, samples_per_client=2))
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        _rewrite_body(path, lambda body: body.replace(b";CZ 0 1\n", b";CZ 0 1; \n"))
        assert read_dataset(path) == ds

    def test_read_checks_the_header_after_a_header_only_sample(self, tmp_path):
        # A header-only text has no head: the next sample's text, whose
        # part before its last ';' is empty, is parsed whole.
        samples = tuple(Sample(Circuit(2), 0) for _ in range(2))
        ds = FederatedDataset(
            (ClientDataset("a", samples, AngleDistribution.UNIFORM_PI),),
            GenConfig(n_clients=1, n_qubits=2, samples_per_client=2))
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        _rewrite_body(path, lambda body: _edit_sample(body, 1, b"QFLCIRC v1 qubits=2", b";H 0"))
        with pytest.raises(CircuitParseError, match="^line 1: bad header ''$"):
            read_dataset(path)

    def test_read_strips_gate_lines_and_skips_blank_ones(self, tmp_path):
        # Surrounding blanks and an empty circuit line, in a sample after
        # one that parsed the plain lines, read back to the same dataset.
        ds = _tiny_dataset()
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        _rewrite_body(path, lambda body: _edit_sample(
            body, 1, b";H 7;CZ 0 1;", b"; H 7;;\tCZ 0 1  ;"))
        assert read_dataset(path) == ds

    def test_read_checks_a_repeated_line_against_each_qubit_count(self, tmp_path):
        # H 2 is valid in the first sample (qubits=8) and out of range in
        # the second once its header says qubits=2.
        path = tmp_path / "data.qfd"
        write_dataset(_tiny_dataset(), path)
        _rewrite_body(path, lambda body: _edit_sample(body, 1, b"qubits=8", b"qubits=2"))
        with pytest.raises(CircuitParseError, match="line 4: qubit out of range for qubits=2"):
            read_dataset(path)

    @pytest.mark.parametrize("circuit,message", [
        (b"QFLCIRC v1 qubits=17;H 16", "line 1: n_qubits must be in [1, 16], got 17"),
        (b"QFLCIRC v1 qubits=17;H 16;RX 0 x", "line 3: malformed angle 'x'"),
    ], ids=["count", "gate-first"])
    def test_a_count_no_circuit_has_reads_only_without_samples(
            self, tmp_path, circuit, message):
        # GenConfig allows n_qubits=17, which Circuit refuses: such a file
        # reads while it holds no sample. A qubits=17 sample is refused
        # with Circuit's message, after any bad gate line in it.
        ds = FederatedDataset(
            (ClientDataset("a", (), AngleDistribution.UNIFORM_PI),),
            GenConfig(n_clients=1, n_qubits=17, samples_per_client=0))
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        assert read_dataset(path) == ds
        _rewrite_body(path, lambda body: body.replace(
            b"client a uniform_pi 0\n", b"client a uniform_pi 1\ns 0 " + circuit + b"\n"))
        with pytest.raises(CircuitParseError, match=f"^{re.escape(message)}$"):
            read_dataset(path)

    def test_read_parses_a_respelt_header_whole(self, tmp_path):
        # " QFLCIRC v1 qubits=2 " is not the dataset's header as written:
        # its sample reads as parse_circuit reads its text, and the
        # canonical samples around it share their fixed-gate ops.
        samples = tuple(Sample(Circuit(2, (h(0), h(1), cz(0, 1), rx(0, a))), 0)
                        for a in (0.5, 0.25, 0.125, 0.0625))
        ds = FederatedDataset(
            (ClientDataset("a", samples, AngleDistribution.UNIFORM_PI),),
            GenConfig(n_clients=1, n_qubits=2, samples_per_client=2))
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        _rewrite_body(path, lambda body: _edit_sample(
            body, 1, b"QFLCIRC v1 qubits=2", b" QFLCIRC v1 qubits=2 "))
        text = [line for line in path.read_text().split("\n") if line.startswith("s ")][1]
        back = read_dataset(path).clients[0].samples
        assert back[1].prep_circuit == parse_circuit(text.split(" ", 2)[2].replace(";", "\n"))
        assert back == samples
        fixed = back[2].prep_circuit.ops[:3]
        for k in (0, 3):
            assert all(map(operator.is_, back[k].prep_circuit.ops[:3], fixed)), k

    def test_read_shares_each_repeated_gate(self, tmp_path):
        # Every generated sample is the same 2n cluster-state gates plus
        # its own RX, both as generated and as read back, up to the
        # largest qubit count a circuit may have.
        for n_qubits in (8, 16):
            ds = generate_federated_dataset(GenConfig(
                n_clients=3, n_qubits=n_qubits, samples_per_client=16, seed=1))
            path = tmp_path / f"{n_qubits}.qfd"
            write_dataset(ds, path)
            back = read_dataset(path)
            for dataset in (ds, back):
                samples = [s for c in dataset.clients for s in c.samples]
                ops = {id(op) for s in samples for op in s.prep_circuit.ops}
                assert len(ops) == len(samples) + 2 * n_qubits, n_qubits

    def test_negative_zero_angle_rewrites_byte_identically(self, tmp_path):
        # "-0" reads back as -0.0 whether its sample is parsed whole, its
        # RX line parsed alone or copied from a template.
        angles = [-0.0, 0.5, -0.0, -0.0, 0.0, -0.0]
        samples = tuple(Sample(Circuit(2, (h(0), h(1), cz(0, 1), rx(0, a))), 0)
                        for a in angles)
        ds = FederatedDataset(
            (ClientDataset("a", samples, AngleDistribution.UNIFORM_PI),),
            GenConfig(n_clients=1, n_qubits=2, samples_per_client=2))
        write_dataset(ds, tmp_path / "a.qfd")
        back = read_dataset(tmp_path / "a.qfd")
        write_dataset(back, tmp_path / "b.qfd")
        text = (tmp_path / "a.qfd").read_bytes()
        assert text.count(b";RX 0 -0\n") == 4
        assert (tmp_path / "b.qfd").read_bytes() == text
        assert [math.copysign(1.0, s.prep_circuit.ops[-1].angle)
                for s in back.clients[0].samples] == [math.copysign(1.0, a) for a in angles]


class TestDatasetContainer:
    def test_round_trip_equality(self, tmp_path):
        ds = _tiny_dataset()
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        assert read_dataset(path) == ds

    def test_round_trip_thirty_clients(self, tmp_path):
        ds = generate_federated_dataset(
            GenConfig(n_clients=30, samples_per_client=8, seed=3), 0.5)
        path = tmp_path / "data.qfd"
        info = write_dataset(ds, path)
        assert info.n_clients == 30
        back = read_dataset(path)
        assert back == ds
        assert back.clients[0].distribution_tag is AngleDistribution.TRUNCATED_NORMAL

    def test_generation_and_read_check_each_gate_once(self, tmp_path, monkeypatch):
        # Each RX is a copy of a checked template, so neither generating
        # nor reading a paper-scale file (4 800 samples) runs GateOp's
        # checks once per sample. Nor does reading one whose heads all
        # differ (the cluster state, an RX, then an H): no sample is parsed
        # whole, since each starts from the dataset's header, and every
        # one reuses the ops of the lines it shares with the previous one.
        hs = [h(q) for q in range(8)]
        checks = []
        check = GateOp.__post_init__

        def counted(op):
            checks.append(op.kind)
            check(op)

        whole_parses = []
        parse = store.parse_circuit

        def counted_parse(text):
            whole_parses.append(text)
            return parse(text)

        monkeypatch.setattr(GateOp, "__post_init__", counted)
        monkeypatch.setattr(store, "parse_circuit", counted_parse)
        ds = generate_federated_dataset(GenConfig(n_clients=30, seed=5))
        distinct = FederatedDataset(tuple(
            ClientDataset(c.client_id,
                          tuple(Sample(s.prep_circuit.then(hs[(k + 3) % 8]), s.label)
                                for k, s in enumerate(c.samples)),
                          c.distribution_tag)
            for c in ds.clients), ds.gen_config)
        generated = len(checks)
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        checks.clear()
        assert read_dataset(path) == ds
        # 8 H, 8 CZ and 8 RX templates, each checked once.
        assert generated <= 24 and len(checks) <= 24, (generated, len(checks))

        write_dataset(distinct, path)
        checks.clear()
        whole_parses.clear()
        back = read_dataset(path)
        assert len(checks) <= 24 and len(whole_parses) == 0, (
            len(checks), len(whole_parses))
        assert back == distinct
        samples = [s for c in back.clients for s in c.samples]
        cluster = samples[0].prep_circuit.ops[:16]
        assert all(s.prep_circuit.ops[i] is op for s in samples for i, op in enumerate(cluster))

    def test_write_renders_each_op_after_the_run_it_shares(self, tmp_path, monkeypatch):
        # A sample reuses the text of the ops it shares with the previous
        # one, so a paper-scale file whose heads all differ (the cluster
        # state, an RX, then an H) renders about two lines per sample, not
        # every line; a generated file renders one.
        rendered = []
        op_line = store._op_line

        def counted(op):
            rendered.append(op)
            return op_line(op)

        monkeypatch.setattr(store, "_op_line", counted)
        ds = generate_federated_dataset(GenConfig(n_clients=30, seed=5))
        distinct = FederatedDataset(tuple(
            ClientDataset(c.client_id,
                          tuple(Sample(s.prep_circuit.then(h((k + 3) % 8)), s.label)
                                for k, s in enumerate(c.samples)),
                          c.distribution_tag)
            for c in ds.clients), ds.gen_config)
        write_dataset(distinct, tmp_path / "distinct.qfd")
        assert len(rendered) == 18 + 2 * 4799, len(rendered)
        rendered.clear()
        write_dataset(ds, tmp_path / "generated.qfd")
        assert len(rendered) == 17 + 4799  # the first sample whole, then its RX
        assert read_dataset(tmp_path / "distinct.qfd") == distinct

    def test_golden_bytes(self, tmp_path):
        # The file format is frozen: this small mixed dataset (one
        # truncated-normal client, two uniform) writes to these exact bytes.
        ds = generate_federated_dataset(
            GenConfig(n_clients=3, n_qubits=4, samples_per_client=8, seed=11),
            non_iid_fraction=0.3)
        path = tmp_path / "golden.qfd"
        write_dataset(ds, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "4538353cbc100c933651ff3c4137242987e0ee605890c233cd4710793a8d5234")

    def test_byte_determinism(self, tmp_path):
        ds = _tiny_dataset()
        a = tmp_path / "a.qfd"
        b = tmp_path / "b.qfd"
        write_dataset(ds, a)
        write_dataset(ds, b)
        assert a.read_bytes() == b.read_bytes()

    def test_flipped_byte_detected(self, tmp_path):
        ds = _tiny_dataset()
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetCorruptionError):
            read_dataset(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "data.qfd"
        path.write_text("QFLDATA v9\nchecksum=0000000000000000\n")
        with pytest.raises(DatasetVersionError):
            read_dataset(path)

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "data.qfd"
        path.write_text("hello world\n")
        with pytest.raises(DatasetFormatError):
            read_dataset(path)

    def test_empty_dataset_round_trip(self, tmp_path):
        ds = FederatedDataset((), GenConfig(n_clients=0))
        path = tmp_path / "empty.qfd"
        info = write_dataset(ds, path)
        assert info.n_clients == 0
        back = read_dataset(path)
        assert back.clients == ()
        assert back.gen_config == ds.gen_config

    @pytest.mark.parametrize("case", ["symbol", "qubit count"])
    def test_write_refuses_what_read_refuses(self, tmp_path, case):
        # read_dataset refuses a sample circuit with a symbol or on a qubit
        # count other than the dataset's; the write refuses both before it
        # creates any file.
        if case == "symbol":
            circuit, error = Circuit(2, (h(0), rx(1, symbol="a"))), "sample circuit has a symbol"
        else:
            circuit, error = Circuit(3, (h(0),)), "sample qubit count 3 does not match dataset \\(2\\)"
        good = Sample(Circuit(2, (h(0), rx(1, 0.5))), 1)
        ds = FederatedDataset(
            (ClientDataset("a", (good,), AngleDistribution.UNIFORM_PI),
             ClientDataset("b", (Sample(circuit, 0),), AngleDistribution.UNIFORM_PI)),
            GenConfig(n_clients=2, n_qubits=2, samples_per_client=2))
        with pytest.raises(ConfigError, match=error):
            write_dataset(ds, tmp_path / "data.qfd")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("client_id, circuit, error", [
        ("a b", Circuit(2, (h(0),)), "client id 'a b' not storable"),
        ("b", Circuit(2, (h(0), rx(1, symbol="a;b"))), "sample circuit has a symbol"),
    ])
    def test_write_refuses_a_later_client_or_symbol(self, tmp_path, client_id, circuit, error):
        # The refusal comes after a first client has been rendered, and
        # before any file exists; a symbol is refused whatever its name
        # holds, a ';' included.
        good = Sample(Circuit(2, (h(0), rx(1, 0.5))), 1)
        ds = FederatedDataset(
            (ClientDataset("a", (good, good), AngleDistribution.UNIFORM_PI),
             ClientDataset(client_id, (Sample(circuit, 0),), AngleDistribution.UNIFORM_PI)),
            GenConfig(n_clients=2, n_qubits=2, samples_per_client=2))
        with pytest.raises(ConfigError, match=error):
            write_dataset(ds, tmp_path / "data.qfd")
        assert list(tmp_path.iterdir()) == []

    def test_temporary_file_is_made_beside_the_target(self, tmp_path, monkeypatch):
        # The rename is atomic only within one file system, so the
        # temporary file goes in the target's directory, also for a bare
        # file name.
        made = []
        mkstemp = store.tempfile.mkstemp

        def recording(**kwargs):
            fd, name = mkstemp(**kwargs)
            made.append(name)
            return fd, name

        monkeypatch.setattr(store.tempfile, "mkstemp", recording)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        for target in ("data.qfd", tmp_path / "sub" / "data.qfd"):
            write_dataset(_tiny_dataset(), target)
        assert [os.path.dirname(os.path.abspath(name)) for name in made] == [
            str(tmp_path), str(tmp_path / "sub")]
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "data.qfd", "data.qfd", "sub"]

    def test_labels_and_angles_bit_exact(self, tmp_path):
        ds = _tiny_dataset(seed=17)
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        back = read_dataset(path)
        for ca, cb in zip(ds.clients, back.clients):
            for sa, sb in zip(ca.samples, cb.samples):
                assert sa.label == sb.label
                assert sa.prep_circuit == sb.prep_circuit

    def test_gen_config_floats_round_trip(self, tmp_path):
        cfg = GenConfig(n_clients=1, samples_per_client=8,
                        trunc_normal_sigma=1.2345678901234567,
                        excitation_threshold=0.9876543210987654, seed=123)
        ds = generate_federated_dataset(cfg)
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        assert read_dataset(path).gen_config == cfg

    def test_client_count_mismatch_detected(self, tmp_path):
        ds = _tiny_dataset()
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        text = path.read_text()
        # Drop the last client block but fix the checksum so only the
        # header/body count check can catch it.
        head, body = text.split("\n", 2)[0], text.split("\n", 2)[2]
        lines = body.split("\n")
        cut = next(i for i in range(len(lines) - 1, -1, -1)
                   if lines[i].startswith("client "))
        new_body = "\n".join(lines[:cut]) + "\n"
        from qflsim.store import checksum_bytes
        blob = f"{head}\nchecksum={checksum_bytes(new_body.encode())}\n{new_body}"
        path.write_text(blob)
        with pytest.raises(DatasetFormatError):
            read_dataset(path)

    @pytest.mark.parametrize("old,new,error", [
        (b"format_version=1\n", b"format_version=one\n", DatasetFormatError),
        (b"n_clients=2\n", b"n_clients=2.0\n", DatasetFormatError),
        (b"client_000 uniform_pi 16\n", b"client_000 uniform_pi 1e1\n",
         DatasetFormatError),
        (b"n_clients=2\n", b"n_clients=2\n\xff\xfe\n", DatasetFormatError),
        (b"client_000 uniform_pi 16\n", b"client_000 uniform_pi -1\n",
         DatasetFormatError),
        (b"client_001 uniform_pi 16\n", b"client_001 uniform_pi -2\n",
         DatasetFormatError),
        (b"client_001 uniform_pi 16\n", b"client_001 uniform_pi -3\n",
         DatasetFormatError),
        (b"format_version=1\n", b"format_version=0\n", DatasetVersionError),
        (b"format_version=1\n", b"format_version=-1\n", DatasetVersionError),
        (b";RX 0 ", b";RX 0 $t;RX 0 ", DatasetFormatError),
        (b" seed=", b" colour=red seed=", DatasetFormatError),
        (b" n_qubits=8 ", b" ", DatasetFormatError),
        (b"client_001 uniform_pi", b"client_0$1 uniform_pi", DatasetFormatError),
        (b" seed=", b" seed=1 seed=", DatasetFormatError),
        (b"client_000 uniform_pi 16\n", b"client_000 uniform_pi 1_6\n",
         DatasetFormatError),
    ], ids=["format-version", "n-clients", "sample-count", "not-utf8",
            "count-minus-1", "count-minus-2", "count-minus-3",
            "format-version-0", "format-version-negative", "symbolic-sample",
            "gen-config-unknown-key", "gen-config-missing-key", "client-id",
            "gen-config-repeated-key", "sample-count-underscore"])
    def test_malformed_header_with_valid_checksum(self, tmp_path, old, new, error):
        path = tmp_path / "data.qfd"
        write_dataset(_tiny_dataset(), path)
        _rewrite_body(path, lambda body: body.replace(old, new, 1))
        with pytest.raises(error, match="sample count|format_version|"
                                        "not an integer|not UTF-8|line 7: .*symbol|"
                                        "gen_config keys|bad client id"):
            read_dataset(path)

    @pytest.mark.parametrize("old,new,message", [
        (b"client_000 uniform_pi 16\n", b"client_000 uniform_pi -1\n",
         "line 6: bad sample count '-1'"),
        (b"client_001 uniform_pi 16\n", b"client_001 uniform_pi 1_6\n",
         "line 23: bad sample count '1_6'"),
        (b"client_001 uniform_pi", b"client_0$1 uniform_pi",
         "line 23: bad client id 'client_0$1'"),
        (b"client_001 uniform_pi", b"client_001 uniform",
         "line 23: unknown distribution 'uniform'"),
    ], ids=["first-count", "second-count", "second-id", "second-distribution"])
    def test_client_header_error_names_its_line(self, tmp_path, old, new, message):
        # Two clients of 16 samples: the headers are the file's lines 6
        # and 23 (magic, checksum, three header lines, then the blocks).
        path = tmp_path / "data.qfd"
        write_dataset(_tiny_dataset(), path)
        _rewrite_body(path, lambda body: body.replace(old, new, 1))
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
            read_dataset(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda body: re.sub(rb"\ns [01] ", b"\ns 2 ", body, count=1),
         "line 7: label must be 0 or 1"),
        (lambda body: re.sub(rb"\ns [01] ", b"\ns x ", body, count=1),
         "line 7: bad label 'x'"),
        (lambda body: re.sub(rb"\ns ([01]) [^\n]*", rb"\ns \1 QFLCIRC v1 qubits=4;H 0",
                             body, count=1),
         "line 7: sample qubit count 4 does not match dataset (8)"),
        (lambda body: re.sub(rb"\ns ([01]) ", rb"\nt \1 ", body, count=1),
         "line 7: bad sample line"),
        (lambda body: re.sub(rb"\ns ([01]) [^\n]*", rb"\ns \1", body, count=1),
         "line 7: bad sample line"),
        (lambda body: body.replace(b" seed=", b" seed ", 1),
         "bad gen_config token 'seed'"),
    ], ids=["label-2", "label-x", "sample-qubits", "sample-tag", "sample-no-circuit",
            "gen-config-token"])
    def test_sample_and_gen_config_errors_name_their_fault(self, tmp_path, edit, message):
        # The first sample is the file's line 7, after the magic, the
        # checksum, three header lines and its client's header.
        path = tmp_path / "data.qfd"
        write_dataset(_tiny_dataset(), path)
        _rewrite_body(path, edit)
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
            read_dataset(path)

    @pytest.mark.parametrize("blob, message", [
        (b"", "not a dataset container"),
        (b"hello world\n", "not a dataset container"),
        (b"QFLDATA v1", "not a dataset container"),
        (b"QFLDATA\nv1\n", "not a dataset container"),
        (b"QFLDATA v1\n", "missing checksum line"),
        (b"QFLDATA v1\nformat_version=1\n", "missing checksum line"),
    ])
    def test_first_two_lines_checked(self, tmp_path, blob, message):
        path = tmp_path / "data.qfd"
        path.write_bytes(blob)
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_dataset(path)

    def test_body_not_utf8_names_its_byte(self, tmp_path):
        # The byte counts from the start of the body; a one-client read
        # decodes the other clients' lines too.
        path = tmp_path / "data.qfd"
        write_dataset(_tiny_dataset(), path)
        _rewrite_body(path, lambda body: body.replace(b"\ns 0 QFLCIRC", b"\ns 0 \xffQFLCIRC", 1))
        at = path.read_bytes().split(b"\n", 2)[2].index(b"\xff")
        for clients in (None, ["client_001"]):
            with pytest.raises(DatasetFormatError, match=(
                    f"^{re.escape(str(path))}: body is not UTF-8 "
                    f"\\(byte {at} after the checksum line\\)$")):
                read_dataset(path, clients=clients)

    def test_repeated_client_id(self, tmp_path):
        # FederatedDataset's ConfigError, raised as a format error.
        path = tmp_path / "data.qfd"
        write_dataset(_tiny_dataset(), path)
        _rewrite_body(path, lambda body: body.replace(b"client client_001", b"client client_000", 1))
        for clients in (None, ["client_000"]):
            with pytest.raises(DatasetFormatError,
                               match=f"^{re.escape(str(path))}: client ids must be unique$"):
                read_dataset(path, clients=clients)

    def test_last_line_without_its_newline_still_counts(self, tmp_path):
        # The final newline ends the last line; a body without it keeps
        # that line, so its last client is not truncated.
        ds = _tiny_dataset()
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        _rewrite_body(path, lambda body: body[:-1])
        assert read_dataset(path) == ds

    def test_blank_lines_between_client_blocks_are_skipped(self, tmp_path):
        # A blank line still counts for the line numbers after it, and
        # the last client, after it, is not truncated.
        ds = _tiny_dataset()
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        _rewrite_body(path, lambda body: body.replace(
            b"client client_001", b"\nclient client_001", 1) + b"\n")
        assert read_dataset(path) == ds
        _rewrite_body(path, lambda body: body.replace(b"client_001 uniform_pi",
                                                      b"client_0$1 uniform_pi", 1))
        with pytest.raises(DatasetFormatError, match="^line 24: bad client id"):
            read_dataset(path)

    def test_negative_sample_count_in_gen_config_rejected(self, tmp_path):
        # -8 divides by the 8 qubits, so only the sign can refuse it.
        path = tmp_path / "data.qfd"
        write_dataset(_tiny_dataset(), path)
        _rewrite_body(path, lambda body: body.replace(
            b" samples_per_client=16 ", b" samples_per_client=-8 ", 1))
        with pytest.raises(DatasetFormatError,
                           match="bad gen_config line: samples_per_client must be >= 0"):
            read_dataset(path)

    def test_client_read_matches_the_full_read(self, tmp_path):
        ds = _tiny_dataset(n_clients=3, samples=8)
        path = tmp_path / "data.qfd"
        write_dataset(ds, path)
        full = read_dataset(path)
        part = read_dataset(path, clients=["client_001"])
        assert part.client_ids() == full.client_ids()
        assert part.gen_config == full.gen_config
        assert part.clients[1] == full.clients[1]
        assert [len(c.samples) for c in part.clients] == [0, 8, 0]

    def test_client_read_checks_the_whole_file(self, tmp_path):
        path = tmp_path / "data.qfd"
        bad = [
            # checksum
            (lambda p: p.write_bytes(p.read_bytes().replace(b"RX 0 ", b"RX 1 ", 1)),
             DatasetCorruptionError, "checksum mismatch"),
            # another client's header
            (lambda p: _rewrite_body(p, lambda b: b.replace(
                b"client_000 uniform_pi 16", b"client_000 uniform 16")),
             DatasetFormatError, "unknown distribution"),
            # the file's last line cut off
            (lambda p: _rewrite_body(p, lambda b: b[:b.rindex(b"\ns ") + 1]),
             DatasetFormatError, "truncated client client_002"),
            # the file's last client block cut off
            (lambda p: _rewrite_body(p, lambda b: b[:b.rindex(b"client_002")]),
             DatasetFormatError, "expected client header"),
            # spaces where a client header belongs
            (lambda p: _rewrite_body(p, lambda b: b.replace(
                b"\nclient client_002", b"\n  \nclient client_002")),
             DatasetFormatError, "line 40: expected client header"),
        ]
        for damage, error, match in bad:
            write_dataset(_tiny_dataset(n_clients=3), path)
            assert read_dataset(path, clients=["client_001"]).clients[1].samples
            damage(path)
            for clients in (["client_001"], None):
                with pytest.raises(error, match=match):
                    read_dataset(path, clients=clients)

    def test_client_read_rejects_an_unknown_client(self, tmp_path):
        path = tmp_path / "data.qfd"
        write_dataset(_tiny_dataset(), path)
        with pytest.raises(QflError, match="client_009"):
            read_dataset(path, clients=["client_000", "client_009"])

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_dataset(tmp_path / "nope.qfd")


class TestMemory:
    def test_a_paper_scale_file_costs_its_text_about_once(self, tmp_path):
        # 30 clients x 160 generated samples, a 0.66 MB file. The write
        # holds one client block's text at a time (holding the whole
        # body's text and bytes peaked at 3.4 times the file). A read,
        # full or of one client, holds one hashed chunk or one client
        # block's lines at a time besides the dataset it builds (0.07
        # and 0.11 times; holding the body's text: 1.02 and 1.89 times).
        ds = generate_federated_dataset(GenConfig(n_clients=30, seed=5))
        path = tmp_path / "data.qfd"
        _, write_peak, _ = _traced(lambda: write_dataset(ds, path))
        size = path.stat().st_size
        back, read_peak, held = _traced(lambda: read_dataset(path))
        assert back == ds
        assert write_peak < 0.5 * size, write_peak / size
        assert read_peak - held < 0.5 * size, (read_peak - held) / size
        part, read_peak, held = _traced(lambda: read_dataset(path, clients=("client_003",)))
        assert part.clients[3] == ds.clients[3]
        assert read_peak - held < 0.5 * size, (read_peak - held) / size

    def test_per_sample_values_have_no_instance_dict(self):
        # A dataset holds one GateOp, Circuit and Sample per sample.
        op = rx(0, 0.5)
        circuit = Circuit(1, (h(0),)).then(op.with_angle(0.25))
        for value in (op, op.with_angle(0.25), circuit, Sample(circuit, 1)):
            assert not hasattr(value, "__dict__"), type(value)
