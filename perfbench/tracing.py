"""Spans and counters recorded from outside the program.

`install(tracer)` replaces each public function of a qflsim layer with a
wrapper under the name its callers look up (``qflsim.model`` imports
``apply_matrix`` by name, so both ``qflsim.sim.apply_matrix`` and
``qflsim.model.apply_matrix`` are patched). Nothing inside ``src/``
changes. The returned callable puts every original back.

Ordinary calls become spans (name, start, end, parent, run id) kept in
memory. Hot calls (``sim.apply_matrix`` runs hundreds of thousands of
times per round, ``sim.apply_circuit`` once per prepared sample) keep
only a call count and a time. A layer's self time is its span time
minus the time of the spans and hot calls nested in it; it is summed per
span name and phase (set-up, rounds, ...). The benchmark switches the
phase between rounds, when no span is open.
"""

import functools
import os
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str, process: str):
        self.run_id = run_id
        self.process = process
        self.phase = "setup"
        self.spans = []                      # [name, start, end, parent]
        self.totals = defaultdict(lambda: [0, 0.0])  # name -> [calls, s]
        self.self_s = defaultdict(float)     # (phase, span name) -> s
        self.counters = defaultdict(float)
        self._stack = []                     # open frames: [span index, child s]

    def _close(self, name, frame, elapsed):
        total = self.totals[name]
        total[0] += 1
        total[1] += elapsed
        self.self_s[(self.phase, name)] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def wrap_span(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append([name, 0.0, 0.0, parent])
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[frame[0]][1:3] = [start, end]
                self._close(name, frame, end - start)
            if count is not None:
                count(self.counters, result, *args, **kwargs)
            return result
        return wrapper

    def wrap_hot(self, name, fn, count=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [-1, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                self._close(name, frame, elapsed)
            if count is not None:
                count(self.counters, result, *args, **kwargs)
            return result
        return wrapper

    def summary(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        import resource
        return {
            "process": self.process,
            "totals": {k: list(v) for k, v in self.totals.items()},
            "self_s": [[p, name, s] for (p, name), s in self.self_s.items()],
            "counters": dict(self.counters),
            "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p,
                 "run_id": self.run_id, "process": self.process}
                for n, s, e, p in self.spans
            ],
        }


def _count_apply_matrix(c, result, states, *_args, **_kw):
    # Amplitudes read plus written, 16 bytes each.
    c["sim.apply_matrix.bytes"] += 2 * 16 * states.size


def _count_prep(c, result, _self, samples):
    c["model.prep_states.samples"] += len(samples)


def _count_forward(c, result, _self, prep_states, _values):
    c["model.forward.samples"] += prep_states.shape[0]


def _count_fwdgrad(c, result, evaluator, prep_states, _values):
    c["model.fwdgrad.batches"] += 1
    # The adjoint method keeps one state per gate plus the input.
    tape = (len(evaluator.model.circuit.ops) + 1) * prep_states.size * 16
    c["model.fwdgrad.tape_bytes"] = max(c["model.fwdgrad.tape_bytes"], tape)


def _count_evaluate(c, result, _params, test_clients, _model):
    c["federated.evaluate.samples"] += sum(len(x.samples) for x in test_clients)


def _count_write(c, info, *_args, **_kw):
    c["store.file_bytes"] = os.path.getsize(info.path)


def _count_decode(c, result, line):
    c["transport.messages"] += 1
    c["transport.bytes"] += len(line.encode("utf-8"))


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that undoes it."""
    import qflsim.datagen as datagen
    import qflsim.federated as federated
    import qflsim.model as model
    import qflsim.sim as sim
    import qflsim.store as store
    import qflsim.transport as transport
    import qflsim.worker as worker

    evaluator = model.ModelEvaluator
    server = transport.SocketFedServer
    # (span name, attribute, where callers look it up, counter, hot)
    table = [
        ("sim.apply_matrix", "apply_matrix", (sim, model), _count_apply_matrix, True),
        ("sim.apply_circuit", "apply_circuit", (sim, model), None, True),
        ("datagen.generate", "generate_federated_dataset", (datagen,), None, False),
        ("store.write", "write_dataset", (store,), _count_write, False),
        ("store.read", "read_dataset", (store, worker), None, False),
        ("model.prep_states", "prep_states", (evaluator,), _count_prep, False),
        ("model.forward", "readout_z", (evaluator,), _count_forward, False),
        ("model.fwdgrad", "readout_z_and_gradient", (evaluator,), _count_fwdgrad, False),
        ("federated.build_run", "build_run", (federated,), None, False),
        ("federated.local_train", "local_train", (federated, transport), None, False),
        ("federated.optimizer_step", "optimizer_step", (federated,), None, False),
        ("federated.federated_average", "federated_average", (federated,), None, False),
        ("federated.evaluate", "evaluate", (federated,), _count_evaluate, False),
        ("transport.round_trip", "round_trip", (server,), None, False),
        ("transport.wait_for_clients", "wait_for_clients", (server,), None, False),
        ("transport.encode", "encode_hello", (transport,), None, False),
        ("transport.encode", "encode_global", (transport,), None, False),
        ("transport.encode", "encode_update", (transport,), None, False),
        ("transport.encode", "encode_done", (transport,), None, False),
        ("transport.decode", "decode_message", (transport,), _count_decode, False),
    ]
    saved = []
    for name, attr, owners, count, hot in table:
        original = getattr(owners[0], attr)
        wrap = tracer.wrap_hot if hot else tracer.wrap_span
        wrapped = wrap(name, original, count)
        for owner in owners:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore


ROUND_LAYERS = ("sim", "model", "federated", "transport")
SETUP_LAYERS = ("datagen", "store", "sim", "model", "federated", "transport")


def layer_metrics(server, workers, marks, t0, ready_s):
    """Per-layer figures of one traced run.

    Times and counts sum over the run's processes (server and workers);
    the round_self/setup_self breakdown is the server's, the process that
    runs the rounds."""
    procs = [server] + workers

    def calls(name, among=procs):
        return sum(p["totals"].get(name, [0, 0.0])[0] for p in among)

    def secs(name, among=procs):
        return sum(p["totals"].get(name, [0, 0.0])[1] for p in among)

    def counter(name, combine=sum):
        return combine([p["counters"].get(name, 0) for p in procs])

    def self_by_layer(phase):
        out = {}
        for p, name, s in server["self_s"]:
            if p == phase:
                layer = name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + s
        return out

    batches = calls("model.fwdgrad")
    m = {
        "datagen.generate_s": secs("datagen.generate"),
        "store.write_s": secs("store.write"),
        "store.read_s": secs("store.read"),
        "store.file_bytes": counter("store.file_bytes", max),
        "sim.apply_matrix.calls": calls("sim.apply_matrix"),
        "sim.apply_matrix.s": secs("sim.apply_matrix"),
        "sim.apply_matrix.bytes": counter("sim.apply_matrix.bytes"),
        "sim.apply_circuit.calls": calls("sim.apply_circuit"),
        "sim.apply_circuit.s": secs("sim.apply_circuit"),
        "model.prep_states.samples": counter("model.prep_states.samples"),
        "model.prep_states.s": secs("model.prep_states"),
        "model.forward.samples": counter("model.forward.samples"),
        "model.forward.s": secs("model.forward"),
        "model.fwdgrad.batches": batches,
        "model.fwdgrad.s": secs("model.fwdgrad"),
        "model.fwdgrad.ms_per_batch": 1e3 * secs("model.fwdgrad") / batches if batches else 0.0,
        "model.fwdgrad.tape_bytes": counter("model.fwdgrad.tape_bytes", max),
        "federated.build_run_s": secs("federated.build_run"),
        "federated.local_train.s": secs("federated.local_train"),
        "federated.local_train.steps": calls("federated.optimizer_step"),
        "federated.optimizer_step.s": secs("federated.optimizer_step"),
        "federated.federated_average.s": secs("federated.federated_average"),
        "federated.evaluate.s": secs("federated.evaluate"),
        "federated.evaluate.samples": counter("federated.evaluate.samples"),
        "transport.round_trip.s": secs("transport.round_trip"),
        "transport.wait_s": sum(s for _p, name, s in server["self_s"]
                                if name == "transport.round_trip"),
        "transport.codec_s": secs("transport.encode") + secs("transport.decode"),
        "transport.messages": counter("transport.messages"),
        "transport.bytes": counter("transport.bytes"),
        "worker.ready_s": ready_s,
        "worker.local_train.s": secs("federated.local_train", workers),
        "worker.peak_rss_mib": max((w["maxrss_kib"] for w in workers), default=0) / 1024.0,
    }
    n_rounds = len(marks) - 1
    round_wall = marks[-1] - marks[0]
    in_rounds = self_by_layer("round")
    for layer in ROUND_LAYERS:
        m[f"round_self.{layer}.s"] = in_rounds.get(layer, 0.0) / n_rounds
    m["round_self.other.s"] = (round_wall - sum(in_rounds.values())) / n_rounds
    m["trace.round_coverage"] = 100.0 * sum(in_rounds.values()) / round_wall
    in_setup = self_by_layer("setup")
    for layer in SETUP_LAYERS:
        m[f"setup_self.{layer}.s"] = in_setup.get(layer, 0.0)
    m["setup_self.other.s"] = marks[0] - t0 - sum(in_setup.values())
    return m
