"""The benchmark's workloads, at full size and in the quick self-test size.

Every workload is a closed loop: each round waits for every client. All
of them generate an IID dataset from the run's seed and train with Adam
(learning rate 0.02), batch 16 and one local epoch per round. Why each
exists is in BENCHMARK.json and perfbench/README.md: fedavg-default is
dominated by local forward+gradient; socket-2w is the only path through
the wire codec and the worker processes.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "fedavg" (in process) or "socket"
    n_clients: int     # clients in the generated dataset
    samples: int       # samples per client
    n_qubits: int
    n_train: int       # the first n_train clients train
    n_test: int        # the last n_test clients are the test set
    rounds: int
    runs: int          # training runs per benchmark run, at least; each
                       # has its own set-up, so setup_s is a median too


BATCH_SIZE = 16
EPOCHS = 1
OPTIMIZER = "adam"
LEARNING_RATE = 0.02


def _full(name, kind, n_train, n_test, rounds, runs):
    return Workload(name, kind, 30, 160, 8, n_train, n_test, rounds, runs)


def _quick(name, kind, n_train, n_test, rounds, runs):
    return Workload(name, kind, 6, 16, 4, n_train, n_test, rounds, runs)


FULL = {
    w.name: w for w in (
        _full("fedavg-default", "fedavg", 25, 5, 1, 2),
        _full("socket-2w", "socket", 2, 1, 3, 3),
    )
}

QUICK = {
    w.name: w for w in (
        _quick("fedavg-default", "fedavg", 4, 2, 1, 2),
        _quick("socket-2w", "socket", 2, 1, 2, 2),
    )
}


def get(name: str, quick: bool) -> Workload:
    return (QUICK if quick else FULL)[name]
